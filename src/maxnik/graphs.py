"""Small simple undirected graphs on at most 64 vertices.

Adjacency is stored as one int bitmask per vertex, so neighborhood
intersection (the inner loop of triangle and minor tests) is a single
``&``. Vertices are always 0..n-1; deletion relabels densely. Graphs are
immutable and hashable.

The hot paths work on whole bit rows. ``Graph(...)`` checks symmetry by
testing each upper-half bit against its mirror plus one popcount
comparison of the two halves, and rescans in full only to name the first
asymmetric pair. An induced subgraph closes up each run of deleted
vertices with one shift and mask per row. Graphs derived from one that
is already valid (induced subgraphs, ``identified_union``, canonical
relabellings) and the rows ``graph6_decode`` fills on both sides skip the
checks through ``Graph._trusted``; ``Graph(...)`` and every other public
constructor validate.

Also holds the graph6 codec (byte = 63 + value, upper-triangle
column-major bit order, zero padding), which converts six bits at a time
through two 64-entry tables and reads or writes each column of the upper
triangle as one binary string, the one bitmask flood fill (``_reach``) that
every component and connectivity test runs, the one lowpoint DFS
(``_blocks``) that finds the biconnected blocks for planarity and the cut
vertices for the clique-cutset search, and the elementary operations:
complement, join, triangles and non-triangular edges. The helpers only the
tests build with (cycles, paths, disjoint unions, edge contraction, degree
statistics) live in ``tests/conftest.py``.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .errors import OrderOverflowError, ParseError

MAX_ORDER = 64


def _bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of ``mask`` in increasing order."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def _reach(rows: Sequence[int], start: int, within: int) -> int:
    """Mask of the vertices in ``within`` joined to ``start`` by paths inside it.

    ``start`` is a vertex mask inside ``within``; each reached vertex is
    expanded once, by one row lookup and mask.
    """
    reach = frontier = start
    while frontier:
        b = frontier & -frontier
        frontier ^= b
        new = rows[b.bit_length() - 1] & within & ~reach
        reach |= new
        frontier |= new
    return reach


def _components(rows: Sequence[int], within: int) -> list[int]:
    """Vertex masks of the components induced on ``within``, by least vertex."""
    out = []
    while within:
        comp = _reach(rows, within & -within, within)
        out.append(comp)
        within ^= comp
    return out


def _blocks(rows: Sequence[int], mask: int) -> list[int]:
    """Vertex masks of the blocks induced on ``mask``: Hopcroft and Tarjan's
    lowpoint DFS (CACM 1973). A cut vertex lies in two or more blocks, an
    isolated vertex in none. When a child u of v has low[u] >= num[v], the
    block is v plus the vertices stacked from u on."""
    num = [0] * len(rows)
    low = [0] * len(rows)
    count = 0
    stack: list[int] = []
    out: list[int] = []

    def dfs(v: int, parent: int) -> None:
        nonlocal count
        count += 1
        num[v] = low[v] = count
        stack.append(v)
        nbrs = rows[v] & mask
        while nbrs:
            b = nbrs & -nbrs
            nbrs ^= b
            u = b.bit_length() - 1
            if not num[u]:
                dfs(u, v)
                if low[u] < low[v]:
                    low[v] = low[u]
                if low[u] >= num[v]:
                    block = 1 << v
                    while True:
                        w = stack.pop()
                        block |= 1 << w
                        if w == u:
                            break
                    out.append(block)
            elif u != parent and num[u] < low[v]:
                low[v] = num[u]

    for v in _bits(mask):
        if not num[v]:
            dfs(v, -1)
    return out


def _permuted_rows(rows: Sequence[int], perm: Sequence[int]) -> tuple[int, ...]:
    """The rows of the graph on ``rows`` with vertex v renamed to perm[v]."""
    out = [0] * len(rows)
    for v, r in enumerate(rows):
        x = 0
        while r:
            b = r & -r
            x |= 1 << perm[b.bit_length() - 1]
            r ^= b
        out[perm[v]] = x
    return tuple(out)


def _symmetric(rows: tuple[int, ...]) -> bool:
    """Is every edge of the loop-free ``rows`` stored in both of its rows?

    Each bit u > v of row v must be mirrored in row u. If every upper bit
    is, the lower halves hold at least the mirrored bits, so they hold
    exactly those when both halves have the same total popcount.
    """
    upper = total = 0
    for v, r in enumerate(rows):
        total += r.bit_count()
        hi = r >> (v + 1) << (v + 1)
        upper += hi.bit_count()
        bit = 1 << v
        while hi:
            b = hi & -hi
            if not rows[b.bit_length() - 1] & bit:
                return False
            hi ^= b
    return 2 * upper == total


class Graph:
    """Immutable simple graph: vertex count ``n`` plus bit-rows ``rows``."""

    __slots__ = ("n", "rows", "_hash")

    def __init__(self, n: int, rows: Sequence[int]):
        if not 1 <= n <= MAX_ORDER:
            raise OrderOverflowError(f"order {n} outside 1..{MAX_ORDER}")
        rows = tuple(rows)
        if len(rows) != n:
            raise ValueError("row count does not match order")
        full = (1 << n) - 1
        for v, r in enumerate(rows):
            if r & ~full:
                raise ValueError(f"row {v} has bits outside 0..{n - 1}")
            if r >> v & 1:
                raise ValueError(f"loop at vertex {v}")
        if not _symmetric(rows):
            # the full scan names the first asymmetric pair
            for v, r in enumerate(rows):
                for u in _bits(r):
                    if not rows[u] >> v & 1:
                        raise ValueError(f"asymmetric adjacency at ({v}, {u})")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_hash", hash((n, rows)))

    @classmethod
    def _trusted(cls, n: int, rows: tuple[int, ...]) -> "Graph":
        """A graph on rows that are valid by construction, without the checks.

        ``rows`` must be a tuple of ``n`` loop-free, symmetric rows inside
        0..n-1, with 1 <= n <= 64. It builds the graphs derived from one that
        is already valid: induced subgraphs (``delete_vertices``,
        ``subgraph``), ``identified_union``, the canonical relabelling
        (``canon._relabel_canonically``), the augmented child in
        ``smallgraphs.enumerate_graphs`` and ``graph6_decode``. ``Graph(...)``,
        ``relabel``, ``with_edge`` and every other public constructor validate.
        """
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "rows", rows)
        object.__setattr__(g, "_hash", hash((n, rows)))
        return g

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("Graph is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m}, g6={graph6_encode(self)!r})"

    @property
    def m(self) -> int:
        return sum(map(int.bit_count, self.rows)) // 2

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(r.bit_count() for r in self.rows)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(_bits(self.rows[v]))

    def edges(self) -> tuple[tuple[int, int], ...]:
        out = []
        for v, r in enumerate(self.rows):
            hi = r >> (v + 1) << (v + 1)
            while hi:
                b = hi & -hi
                out.append((v, b.bit_length() - 1))
                hi ^= b
        return tuple(out)

    def non_edges(self) -> tuple[tuple[int, int], ...]:
        out = []
        for v in range(self.n):
            for u in range(v + 1, self.n):
                if not self.rows[v] >> u & 1:
                    out.append((v, u))
        return tuple(out)

    def with_edge(self, u: int, v: int) -> "Graph":
        if u == v:
            raise ValueError("loop")
        rows = list(self.rows)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return Graph(self.n, rows)

    def without_edge(self, u: int, v: int) -> "Graph":
        rows = list(self.rows)
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        return Graph(self.n, rows)

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """Return the graph with vertex v renamed to perm[v]."""
        return Graph(self.n, _permuted_rows(self.rows, perm))

    def delete_vertices(self, doomed: Iterable[int]) -> "Graph":
        """Delete vertices and relabel the rest densely, preserving order."""
        gone = 0
        for v in doomed:
            gone |= 1 << v
        return self._induced(((1 << self.n) - 1) & ~gone)

    def subgraph(self, keep: Iterable[int]) -> "Graph":
        """Induced subgraph on ``keep``, relabelled densely in sorted order."""
        keepset = set(keep)
        mask = 0
        for v in range(self.n):
            if v in keepset:
                mask |= 1 << v
        return self._induced(mask)

    def _induced(self, keep: int) -> "Graph":
        """Induced subgraph on the vertex mask ``keep``, relabelled densely.

        Each run of deleted vertices, highest first, is closed up with one
        shift and mask per row, so the kept vertices keep their order.
        """
        if not keep:
            raise ValueError("cannot delete every vertex")
        runs = []  # (mask below the run, run end, run start), highest run first
        gone = ((1 << self.n) - 1) & ~keep
        while gone:
            lo = (gone & -gone).bit_length() - 1
            x = gone >> lo
            hi = lo + (x ^ (x + 1)).bit_length() - 1
            runs.append(((1 << lo) - 1, hi, lo))
            gone = gone >> hi << hi
        runs.reverse()
        rows = []
        k = keep
        while k:
            b = k & -k
            r = self.rows[b.bit_length() - 1] & keep
            for low, hi, lo in runs:
                r = r & low | r >> hi << lo
            rows.append(r)
            k ^= b
        return Graph._trusted(len(rows), tuple(rows))

    def components(self) -> list[int]:
        """Connected components as vertex bitmasks, sorted by lowest vertex."""
        return _components(self.rows, (1 << self.n) - 1)

    def is_connected(self) -> bool:
        return len(self.components()) == 1

    def is_complete(self) -> bool:
        return self.m == self.n * (self.n - 1) // 2


# -- constructors ------------------------------------------------------------


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    rows = [0] * n
    for u, v in edges:
        if u == v:
            raise ValueError("loop")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, rows)


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, [full ^ (1 << v) for v in range(n)])


def complete_multipartite(*sizes: int) -> Graph:
    """Complete multipartite graph; parts laid out consecutively."""
    n = sum(sizes)
    bounds = []
    at = 0
    for s in sizes:
        bounds.append((at, at + s))
        at += s
    edges = []
    for (a0, a1), (b0, b1) in combinations(bounds, 2):
        edges.extend((u, v) for u in range(a0, a1) for v in range(b0, b1))
    return from_edges(n, edges)


def identified_union(g: Graph, g_sites: Sequence[int], h: Graph, h_sites: Sequence[int]) -> Graph:
    """Union of g and h with h_sites[i] identified onto g_sites[i].

    g keeps its labels; the remaining h vertices are appended in increasing
    order. All edges of both operands are retained.
    """
    if len(g_sites) != len(h_sites):
        raise ValueError("site lists differ in length")
    if len(set(g_sites)) != len(g_sites) or len(set(h_sites)) != len(h_sites):
        raise ValueError("site lists must not repeat vertices")
    n = g.n + h.n - len(g_sites)
    if n > MAX_ORDER:
        raise OrderOverflowError(f"identified union order {n} exceeds {MAX_ORDER}")
    if not (all(0 <= v < g.n for v in g_sites) and all(0 <= v < h.n for v in h_sites)):
        raise ValueError("site outside its graph")
    site = dict(zip(h_sites, g_sites))
    hmap = []  # position of each h vertex in the union
    nxt = g.n
    for v in range(h.n):
        if v in site:
            hmap.append(site[v])
        else:
            hmap.append(nxt)
            nxt += 1
    rows = list(g.rows) + [0] * (n - g.n)
    for v, r in enumerate(h.rows):
        x = 0
        while r:
            b = r & -r
            x |= 1 << hmap[b.bit_length() - 1]
            r ^= b
        rows[hmap[v]] |= x
    return Graph._trusted(n, tuple(rows))


# -- spec operations ---------------------------------------------------------


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph(g.n, [full & ~r & ~(1 << v) for v, r in enumerate(g.rows)])


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint copies of g and h plus all cross edges."""
    n = g.n + h.n
    if n > MAX_ORDER:
        raise OrderOverflowError(f"join order {n} exceeds {MAX_ORDER}")
    gmask = (1 << g.n) - 1
    hmask = ((1 << h.n) - 1) << g.n
    rows = [r | hmask for r in g.rows]
    rows += [(r << g.n) | gmask for r in h.rows]
    return Graph(n, rows)


def non_triangular_edges(g: Graph) -> tuple[tuple[int, int], ...]:
    """Edges whose endpoints have no common neighbor."""
    return tuple((u, v) for u, v in g.edges() if not g.rows[u] & g.rows[v])


def triangles(g: Graph) -> tuple[tuple[int, int, int], ...]:
    out = []
    for u, v in g.edges():
        common = g.rows[u] & g.rows[v]
        for w in _bits(common >> (v + 1) << (v + 1)):
            out.append((u, v, w))
    return tuple(out)


def clique_number(g: Graph) -> int:
    """Size of a largest clique, by branch and bound over bitmasks."""
    best = 0
    rows = g.rows

    def expand(size: int, cand: int) -> None:
        nonlocal best
        if not cand:
            best = max(best, size)
            return
        while cand:
            if size + cand.bit_count() <= best:
                return
            b = cand & -cand
            v = b.bit_length() - 1
            cand ^= b
            expand(size + 1, cand & rows[v])

    expand(0, (1 << g.n) - 1)
    return best


# -- graph6 ------------------------------------------------------------------

# six bits, most significant first, to their graph6 character and back
_SIX_TO_CHAR = {format(v, "06b"): chr(63 + v) for v in range(64)}
_CHAR_TO_SIX = {63 + v: format(v, "06b") for v in range(64)}  # str.translate table


def graph6_encode(g: Graph) -> str:
    n = g.n
    if n <= 62:
        head = chr(63 + n)
    else:
        head = "~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))
    # column v holds rows 0..v-1 of the upper triangle: row v's low bits, reversed
    rows = g.rows
    bits = "".join([format(rows[v] & ((1 << v) - 1), f"0{v}b")[::-1] for v in range(1, n)])
    bits += "0" * (-len(bits) % 6)
    return head + "".join([_SIX_TO_CHAR[bits[at:at + 6]] for at in range(0, len(bits), 6)])


def graph6_decode(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise ParseError("empty graph6 string")
    if min(s) < "?" or max(s) > "~":  # name the first byte out of range
        for ch in s:
            if not 63 <= ord(ch) <= 126:
                raise ParseError(f"byte {ord(ch)} out of graph6 range")
    if s[0] == "~":  # long form
        if len(s) >= 4 and s[1] == "~":
            raise ParseError("order above 64 not supported")
        if len(s) < 4:
            raise ParseError("truncated long-form order")
        n = (ord(s[1]) - 63) << 12 | (ord(s[2]) - 63) << 6 | (ord(s[3]) - 63)
        body = s[4:]
    else:
        n = ord(s[0]) - 63
        body = s[1:]
    if not 1 <= n <= MAX_ORDER:
        raise ParseError(f"order {n} outside 1..{MAX_ORDER}")
    nbits = n * (n - 1) // 2
    want = (nbits + 5) // 6
    if len(body) != want:
        raise ParseError(f"expected {want} data bytes, found {len(body)}")
    bits = body.translate(_CHAR_TO_SIX)
    if "1" in bits[nbits:]:
        raise ParseError("nonzero padding bits")
    rows = [0] * n
    at = 0
    for v in range(1, n):
        col = int(bits[at:at + v][::-1], 2)  # v's neighbours below v
        at += v
        rows[v] |= col
        bit = 1 << v
        while col:
            b = col & -col
            rows[b.bit_length() - 1] |= bit
            col ^= b
    return Graph._trusted(n, tuple(rows))
