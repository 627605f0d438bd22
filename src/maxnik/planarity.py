"""Planarity, k-apex, maximal planar, and maximal 2-apex recognition.

The primary planarity test is the face-growing path-addition algorithm of
Demoucron, Malgrange, and Pertuiset, run per biconnected block: keep a
planar subgraph H with its face list, and repeatedly embed a path of a
bridge fragment into a face containing all of the fragment's attachment
vertices. A fragment admitting no such face proves non-planarity, and
always embedding a fragment with the fewest admissible faces first makes
the greedy choice safe. The tests check it against an independent Wagner
oracle (no K5 minor and no K3,3 minor).

The core runs on one host's bit rows plus a vertex mask: the components,
the blocks and the DMP run all read ``rows[v] & mask``, so ``is_k_apex``
tests each vertex subset by clearing its bits from the mask instead of
building a graph per subset, per component and per block. Vertices are
visited in increasing order, as they are on a densely relabelled copy, so
each DMP run takes the same steps and the first witness is the same. The
blocks come from ``graphs._blocks``, the lowpoint DFS that ``primality`` shares.

``is_k_apex`` tests one vertex subset per automorphism orbit. For an
automorphism s, G - S and G - s(S) are isomorphic, so every subset in the
orbit of a failed subset fails too and is skipped. The first planar subset
in lex order is never skipped: every member of its orbit is planar, so none
of them failed before it, and the witness is the one the plain walk finds.

The generators cost one canonical search, about as much as a few planarity
tests of the same graph, so the walk fetches them only once 2n subsets have
failed. Most queries that find a witness end before then and pay nothing; a
query without one prunes the rest of its C(n, k) subsets. (Fetching
at the first subset without vertex 0 instead made the order-9, size-20
sweep 14% slower: there every query finds a witness, most of them soon
after that point.) ``canon`` checks the generators and fills the orbits, so a
wrong generator fails loudly instead of skipping a subset.

The private walk under ``is_k_apex`` also takes what the caller knows of a
subgraph of G, using that G - S contains H - S for a subgraph H of G. If
H - S is not planar, neither is G - S. So it can start at a subset
``start`` when every subset before it is known to fail; the first witness
is at or after it, and is the same. And it can ask a ``doomed`` callback
whether an induced subgraph is not k-apex, in which case neither is G. The
walk thus has two stopping points: it asks ``doomed`` once n subsets have
failed, and it fetches the generators at 2n. Most positive queries end
before n failures and never pay for what ``doomed`` computes.
"""

from __future__ import annotations

from itertools import combinations, dropwhile
from typing import Callable, NamedTuple, Sequence

from .canon import _set_orbit, automorphism_generators
from .graphs import Graph, _bits, _blocks, _components


def _dfs_cycle(rows: Sequence[int], mask: int) -> list[int]:
    """Recursive DFS cycle finder (back edges only, so cycles are simple)."""
    parent = [-1] * len(rows)
    seen = [False] * len(rows)

    def dfs(v: int, par: int) -> list[int] | None:
        seen[v] = True
        for u in _bits(rows[v] & mask):
            if u == par:
                continue
            if seen[u]:
                path = [v]
                w = v
                while w != u:
                    w = parent[w]
                    path.append(w)
                return path
            parent[u] = v
            got = dfs(u, v)
            if got is not None:
                return got
        return None

    got = dfs((mask & -mask).bit_length() - 1, -1)
    if got is None or len(got) < 3:
        raise ValueError("no simple cycle found")
    return got


def _dmp_biconnected(rows: Sequence[int], mask: int) -> bool:
    """Planarity of the 2-connected subgraph induced on ``mask`` by face growing."""
    n = mask.bit_count()
    if n <= 4:
        return True
    m = _size_within(rows, mask)
    if m > 3 * n - 6:
        return False
    cyc = _dfs_cycle(rows, mask)
    in_h = 0
    for v in cyc:
        in_h |= 1 << v
    emb = [0] * len(rows)  # embedded adjacency rows
    for i, v in enumerate(cyc):
        u = cyc[(i + 1) % len(cyc)]
        emb[v] |= 1 << u
        emb[u] |= 1 << v
    emb_count = len(cyc)
    faces: list[list[int]] = [list(cyc), list(cyc)]
    fmasks = [in_h, in_h]

    while emb_count < m:
        # fragments: chords of H, and bridges hanging off components of G - H
        frags: list[tuple[int, tuple]] = []  # (attachment mask, descriptor)
        for v in _bits(in_h):
            for u in _bits(rows[v] & in_h & ~emb[v]):
                if u > v:
                    frags.append(((1 << v) | (1 << u), ("chord", v, u)))
        for comp in _components(rows, mask & ~in_h):
            attach = 0
            for v in _bits(comp):
                attach |= rows[v] & in_h
            frags.append((attach, ("comp", comp)))

        best = None
        best_faces: list[int] = []
        for attach, desc in frags:
            adm = [i for i, fm in enumerate(fmasks) if not attach & ~fm]
            if not adm:
                return False
            if best is None or len(adm) < len(best_faces):
                best = (attach, desc)
                best_faces = adm
                if len(adm) == 1:
                    break
        assert best is not None
        attach, desc = best
        if desc[0] == "chord":
            path = [desc[1], desc[2]]
        else:
            comp = desc[1]
            ats = list(_bits(attach))
            a = ats[0]
            others = attach & ~(1 << a)
            # BFS from a through the component to any other attachment
            prev: dict[int, int] = {}
            frontier = [a]
            seenb = 1 << a
            path = None
            while frontier and path is None:
                nxt = []
                for w in frontier:
                    reach = rows[w] & comp & ~seenb
                    if w != a and rows[w] & others:
                        b = (rows[w] & others)
                        b = (b & -b).bit_length() - 1
                        path = [b, w]
                        x = w
                        while x != a:
                            x = prev[x]
                            path.append(x)
                        break
                    for x in _bits(reach):
                        prev[x] = w
                        seenb |= 1 << x
                        nxt.append(x)
                frontier = nxt
            assert path is not None, "attachment unreachable in its own fragment"
        u, v = path[0], path[-1]
        fi = best_faces[0]
        face = faces[fi]
        iu = face.index(u)
        face = face[iu:] + face[:iu]
        iv = face.index(v)
        interior = path[1:-1]
        face1 = face[:iv + 1] + interior[::-1]
        face2 = face[iv:] + [face[0]] + interior
        faces[fi] = face1
        faces.append(face2)
        im = 0
        for w in interior:
            im |= 1 << w
        m1 = 0
        for w in face1:
            m1 |= 1 << w
        m2 = 0
        for w in face2:
            m2 |= 1 << w
        fmasks[fi] = m1
        fmasks.append(m2)
        in_h |= im
        for i in range(len(path) - 1):
            a, b = path[i], path[i + 1]
            emb[a] |= 1 << b
            emb[b] |= 1 << a
            emb_count += 1
    return True


def _size_within(rows: Sequence[int], mask: int) -> int:
    """Edge count of the subgraph induced on ``mask``."""
    return sum((rows[v] & mask).bit_count() for v in _bits(mask)) // 2


def _planar_within(rows: Sequence[int], keep: int) -> bool:
    """Planarity of the subgraph induced on ``keep`` (DMP per block)."""
    if keep.bit_count() <= 4:
        return True
    for comp in _components(rows, keep):
        n = comp.bit_count()
        if n <= 4:
            continue
        if _size_within(rows, comp) > 3 * n - 6:
            return False
        for block in _blocks(rows, comp):
            if block.bit_count() >= 5 and not _dmp_biconnected(rows, block):
                return False
    return True


def is_planar(g: Graph) -> bool:
    """Deterministic combinatorial planarity test (DMP per block)."""
    return _planar_within(g.rows, (1 << g.n) - 1)


class KApexResult(NamedTuple):
    found: bool
    witness: tuple[int, ...] | None

    def __bool__(self) -> bool:
        return self.found


def is_k_apex(g: Graph, k: int) -> KApexResult:
    """Can deleting k vertices leave a planar graph? First witness in lex order.

    Subsets are walked lazily in lex order. Once 2n of them have failed,
    the automorphism generators are fetched, and from then on every subset
    in the orbit of a failed one is skipped: it leaves an isomorphic, so
    non-planar, graph (see the module docstring). The witness is the one
    the plain walk finds.
    """
    return _apex_walk(g, k)


def _apex_walk(g: Graph, k: int, start: tuple[int, ...] = (),
               doomed: Callable[[], bool] | None = None) -> KApexResult:
    """``is_k_apex(g, k)`` told what a subgraph of g already proved.

    Subsets before ``start`` in lex order are skipped untested: the caller
    knows each of them fails. Once n subsets have failed, ``doomed()`` is
    asked once; True means g is not k-apex, and the walk ends there.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    k_eff = min(k, g.n - 1)
    rows = g.rows
    full = (1 << g.n) - 1
    gens: list[tuple[int, ...]] | None = None
    failed: list[int] = []  # removed-vertex masks, until the generators arrive
    seen: set[int] = set()  # orbits of failed subsets
    for subset in dropwhile(lambda s: s < start, combinations(range(g.n), k_eff)):
        gone = 0
        for v in subset:
            gone |= 1 << v
        if gone in seen:
            continue
        if _planar_within(rows, full & ~gone):
            return KApexResult(True, subset)
        if gens is not None:
            seen |= _set_orbit(gone, gens)
            continue
        failed.append(gone)
        if len(failed) == g.n and doomed is not None and doomed():
            return KApexResult(False, None)
        if len(failed) == 2 * g.n:
            gens = automorphism_generators(g)
            for mask in failed:
                if mask not in seen:
                    seen |= _set_orbit(mask, gens)
    return KApexResult(False, None)


def is_maximal_planar(g: Graph) -> bool:
    """Planar with a full triangulation's edge count (complete below order 3)."""
    if g.n <= 2:
        return g.is_complete()
    return g.m == 3 * g.n - 6 and is_planar(g)


def is_maximal_2apex(g: Graph) -> bool:
    """Edge-maximal 2-apex: complete below order 7, else 2-apex with 5n-15 edges."""
    if g.n < 7:
        return g.is_complete()
    return g.m == 5 * g.n - 15 and is_k_apex(g, 2).found
