"""Planarity, k-apex, maximal planar, and maximal 2-apex recognition.

The planarity test is the face-growing path-addition algorithm of
Demoucron, Malgrange, and Pertuiset (1964), run per biconnected block: keep
a planar subgraph H with its face list, and repeatedly embed a path of a
fragment into a face containing all of the fragment's attachment vertices.
A fragment is a chord of H (an edge between two vertices of H that H does
not hold) or a component of G - H with the vertices of H it touches; both
are an (attachment mask, interior mask) pair, a chord's interior empty. A
fragment admitting no face proves non-planarity, and always embedding a
fragment with the fewest admissible faces first makes the greedy choice
safe. H starts as a cycle through the block's least vertex a and its least
neighbour b: a shortest path from b back to a that does not use the edge
ab. One breadth-first search (``_path``) finds that path and each
fragment's path. The tests check the kernel against a verbatim copy of an
earlier version, a Wagner oracle (no K5 minor and no K3,3 minor) and
networkx.

The core runs on one host's bit rows plus a vertex mask: the blocks and the
DMP runs all read ``rows[v] & mask``, so ``is_k_apex`` tests each vertex
subset by clearing its bits from the mask instead of building a graph per
subset and per block. ``_planar_within`` checks one edge bound on the whole
mask, since a planar graph on n >= 3 vertices has at most 3n - 6 edges
whatever its components, and then runs DMP on each block of at least five
vertices from one pass of ``graphs._blocks``, the lowpoint DFS that
``primality`` shares; a block that is the whole mask reuses the bound's edge
count. Smaller blocks are planar. The answer is only ever a bool, and a
k-apex witness is the first planar subset in lex order, so no change to
DMP's inner steps can change a verdict or a witness.

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

``is_k_apex`` also takes two hints from a caller that knows something of a
subgraph of G, using that G - S contains H - S for a subgraph H of G. If
H - S is not planar, neither is G - S. So it can start at a subset
``start`` when every subset before it is known to fail; the first witness
is at or after it, and is the same. And it can ask a ``doomed`` callback
whether an induced subgraph is not k-apex, in which case neither is G. The
walk thus has two stopping points: it asks ``doomed`` once three subsets
have failed, and it fetches the generators at 2n. Asking at n failures
paid n planarity runs at every level of a clique sum before a piece could
end the walk: certifying 30 relabelled size-plan sums (sizes 23-52) ran 896
planarity tests that way, and runs 230 now. Asking earlier costs the
queries that do have a witness: one found after a failed pair or two would
pay for a split search it never uses. On the 40 G(n, p) hosts (n 9-10) of
perfbench's ``certify-random``, the median per-host certify time was 55%
higher when asking at the first failure, and 10% higher at two, than at
three (medians of 15 fresh processes each).
"""

from __future__ import annotations

from itertools import combinations, dropwhile
from typing import Callable, Iterable, NamedTuple, Sequence

from .canon import _set_orbit, automorphism_generators
from .graphs import Graph, _bits, _blocks, _components


def _mask(vertices: Iterable[int]) -> int:
    """The vertex mask of ``vertices``."""
    out = 0
    for v in vertices:
        out |= 1 << v
    return out


def _low(mask: int) -> int:
    """The least vertex of a non-empty mask."""
    return (mask & -mask).bit_length() - 1


def _neighbors(rows: Sequence[int], mask: int) -> int:
    """The vertices adjacent to some vertex of ``mask``."""
    out = 0
    for v in _bits(mask):
        out |= rows[v]
    return out


def _size_within(rows: Sequence[int], mask: int) -> int:
    """Edge count of the subgraph induced on ``mask``."""
    return sum((rows[v] & mask).bit_count() for v in _bits(mask)) // 2


def _path(rows: Sequence[int], start: int, through: int, ends: int) -> list[int]:
    """A shortest path from ``start`` to a vertex of ``ends`` with at least one
    inner vertex, all of them in ``through``; listed from that end back to
    ``start``. Breadth-first, one vertex mask per layer."""
    layers = [1 << start]
    layer = seen = rows[start] & through
    while layer:
        for w in _bits(layer):
            if rows[w] & ends:
                path = [_low(rows[w] & ends), w]
                for prev in reversed(layers):
                    w = _low(rows[w] & prev)
                    path.append(w)
                return path
        layers.append(layer)
        layer = _neighbors(rows, layer) & through & ~seen
        seen |= layer
    raise ValueError("no path through the given vertices")


def _embed(emb: list[int], path: list[int]) -> None:
    """Add the edges of ``path`` to the embedded adjacency rows ``emb``."""
    for a, b in zip(path, path[1:]):
        emb[a] |= 1 << b
        emb[b] |= 1 << a


def _dmp(rows: Sequence[int], block: int, size: int) -> bool:
    """Planarity of the 2-connected subgraph induced on ``block``, which has
    ``size`` edges, by face growing."""
    a = _low(block)
    b = _low(rows[a] & block)
    cycle = _path(rows, b, block & ~(1 << a | 1 << b), 1 << a)
    emb = [0] * len(rows)  # embedded adjacency rows
    _embed(emb, cycle + cycle[:1])
    faces = [cycle, cycle]
    in_h = _mask(cycle)
    fmasks = [in_h, in_h]
    left = size - len(cycle)  # edges not yet embedded
    while left:
        # the chords of H, each once, then the components of G - H
        frags = [(1 << v | 1 << u, 0) for v in _bits(in_h)
                 if (chords := rows[v] & in_h & ~emb[v] & -(2 << v)) for u in _bits(chords)]
        frags += [(_neighbors(rows, comp) & in_h, comp)
                  for comp in _components(rows, block & ~in_h)]
        best = None
        for attach, interior in frags:
            adm = [i for i, fm in enumerate(fmasks) if not attach & ~fm]
            if not adm:
                return False
            if best is None or len(adm) < len(best[2]):
                best = attach, interior, adm
                if len(adm) == 1:
                    break
        attach, interior, adm = best
        if interior:
            u = _low(attach)
            path = _path(rows, u, interior, attach & ~(1 << u))
        else:
            path = list(_bits(attach))
        _embed(emb, path)
        left -= len(path) - 1
        in_h |= _mask(path)
        face = faces[adm[0]]
        i = face.index(path[0])
        face = face[i:] + face[:i]
        j = face.index(path[-1])
        inner = path[1:-1]
        faces[adm[0]] = face[:j + 1] + inner[::-1]
        faces.append(face[j:] + face[:1] + inner)
        fmasks[adm[0]] = _mask(faces[adm[0]])
        fmasks.append(_mask(faces[-1]))
    return True


def _planar_within(rows: Sequence[int], keep: int) -> bool:
    """Planarity of the subgraph induced on ``keep``: one edge bound, then DMP
    on each block of at least five vertices. A block that is all of ``keep``
    reuses the bound's edge count; only a smaller block is counted again."""
    n = keep.bit_count()
    if n <= 4:
        return True
    size = _size_within(rows, keep)
    if size > 3 * n - 6:
        return False
    return all(_dmp(rows, block, size if block == keep else _size_within(rows, block))
               for block in _blocks(rows, keep) if block.bit_count() >= 5)


def is_planar(g: Graph) -> bool:
    """Deterministic combinatorial planarity test (DMP per block)."""
    return _planar_within(g.rows, (1 << g.n) - 1)


_DOOMED_AFTER = 3  # failed subsets before ``doomed`` is asked (module docstring)


class KApexResult(NamedTuple):
    found: bool
    witness: tuple[int, ...] | None

    def __bool__(self) -> bool:
        return self.found


def is_k_apex(g: Graph, k: int, start: tuple[int, ...] = (),
              doomed: Callable[[], bool] | None = None) -> KApexResult:
    """Can deleting k vertices leave a planar graph? First witness in lex order.

    Subsets are walked lazily in lex order. Once 2n of them have failed,
    the automorphism generators are fetched, and from then on every subset
    in the orbit of a failed one is skipped: it leaves an isomorphic, so
    non-planar, graph (see the module docstring). The witness is the one
    the plain walk finds.

    The hints come from what a subgraph of g already proved. Subsets before
    ``start`` in lex order are skipped untested: the caller knows each of
    them fails. Once ``_DOOMED_AFTER`` subsets have failed, ``doomed()`` is
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
        gone = _mask(subset)
        if gone in seen:
            continue
        if _planar_within(rows, full & ~gone):
            return KApexResult(True, subset)
        if gens is not None:
            seen |= _set_orbit(gone, gens)
            continue
        failed.append(gone)
        if len(failed) == _DOOMED_AFTER and doomed is not None and doomed():
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
