"""Clique cutsets, prime/composite classification, and decomposition.

A graph is composite when it is the clique sum of two smaller graphs;
with clique edges always retained (the convention every construction in
scope uses), that is exactly the existence of a clique whose removal
disconnects the graph. Cliques are generated lazily, smallest first and
in lex order within a size; cutsets are kept inclusion-minimal. The single
vertices are tested all at once: the cut vertices are those in two blocks
of one lowpoint DFS (``graphs._blocks``). Every larger clique is tested
with a bitmask flood fill. ``is_prime`` and ``decompose`` stop at the first
cutset in that (size, lex) order, which is minimal because every proper
sub-clique was tested before it, and decomposition recurses on it so runs
are reproducible (Tarjan, "Decomposition by clique separators", 1985).

``decompose`` splits each distinct labelled piece once per process, in a
bounded cache: a piece that recurs in a tree, or in a later call, is read
from the ``_TREES`` nodes used last, which are immutable and keyed by the
labelled graph, as ``canon._search`` keeps its searches. Each split checks,
on the miss that builds its node, that its pieces, OR-ed back through their
vertices, rebuild the graph it split (``_glued``); by induction on the tree,
the leaves re-glue to the input. The re-glue oracle that rebuilds a whole tree
from its leaves, and the leaf list, live in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple

from .graphs import Graph, _bits, _blocks, _components, _reach, graph6_encode


def _minimal_clique_cutsets(g: Graph) -> Iterator[tuple[int, ...]]:
    """Inclusion-minimal cliques whose removal disconnects g, in (size, lex) order.

    Lazy: a caller that stops at the first cutset pays for nothing after it.
    Level k+1 extends each size-k clique by its common neighbours above its
    last vertex, in increasing order, so every level stays in lex order. A
    clique holding a cutset already found is skipped with its extensions.
    Level 1 reads the cut vertices from the blocks; later levels flood-fill.
    """
    if not g.is_connected():
        raise ValueError("clique cutset search expects a connected graph")
    rows = g.rows
    full = (1 << g.n) - 1
    cut_vertices = _cut_vertices(g)
    found: list[int] = []
    # (clique, its bitmask, common neighbours above its last vertex)
    level = [((v,), 1 << v, rows[v] & (full << (v + 1))) for v in range(g.n)]
    while level:
        grown = []
        for clique, cmask, common in level:
            if any(fm & cmask == fm for fm in found):
                continue
            rest = full & ~cmask
            if (cmask & cut_vertices if len(clique) == 1
                    else _reach(rows, rest & -rest, rest) != rest):
                found.append(cmask)
                yield clique
                continue
            while common:
                b = common & -common
                common ^= b
                v = b.bit_length() - 1
                grown.append((clique + (v,), cmask | b, common & rows[v]))
        level = grown


def _cut_vertices(g: Graph) -> int:
    """Mask of the cut vertices of g: those that lie in two of its blocks."""
    seen = cut = 0
    for block in _blocks(g.rows, (1 << g.n) - 1):
        cut |= seen & block
        seen |= block
    return cut


def _pieces(g: Graph, cut: Iterable[int]) -> list[int]:
    """Vertex masks of the pieces of g at ``cut``, ordered by least vertex.

    One piece per component of g minus the cut, with the cut added back.
    """
    cmask = 0
    for v in cut:
        cmask |= 1 << v
    return [comp | cmask for comp in _components(g.rows, ((1 << g.n) - 1) & ~cmask)]


def _split(g: Graph, cut: Iterable[int]) -> list[tuple[tuple[int, ...], Graph]]:
    """The pieces of g at ``cut``, ordered by least vertex; ``decompose`` and
    the certifier's clique-sum constructions split here.

    A piece is its sorted vertices in g and the subgraph they induce,
    relabelled in that order.
    """
    return [(tuple(_bits(m)), g._induced(m)) for m in _pieces(g, cut)]


def _splits(g: Graph) -> Iterator[tuple[tuple[int, ...], list[tuple[tuple[int, ...], Graph]]]]:
    """Each minimal clique cutset of g in (size, lex) order, with its ``_split``."""
    for cut in _minimal_clique_cutsets(g):
        yield cut, _split(g, cut)


def clique_cutsets(g: Graph) -> list[tuple[int, ...]]:
    """All inclusion-minimal cliques whose removal disconnects g."""
    return list(_minimal_clique_cutsets(g))


class PrimeResult(NamedTuple):
    prime: bool
    witness: tuple[int, ...] | None

    def __bool__(self) -> bool:
        return self.prime


def is_prime(g: Graph) -> PrimeResult:
    """Prime iff no clique cutset exists; witness is the first cutset otherwise."""
    cut = next(_minimal_clique_cutsets(g), None)
    return PrimeResult(cut is None, cut)


@dataclass(frozen=True)
class Decomposition:
    """Recursive clique-sum decomposition; leaves are prime.

    ``cutset`` and ``part_vertices`` name vertices of this node's graph;
    ``parts[i].graph`` is the induced subgraph on ``part_vertices[i]`` with
    its vertices relabelled in sorted order. OR-ing each part's graph back
    through its vertices rebuilds ``graph`` exactly, on those labels.
    """

    graph: Graph
    cutset: tuple[int, ...] | None
    parts: tuple["Decomposition", ...]
    part_vertices: tuple[tuple[int, ...], ...]

    @property
    def is_leaf(self) -> bool:
        return self.cutset is None

    def to_json(self) -> dict:
        if self.is_leaf:
            return {"graph6": graph6_encode(self.graph), "prime": True}
        return {
            "graph6": graph6_encode(self.graph),
            "prime": False,
            "cutset": list(self.cutset),
            "parts": [p.to_json() for p in self.parts],
        }


def _glued(n: int, part_vertices: Iterable[tuple[int, ...]],
           graphs: Iterable[Graph]) -> tuple[int, ...]:
    """The rows on n vertices holding each of ``graphs``, renamed through its vertices."""
    rows = [0] * n
    for verts, part in zip(part_vertices, graphs):
        for v, row in zip(verts, part.rows):
            for w in _bits(row):
                rows[v] |= 1 << verts[w]
    return tuple(rows)


def decompose(g: Graph) -> Decomposition:
    """Split recursively on the first minimal clique cutset; leaves prime.

    Splits each distinct piece once per process, in a bounded cache, and
    checks that each split re-glues to the graph it split (see the module
    docstring)."""
    return _decompose(g)


_TREES = 256  # a size-planner pass meets 177 distinct graphs


@lru_cache(maxsize=_TREES)
def _decompose(g: Graph) -> Decomposition:
    """``decompose(g)``, kept for reuse; a node's split is checked on the miss that builds it."""
    cut, pieces = next(_splits(g), (None, ()))
    verts = tuple(v for v, _ in pieces)
    if cut is not None and _glued(g.n, verts, [piece for _, piece in pieces]) != g.rows:
        raise AssertionError("decomposition does not re-glue to its input")
    return Decomposition(g, cut, tuple(_decompose(piece) for _, piece in pieces), verts)
