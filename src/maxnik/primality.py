"""Clique cutsets, prime/composite classification, and decomposition.

A graph is composite when it is the clique sum of two smaller graphs;
with clique edges always retained (the convention every construction in
scope uses), that is exactly the existence of a clique whose removal
disconnects the graph. Cliques are generated lazily, smallest first and
in lex order within a size, each tested with a bitmask flood fill; cutsets
are kept inclusion-minimal. ``is_prime`` and ``decompose`` stop at the first
cutset in that (size, lex) order, which is minimal because every proper
sub-clique was tested before it, and decomposition recurses on it so runs
are reproducible (Tarjan, "Decomposition by clique separators", 1985).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

from .graphs import Graph, _bits, _components, _reach, graph6_encode


def _minimal_clique_cutsets(g: Graph) -> Iterator[tuple[int, ...]]:
    """Inclusion-minimal cliques whose removal disconnects g, in (size, lex) order.

    Lazy: a caller that stops at the first cutset pays for nothing after it.
    Level k+1 extends each size-k clique by its common neighbours above its
    last vertex, in increasing order, so every level stays in lex order. A
    clique holding a cutset already found is skipped with its extensions.
    """
    if not g.is_connected():
        raise ValueError("clique cutset search expects a connected graph")
    rows = g.rows
    full = (1 << g.n) - 1
    found: list[int] = []
    # (clique, its bitmask, common neighbours above its last vertex)
    level = [((v,), 1 << v, rows[v] & (full << (v + 1))) for v in range(g.n)]
    while level:
        grown = []
        for clique, cmask, common in level:
            if any(fm & cmask == fm for fm in found):
                continue
            rest = full & ~cmask
            if _reach(rows, rest & -rest, rest) != rest:
                found.append(cmask)
                yield clique
                continue
            while common:
                b = common & -common
                common ^= b
                v = b.bit_length() - 1
                grown.append((clique + (v,), cmask | b, common & rows[v]))
        level = grown


def _pieces(g: Graph, cut: Iterable[int]) -> list[int]:
    """Vertex masks of the pieces of g at ``cut``, ordered by least vertex.

    One piece per component of g minus the cut, with the cut added back.
    """
    cmask = 0
    for v in cut:
        cmask |= 1 << v
    return [comp | cmask for comp in _components(g.rows, ((1 << g.n) - 1) & ~cmask)]


def _splits(g: Graph) -> Iterator[tuple[tuple[int, ...], list[tuple[tuple[int, ...], Graph]]]]:
    """Each minimal clique cutset of g in (size, lex) order, with its pieces;
    ``decompose`` and the certifier's clique-sum constructions split here.

    A piece is its sorted vertices in g and the subgraph they induce,
    relabelled in that order; pieces come ordered by least vertex.
    """
    for cut in _minimal_clique_cutsets(g):
        yield cut, [(tuple(_bits(m)), g._induced(m)) for m in _pieces(g, cut)]


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
    its vertices relabelled in sorted order. ``re_glue`` rebuilds ``graph``
    exactly, on those labels.
    """

    graph: Graph
    cutset: tuple[int, ...] | None
    parts: tuple["Decomposition", ...]
    part_vertices: tuple[tuple[int, ...], ...]

    @property
    def is_leaf(self) -> bool:
        return self.cutset is None

    def leaves(self) -> list[Graph]:
        if self.is_leaf:
            return [self.graph]
        out: list[Graph] = []
        for p in self.parts:
            out.extend(p.leaves())
        return out

    def re_glue(self) -> Graph:
        """Rebuild this node's graph, on its own labels, from the leaves.

        Each part's rebuilt rows are OR-ed back through ``part_vertices``.
        """
        if self.is_leaf:
            return self.graph
        rows = [0] * self.graph.n
        for part, verts in zip(self.parts, self.part_vertices):
            for v, row in zip(verts, part.re_glue().rows):
                for w in _bits(row):
                    rows[v] |= 1 << verts[w]
        return Graph(self.graph.n, rows)

    def to_json(self) -> dict:
        if self.is_leaf:
            return {"graph6": graph6_encode(self.graph), "prime": True}
        return {
            "graph6": graph6_encode(self.graph),
            "prime": False,
            "cutset": list(self.cutset),
            "parts": [p.to_json() for p in self.parts],
        }


def decompose(g: Graph) -> Decomposition:
    """Split recursively on the first minimal clique cutset; leaves prime."""
    cut, pieces = next(_splits(g), (None, ()))
    if cut is None:
        return Decomposition(g, None, (), ())
    d = Decomposition(g, cut, tuple(decompose(piece) for _, piece in pieces),
                      tuple(verts for verts, _ in pieces))
    if d.re_glue() != g:
        raise AssertionError("decomposition does not re-glue to its input")
    return d
