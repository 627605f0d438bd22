"""Clique-sum constructions, infinite families, and the size planner.

Gluing sites are always the lexicographically least qualifying
non-triangular edge, so constructed graphs are bit-for-bit reproducible.
Every constructor returns the graph together with a construction
certificate whose operand subtrees re-validate independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement

from .catalog import mmik_library, named_graph
from .certify import (LEMMA_EDGE_SUM_MAXNIK, LEMMA_TRIANGLE_SUM,
                      VERDICT_MAXNIK, Certificate, certify_maxnik,
                      construction_certificate, lemma_conclusion,
                      relabel_certificate)
from .errors import (ConstructionInvariantError, PreconditionError,
                     SizeOutOfRangeError, UnrepresentableSizeError)
from .graphs import (MAX_ORDER, Graph, _bits, complete_graph,
                     complete_multipartite, identified_union, join,
                     clique_number, non_triangular_edges)
from .planarity import is_maximal_2apex, is_maximal_planar
from .primality import is_prime


@dataclass(frozen=True)
class GluingSpec:
    """Two certified operands and the identified clique in each."""

    lemma: str
    left: Graph
    left_clique: tuple[int, ...]
    left_cert: Certificate
    right: Graph
    right_clique: tuple[int, ...]
    right_cert: Certificate


def clique_sum(spec: GluingSpec) -> tuple[Graph, Certificate]:
    """Identified union along a clique, certified by the matching lemma."""
    t = len(spec.left_clique)
    verdict, reason = lemma_conclusion(
        spec.lemma, [(spec.left, spec.left_clique), (spec.right, spec.right_clique)],
        [spec.left_cert.verdict, spec.right_cert.verdict])
    if verdict is None:
        raise PreconditionError(reason)

    glued = identified_union(spec.left, spec.left_clique,
                             spec.right, spec.right_clique)
    expect = spec.left.m + spec.right.m - t * (t - 1) // 2
    if glued.m != expect:
        raise ConstructionInvariantError(
            f"clique sum size {glued.m}, expected {expect}")

    # the right operand's certificate, rewritten onto its labels in the sum
    rest = [v for v in range(spec.right.n) if v not in spec.right_clique]
    final = dict(zip(spec.right_clique, spec.left_clique))
    final.update((v, spec.left.n + i) for i, v in enumerate(rest))
    part_verts = sorted(final.values())
    right_perm = tuple(part_verts.index(final[v]) for v in range(spec.right.n))
    right_cert = relabel_certificate(spec.right_cert, right_perm)

    return glued, construction_certificate(
        verdict, glued, (spec.left_cert, right_cert), spec.lemma, spec.left_clique,
        [range(spec.left.n), part_verts])


# -- certified building blocks -------------------------------------------


@lru_cache(maxsize=None)
def _certified(name: str) -> tuple[Graph, Certificate]:
    g = named_graph(name).graph
    cert = certify_maxnik(g)
    if cert.verdict != VERDICT_MAXNIK:
        raise ConstructionInvariantError(f"{name} failed maximality certification")
    return g, cert


def _least_non_triangular_edge(g: Graph) -> tuple[int, int]:
    """The least edge uv in lex order whose ends have no common neighbour."""
    rows = g.rows
    for u, r in enumerate(rows):
        for v in _bits(r >> (u + 1) << (u + 1)):
            if not r & rows[v]:
                return u, v
    raise PreconditionError("no non-triangular edge available")


@lru_cache(maxsize=None)
def chain_graphs(i: int) -> tuple[Graph, Certificate]:
    """i copies of E9 glued successively along non-triangular edges.

    Size 20i+1, built once per process from chain i-1; each is checked to
    keep at least six non-triangular edges, which the size planner needs.
    """
    if i < 1:
        raise ValueError("chain index must be positive")
    if 7 * i + 2 > MAX_ORDER:
        raise ValueError("chain exceeds the order cap")
    e9, e9_cert = _certified("E9")
    g, cert = e9, e9_cert
    if i > 1:
        g, cert = chain_graphs(i - 1)
        g, cert = clique_sum(GluingSpec(
            LEMMA_EDGE_SUM_MAXNIK, g, _least_non_triangular_edge(g), cert,
            e9, _least_non_triangular_edge(e9), e9_cert))
    if g.m != 20 * i + 1:
        raise ConstructionInvariantError(f"chain size {g.m} != {20 * i + 1}")
    if len(non_triangular_edges(g)) < 6:
        raise ConstructionInvariantError("chain lost its non-triangular edges")
    return g, cert


def npp5_family(k: int) -> tuple[Graph, Certificate]:
    """k copies of E9 on one shared edge, a triangle on every other free edge.

    Realizes order 12k+2 with size 30k+1, i.e. five-halves of the order
    minus five, with the triangle tips providing degree-2 vertices.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if 12 * k + 2 > MAX_ORDER:
        raise ValueError(f"npp5 family member k={k} exceeds the order cap")
    e9, e9_cert = _certified("E9")
    k3, k3_cert = _certified("K3")
    shared = _least_non_triangular_edge(e9)
    g, cert = e9, e9_cert
    for _ in range(k - 1):
        g, cert = clique_sum(GluingSpec(
            LEMMA_EDGE_SUM_MAXNIK, g, shared, cert,
            e9, _least_non_triangular_edge(e9), e9_cert))
    free = [e for e in non_triangular_edges(g) if e != shared]
    if len(free) != 5 * k:
        raise ConstructionInvariantError(
            f"expected {5 * k} free non-triangular edges, found {len(free)}")
    for edge in free:
        g, cert = clique_sum(GluingSpec(
            LEMMA_EDGE_SUM_MAXNIK, g, edge, cert, k3, (0, 1), k3_cert))
    if (g.n, g.m) != (12 * k + 2, 30 * k + 1):
        raise ConstructionInvariantError(
            f"family member has ({g.n}, {g.m}), want ({12 * k + 2}, {30 * k + 1})")
    return g, cert


# -- size realization ------------------------------------------------------


@dataclass(frozen=True)
class ConstructionPlan:
    """Recipe for a maximal knotless graph of a target size."""

    target_size: int
    special: str | None
    base_chain: int
    addends: tuple[int, ...]
    sites: tuple[tuple[tuple[int, int], int], ...]  # (glue edge, addend)

    def to_json(self) -> dict:
        return {
            "target_size": self.target_size,
            "special": self.special,
            "base_chain": self.base_chain,
            "addends": list(self.addends),
            "sites": [{"edge": list(e), "addend": a} for e, a in self.sites],
        }


_ADDEND_CLIQUE = {2: 3, 5: 4, 9: 5, 14: 6}


def _addends_for(k: int) -> tuple[int, ...]:
    """k as at most six addends from {2, 5, 9, 14}: fewest, then largest first."""
    for count in range(7):
        for combo in combinations_with_replacement((14, 9, 5, 2), count):
            if sum(combo) == k:
                return combo
    raise UnrepresentableSizeError(f"{k} is not a sum of six addends from {{2,5,9,14}}")


def size_construct(n: int) -> tuple[ConstructionPlan, Graph, Certificate]:
    """A maximal knotless graph with exactly n edges, n >= 20 and n != 22.

    Sizes whose plan needs more than MAX_ORDER vertices (178, and every size
    from 181 on) raise SizeOutOfRangeError.
    """
    if n < 20:
        raise SizeOutOfRangeError("sizes below 20 admit no maximal knotless graph "
                                  "beyond the small complete graphs")
    if n == 22:
        raise UnrepresentableSizeError("no maximal knotless graph has size 22")
    if n == 20:
        g, cert = _certified("K7^-")
        return ConstructionPlan(20, "K7^-", 0, (), ()), g, cert
    if n == 24:
        e9, e9_cert = _certified("E9")
        k4, k4_cert = _certified("K4")
        tri = mmik_library().triangle_disk_axioms[0].triangle_orbit[0]
        g, cert = clique_sum(GluingSpec(
            LEMMA_TRIANGLE_SUM, e9, tri, e9_cert, k4, (0, 1, 2), k4_cert))
        if (g.n, g.m) != (10, 24):
            raise ConstructionInvariantError("triangle sum of E9 and K4 is off-size")
        return ConstructionPlan(24, "E9-K4-triangle-sum", 0, (), ()), g, cert
    i = (n - 1) // 20
    k = n - 20 * i - 1
    if k in (1, 3):
        i -= 1
        k += 20
    if i < 1:
        raise UnrepresentableSizeError(f"size {n} has no chain-plus-addends plan")
    addends = _addends_for(k)
    # the chain has 7i+2 vertices and each K_c addend brings c-2 more
    order = 7 * i + 2 + sum(_ADDEND_CLIQUE[a] - 2 for a in addends)
    if order > MAX_ORDER:
        raise SizeOutOfRangeError(f"size {n} needs {order} vertices, more than {MAX_ORDER}")
    g, cert = chain_graphs(i)
    sites = []
    for addend in addends:
        clique = _ADDEND_CLIQUE[addend]
        edge = _least_non_triangular_edge(g)
        block, block_cert = _certified(f"K{clique}")
        g, cert = clique_sum(GluingSpec(
            LEMMA_EDGE_SUM_MAXNIK, g, edge, cert, block, (0, 1), block_cert))
        sites.append((edge, addend))
    if g.m != n:
        raise ConstructionInvariantError(f"built size {g.m}, target {n}")
    plan = ConstructionPlan(n, None, i, addends, tuple(sites))
    if 21 + 20 * (i - 1) + sum(addends) != n:
        raise ConstructionInvariantError("plan arithmetic does not reach the target")
    return plan, g, cert


# -- prime family -----------------------------------------------------------


def subdivide_retriangulate(t: Graph, edge: tuple[int, int]) -> Graph:
    """Split an edge lying in exactly two triangles and re-triangulate.

    The edge uv is removed and a new vertex joined to u, v, and the two
    shared triangle corners, giving a maximal planar graph one vertex larger.
    """
    u, v = edge
    if not t.has_edge(u, v):
        raise ValueError(f"edge {edge} not present")
    common = t.rows[u] & t.rows[v]
    if common.bit_count() != 2:
        raise ValueError(f"edge {edge} lies in {common.bit_count()} triangles, need 2")
    x = (common & -common).bit_length() - 1
    y = common.bit_length() - 1
    rows = list(t.rows) + [0]
    rows[u] &= ~(1 << v)
    rows[v] &= ~(1 << u)
    w = t.n
    for z in (u, v, x, y):
        rows[z] |= 1 << w
        rows[w] |= 1 << z
    out = Graph(t.n + 1, rows)
    if not is_maximal_planar(out):
        raise ConstructionInvariantError("subdivision left a non-triangulation")
    return out


def prime_family(order: int) -> Graph:
    """A prime maximal knotless graph of any order from 8 up to the cap.

    Joins K2 with a triangulation grown from the octahedron by repeated
    subdivision of a single designated edge; per instance the triangulation
    is checked maximal planar, 4-connected (as "no clique cutset"), and free
    of 4-cliques.
    """
    if not 8 <= order <= MAX_ORDER:
        raise ValueError(f"order must lie in 8..{MAX_ORDER}")
    t = complete_multipartite(2, 2, 2)
    edge = (0, 2)  # the octahedron's least edge; 2 stays the designated endpoint
    designated = 2
    for _ in range(order - 8):
        t = subdivide_retriangulate(t, edge)
        edge = (designated, t.n - 1)
        # A triangulation is 3-connected and each of its minimal separators
        # induces a cycle, so its clique cutsets are its separating
        # triangles: it is prime exactly when it is 4-connected.
        if not is_prime(t):
            raise ConstructionInvariantError("triangulation lost 4-connectivity")
        if clique_number(t) >= 4:
            raise ConstructionInvariantError("triangulation gained a 4-clique")
    g = join(t, complete_graph(2))
    if not is_maximal_2apex(g):
        raise ConstructionInvariantError("prime family output is not maximal 2-apex")
    return g
