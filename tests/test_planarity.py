"""Planarity and apex recognition, cross-validated against the minor oracle."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from maxnik.graphs import (Graph, complete_graph, complete_multipartite, cycle_graph,
                           disjoint_union, from_edges, join, path_graph,
                           vertex_connectivity)
from maxnik.planarity import (is_k_apex, is_maximal_2apex, is_maximal_planar,
                              is_planar, is_planar_wagner)
from maxnik.smallgraphs import enumerate_graphs, enumerate_triangulations

from conftest import (all_labeled_graphs, random_graph, reference_is_k_apex,
                      reference_is_planar)


class TestPlanar:
    def test_basics(self):
        assert is_planar(complete_graph(4))
        assert not is_planar(complete_graph(5))
        assert not is_planar(complete_multipartite(3, 3))
        assert is_planar(complete_graph(5).without_edge(0, 1))
        assert is_planar(cycle_graph(12))
        assert is_planar(disjoint_union(complete_graph(4), cycle_graph(5)))

    def test_subdivided_k5_still_nonplanar(self):
        # subdivide one edge of K5: replace (0,1) with a path through 5
        g = complete_graph(5).without_edge(0, 1)
        g = disjoint_union(g, complete_graph(1)).with_edge(0, 5).with_edge(1, 5)
        assert not is_planar(g)
        assert not is_planar_wagner(g)

    def test_wagner_agreement_exhaustive_order6(self):
        for g in all_labeled_graphs(6):
            assert is_planar(g) == is_planar_wagner(g)

    def test_wagner_agreement_classes_order7(self):
        for g in enumerate_graphs(7):
            assert is_planar(g) == is_planar_wagner(g)

    def test_wagner_agreement_random_larger(self):
        rng = random.Random(20)
        for _ in range(300):
            g = random_graph(rng, rng.choice([9, 10]), rng.choice([0.2, 0.4, 0.6]))
            assert is_planar(g) == is_planar_wagner(g)


class TestKApex:
    def test_k6_two_apex(self):
        res = is_k_apex(complete_graph(6), 2)
        assert res.found and res.witness == (0, 1)

    def test_k7_not_two_apex(self):
        assert not is_k_apex(complete_graph(7), 2).found

    def test_zero_apex_is_planarity(self):
        rng = random.Random(21)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 9), 0.5)
            assert is_k_apex(g, 0).found == is_planar(g)

    def test_monotone_in_k(self):
        rng = random.Random(22)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 9), 0.6)
            flags = [is_k_apex(g, k).found for k in (0, 1, 2)]
            assert flags == sorted(flags)

    def test_witness_lexicographically_first(self):
        g = join(complete_graph(2), cycle_graph(5))  # wheel-ish, 1-apex twice over
        res = is_k_apex(g, 2)
        assert res.found
        assert res.witness == (0, 1)


class TestMaximalPlanar:
    def test_octahedron(self):
        assert is_maximal_planar(complete_multipartite(2, 2, 2))

    def test_c6_not(self):
        assert not is_maximal_planar(cycle_graph(6))

    def test_k5_minus_edge(self):
        assert is_maximal_planar(complete_graph(5).without_edge(0, 1))

    def test_small_orders_require_complete(self):
        assert is_maximal_planar(complete_graph(1))
        assert is_maximal_planar(complete_graph(2))
        assert not is_maximal_planar(from_edges(2, []))

    def test_no_planar_edge_addition(self):
        # maximal means every single-edge extension is nonplanar
        for g in enumerate_triangulations(6):
            for u, v in g.non_edges():
                assert not is_planar(g.with_edge(u, v))


class TestMaximal2Apex:
    def test_k7_minus(self):
        assert is_maximal_2apex(complete_graph(7).without_edge(0, 1))

    def test_k7_not(self):
        assert not is_maximal_2apex(complete_graph(7))

    def test_small_orders(self):
        assert is_maximal_2apex(complete_graph(5))
        assert not is_maximal_2apex(complete_graph(5).without_edge(0, 1))

    def test_triangulation_joins(self):
        for n in (5, 6, 7, 8):
            for t in enumerate_triangulations(n):
                g = join(t, complete_graph(2))
                assert is_maximal_2apex(g)

    def test_edge_count_forced(self):
        for g in enumerate_graphs(7):
            if is_maximal_2apex(g):
                assert g.m == 5 * 7 - 15


def test_triangulation_counts():
    assert [len(enumerate_triangulations(n)) for n in range(3, 9)] == [1, 1, 1, 2, 5, 14]


def test_path_and_trees_planar():
    assert is_planar(path_graph(10))
    star = from_edges(8, [(0, i) for i in range(1, 8)])
    assert is_planar(star)


def _oracle_graph(rng: random.Random) -> Graph:
    """A seeded random graph of order 1-16 in one of four shapes, relabelled.

    The vertices are cut into consecutive parts, each a G(k, p): one part;
    disjoint parts; parts that share one vertex with the next (cut
    vertices); or one part beside components of at most four vertices.
    """
    n = rng.randint(1, 16)
    shape = rng.randrange(4)
    starts = [0, n if shape == 0 else rng.randint(1, n)]
    while starts[-1] < n:
        starts.append(min(n, starts[-1] + rng.randint(1, 4 if shape == 3 else n)))
    overlap = shape == 2
    parts = [range(a, min(b + overlap, n)) for a, b in zip(starts, starts[1:])]
    edges = set()
    for part in parts:
        p = rng.choice([0.2, 0.35, 0.5, 0.7, 0.9])
        edges.update((u, v) for u, v in combinations(part, 2) if rng.random() < p)
    perm = list(range(n))
    rng.shuffle(perm)
    return from_edges(n, sorted(edges)).relabel(perm)


class TestOracles:
    """The mask-based DMP core against the Graph-building copy it replaced."""

    def test_matches_reference_on_random_shapes(self):
        rng = random.Random(2101)
        disconnected = cut_vertex = small_component = 0
        for _ in range(2000):
            g = _oracle_graph(rng)
            comps = [c.bit_count() for c in g.components()]
            disconnected += len(comps) > 1
            small_component += len(comps) > 1 and min(comps) <= 4
            cut_vertex += len(comps) == 1 and g.n >= 3 and vertex_connectivity(g) == 1
            assert is_planar(g) == reference_is_planar(g), g
            for k in (0, 1, 2):
                assert is_k_apex(g, k) == reference_is_k_apex(g, k), (g, k)
        assert min(disconnected, cut_vertex, small_component) >= 200

    def test_matches_networkx_orders_9_to_12(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(2102)
        verdicts = set()
        for _ in range(600):
            n = rng.randint(9, 12)
            g = random_graph(rng, n, rng.choice([0.2, 0.3, 0.4, 0.5]))
            h = nx.Graph()
            h.add_nodes_from(range(n))
            h.add_edges_from(g.edges())
            planar = is_planar(g)
            assert planar == nx.check_planarity(h)[0], g
            verdicts.add(planar)
        assert verdicts == {True, False}
