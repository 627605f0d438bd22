"""Elementary graph operations: spec'd examples plus structural invariants."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from maxnik import planarity
from maxnik.canon import are_isomorphic
from maxnik.graphs import (Graph, _bits, _blocks, complement, complete_graph,
                           complete_multipartite, from_edges, identified_union,
                           join, non_triangular_edges, triangles)

from conftest import (_reference_blocks, all_labeled_graphs, brute_connectivity,
                      contract_edge, cycle_graph, degree_stats, disjoint_union,
                      empty_graph, is_k_connected, path_graph,
                      reference_components, random_graph)


def assert_k_connected_matches_brute_force(g: Graph) -> None:
    kappa = brute_connectivity(g)
    for k in range(5):
        assert is_k_connected(g, k) == (g.n > k and kappa >= k), (g, k)


class TestComplement:
    def test_complete_to_edgeless(self):
        for n in (1, 4, 7):
            assert complement(complete_graph(n)) == empty_graph(n)

    def test_g929_order_and_size(self):
        g = complement(disjoint_union(disjoint_union(
            complete_graph(1), complete_graph(2)), cycle_graph(6)))
        assert (g.n, g.m) == (9, 29)

    def test_octahedron_join_complement(self):
        g = complement(join(complete_multipartite(2, 2, 2), complete_graph(2)))
        sizes = sorted(c.bit_count() for c in g.components())
        assert sizes == [1, 1, 2, 2, 2]
        assert g.m == 3

    def test_involution(self):
        rng = random.Random(5)
        for _ in range(50):
            g = random_graph(rng, rng.randint(1, 12), 0.4)
            assert complement(complement(g)) == g


class TestJoin:
    def test_k1_join_k1(self):
        assert join(complete_graph(1), complete_graph(1)) == complete_graph(2)

    def test_octahedron_star_k2(self):
        g = join(complete_multipartite(2, 2, 2), complete_graph(2))
        want = complement(from_edges(8, [(0, 1), (2, 3), (4, 5)]))
        assert are_isomorphic(g, want)

    def test_size_formula(self):
        rng = random.Random(6)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 8), 0.5)
            h = random_graph(rng, rng.randint(1, 8), 0.5)
            assert join(g, h).m == g.m + h.m + g.n * h.n


class TestContract:
    def test_triangle_to_edge(self):
        assert are_isomorphic(contract_edge(complete_graph(3), 0, 1), complete_graph(2))

    def test_k5_to_k4(self):
        assert contract_edge(complete_graph(5), 2, 4) == complete_graph(4)

    def test_c6_to_c5(self):
        assert are_isomorphic(contract_edge(cycle_graph(6), 0, 1), cycle_graph(5))

    def test_missing_edge_rejected(self):
        with pytest.raises(ValueError):
            contract_edge(cycle_graph(5), 0, 2)

    def test_order_drops_by_one(self):
        rng = random.Random(7)
        for _ in range(30):
            g = random_graph(rng, rng.randint(2, 10), 0.6)
            if not g.edges():
                continue
            u, v = g.edges()[0]
            assert contract_edge(g, u, v).n == g.n - 1


class TestDegreeStats:
    def test_k7_minus(self):
        stats = degree_stats(complete_graph(7).without_edge(0, 1))
        assert (stats.min_degree, stats.max_degree) == (5, 6)

    def test_k8_minus_matching(self):
        g = complement(from_edges(8, [(0, 1), (2, 3), (4, 5)]))
        stats = degree_stats(g)
        assert (stats.min_degree, stats.max_degree) == (6, 7)

    def test_degree_sum_is_twice_size(self):
        rng = random.Random(8)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 11), 0.5)
            assert sum(degree_stats(g).degree_sequence) == 2 * g.m


class TestConnectivity:
    def test_complete(self):
        for n in (2, 5, 9):
            assert_k_connected_matches_brute_force(complete_graph(n))

    def test_path3(self):
        assert_k_connected_matches_brute_force(path_graph(3))

    def test_disconnected(self):
        assert_k_connected_matches_brute_force(
            disjoint_union(complete_graph(2), complete_graph(3)))

    def test_octahedron(self):
        assert brute_connectivity(complete_multipartite(2, 2, 2)) == 4
        assert_k_connected_matches_brute_force(complete_multipartite(2, 2, 2))

    def test_against_brute_force(self):
        rng = random.Random(9)
        for _ in range(120):
            g = random_graph(rng, rng.randint(2, 9), rng.choice([0.3, 0.5, 0.8]))
            assert_k_connected_matches_brute_force(g)

    def test_at_most_min_degree(self):
        rng = random.Random(10)
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 10), 0.5)
            assert not is_k_connected(g, min(g.degrees()) + 1)


class TestNonTriangular:
    def test_complete_graphs_have_none(self):
        for n in (3, 5, 8):
            assert non_triangular_edges(complete_graph(n)) == ()

    def test_c5_all_edges(self):
        assert len(non_triangular_edges(cycle_graph(5))) == 5

    def test_matches_triangle_listing(self):
        rng = random.Random(11)
        for _ in range(40):
            g = random_graph(rng, rng.randint(3, 10), 0.5)
            in_triangle = set()
            for a, b, c in triangles(g):
                in_triangle |= {(a, b), (a, c), (b, c)}
            expect = tuple(e for e in g.edges() if e not in in_triangle)
            assert non_triangular_edges(g) == expect


class TestIdentifiedUnion:
    def test_two_k6_over_k5_is_k7_minus(self):
        got = identified_union(complete_graph(6), (0, 1, 2, 3, 4),
                               complete_graph(6), (0, 1, 2, 3, 4))
        assert are_isomorphic(got, complete_graph(7).without_edge(0, 1))

    def test_exhaustive_small_equality(self):
        # relabeling sanity: gluing over a single shared vertex is a 1-sum
        g = identified_union(cycle_graph(3), (0,), cycle_graph(3), (2,))
        assert (g.n, g.m) == (5, 6)
        assert sorted(g.degrees()) == [2, 2, 2, 2, 4]


def test_graph_validation_rejects_bad_rows():
    with pytest.raises(ValueError):
        Graph(2, [1, 0])  # asymmetric
    with pytest.raises(ValueError):
        Graph(2, [2, 1, 0])  # row count
    with pytest.raises(ValueError):
        Graph(1, [1])  # loop


def test_components_partition_vertices():
    rng = random.Random(12)
    graphs = list(all_labeled_graphs(4))
    graphs += [random_graph(rng, rng.randint(1, 16), rng.choice([0.1, 0.2, 0.4]))
               for _ in range(200)]
    for g in graphs:
        comps = g.components()
        whole = 0
        for c in comps:
            assert not whole & c
            whole |= c
        assert whole == (1 << g.n) - 1
        assert [set(_bits(c)) for c in comps] == reference_components(g)


def test_blocks_match_the_reference():
    # one lowpoint DFS in the package: planarity reads its blocks from graphs
    assert planarity._blocks is _blocks
    rng = random.Random(23)
    graphs = list(all_labeled_graphs(4))
    graphs += [random_graph(rng, rng.randint(1, 16), rng.choice([0.1, 0.2, 0.4]))
               for _ in range(300)]
    for g in graphs:
        blocks = _blocks(g.rows, (1 << g.n) - 1)
        assert [list(_bits(b)) for b in blocks] == _reference_blocks(g), g


def test_public_constructors_validate_beside_the_trusted_one():
    # Graph._trusted skips the checks; Graph(...) and relabel keep them
    for n, rows in ((3, [2, 0, 0]),    # asymmetric
                    (2, [1, 2]),       # loop at vertex 0
                    (2, [4, 0]),       # bit outside 0..1
                    (3, [6, 5, 3, 0])):  # row count
        with pytest.raises(ValueError):
            Graph(n, rows)
    with pytest.raises(ValueError):
        path_graph(2).relabel([0, 0])  # not a permutation: a loop
    g = random_graph(random.Random(6), 9, 0.5)
    assert Graph._trusted(g.n, g.rows) == g
    assert hash(Graph._trusted(g.n, g.rows)) == hash(g)
