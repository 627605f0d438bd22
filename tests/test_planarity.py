"""Planarity and apex recognition, cross-validated against the minor oracle."""

from __future__ import annotations

import math
import random

import pytest

import maxnik.planarity as planarity_module
from maxnik import canon
from maxnik.construct import size_construct
from maxnik.graphs import (Graph, complete_graph, complete_multipartite, from_edges,
                           identified_union, join)
from maxnik.minors import DELTA_Y, Y_DELTA, closure
from maxnik.planarity import (is_k_apex, is_maximal_2apex, is_maximal_planar,
                              is_planar)
from maxnik.smallgraphs import enumerate_graphs, enumerate_triangulations

from conftest import (all_labeled_graphs, brute_connectivity, cycle_graph,
                      disjoint_union, is_planar_wagner, path_graph, random_graph,
                      reference_is_k_apex, reference_is_planar,
                      shaped_random_graph)


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


class TestEdgeCount:
    """``_planar_within`` counts a mask's edges once for its bound; DMP reuses
    that count for a block that is the whole mask and counts a smaller one."""

    @staticmethod
    def _count(monkeypatch) -> list:
        calls = []
        real = planarity_module._size_within

        def counted(rows, mask):
            calls.append(mask)
            return real(rows, mask)

        monkeypatch.setattr(planarity_module, "_size_within", counted)
        return calls

    def test_a_two_connected_graph_is_counted_once(self, monkeypatch):
        calls = self._count(monkeypatch)
        hosts = [cycle_graph(5), cycle_graph(12), complete_multipartite(3, 3),
                 complete_multipartite(2, 2, 2), complete_graph(5).without_edge(0, 1),
                 join(cycle_graph(7), complete_graph(1))]
        for g in hosts:
            assert brute_connectivity(g) >= 2 and g.m <= 3 * g.n - 6
            calls.clear()
            is_planar(g)
            assert calls == [(1 << g.n) - 1], g

    def test_a_proper_block_is_counted_again(self, monkeypatch):
        # two wheels W5 sharing their hub 0: each block is counted for DMP
        wheel = join(complete_graph(1), cycle_graph(5))
        g = identified_union(wheel, (0,), wheel, (0,))
        calls = self._count(monkeypatch)
        assert is_planar(g)
        assert sorted(calls) == sorted([(1 << 11) - 1, 0b111111, 0b11111000001])


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


class TestOracles:
    """The mask-based DMP core against the Graph-building copy it replaced."""

    def test_matches_reference_on_random_shapes(self):
        rng = random.Random(2101)
        disconnected = cut_vertex = small_component = 0
        for _ in range(2000):
            g = shaped_random_graph(rng)
            comps = [c.bit_count() for c in g.components()]
            disconnected += len(comps) > 1
            small_component += len(comps) > 1 and min(comps) <= 4
            cut_vertex += len(comps) == 1 and g.n >= 3 and brute_connectivity(g, 2) == 1
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


def _circulant(n: int, jumps: tuple[int, ...]) -> Graph:
    return from_edges(n, sorted({tuple(sorted((i, (i + j) % n)))
                                 for i in range(n) for j in jumps}))


def _symmetric_hosts() -> list[Graph]:
    """Hosts with large automorphism groups, each also randomly relabelled."""
    rng = random.Random(2107)
    hosts = [complete_graph(n) for n in range(5, 9)]
    hosts += [complete_multipartite(3, 3), complete_multipartite(3, 3, 1)]
    hosts += [join(cycle_graph(m), complete_graph(2)) for m in range(3, 10)]
    hosts += [_circulant(n, jumps) for n, jumps in (
        (8, (1, 2)), (9, (1, 3)), (10, (1, 2)), (10, (1, 4)), (11, (1, 2, 4)),
        (12, (1, 5)), (12, (1, 2, 3)), (13, (1, 5)))]
    # the Petersen family: K6 closed under both delta-wye moves
    hosts += closure([complete_graph(6)], {DELTA_Y, Y_DELTA}).members
    hosts += [size_construct(n)[1] for n in range(20, 41) if n != 22]
    relabelled = []
    for g in hosts:
        perm = list(range(g.n))
        rng.shuffle(perm)
        relabelled.append(g.relabel(perm))
    return hosts + relabelled


class TestOrbitPruning:
    """``is_k_apex`` skips subsets in the orbit of a failed one, same answers."""

    @staticmethod
    def _count_tests(monkeypatch) -> list:
        calls = []
        real = planarity_module._planar_within

        def counted(rows, keep):
            calls.append(keep)
            return real(rows, keep)

        monkeypatch.setattr(planarity_module, "_planar_within", counted)
        return calls

    def test_matches_reference_on_symmetric_hosts(self, monkeypatch):
        calls = self._count_tests(monkeypatch)
        pruned = 0
        for g in _symmetric_hosts():
            for k in range(4):
                calls.clear()
                got = is_k_apex(g, k)
                assert got == reference_is_k_apex(g, k), (g, k)
                subsets = math.comb(g.n, min(k, g.n - 1))
                assert len(calls) <= subsets
                pruned += not got.found and len(calls) < subsets
        assert pruned >= 20

    def test_negative_query_tests_one_subset_per_orbit_after_the_deferral(self, monkeypatch):
        # K8 minus 2 vertices is K6: every pair fails, and all 28 pairs form
        # one orbit, so nothing after the first 2n = 16 failures is tested
        calls = self._count_tests(monkeypatch)
        assert is_k_apex(complete_graph(8), 2) == (False, None)
        assert len(calls) == 16

    def test_wrong_generator_fails_loudly(self, monkeypatch):
        # K8 minus the edge 07 is not 2-apex; swapping 0 and 1 is no automorphism
        g = complete_graph(8).without_edge(0, 7)
        assert not is_k_apex(g, 2).found
        real = canon._canonical_search
        monkeypatch.setattr(canon, "_canonical_search",
                            lambda h: real(h)[:2] + ([(1, 0, 2, 3, 4, 5, 6, 7)],))
        canon._search.cache_clear()  # the walk above searched g already
        with pytest.raises(AssertionError,
                           match=r"generator \(1, 0, 2, 3, 4, 5, 6, 7\) is not an automorphism"):
            is_k_apex(g, 2)

    def test_positive_query_fetches_no_generators_before_the_deferral(self, monkeypatch):
        def no_search(h):
            raise AssertionError("no generators needed before 2n failures")

        monkeypatch.setattr(planarity_module, "automorphism_generators", no_search)
        assert is_k_apex(complete_graph(6), 2) == (True, (0, 1))
        # K2 joined with the octahedron, the K2 moved to {1, 2}: the seven
        # pairs with vertex 0 fail first
        g = join(complete_graph(2), complete_multipartite(2, 2, 2))
        assert is_k_apex(g.relabel([1, 2, 0, 3, 4, 5, 6, 7]), 2) == (True, (1, 2))


class TestWalkFromWhatASubgraphProved:
    """``is_k_apex`` skips the subsets before ``start`` untested, and asks
    ``doomed`` once, when n subsets have failed."""

    def test_start_skips_only_subsets_before_it(self, monkeypatch):
        calls = TestOrbitPruning._count_tests(monkeypatch)
        rng = random.Random(1601)
        started = 0
        for _ in range(60):
            host = random_graph(rng, rng.randint(7, 10), rng.choice((0.4, 0.5, 0.6)))
            first = is_k_apex(host, 2)
            if not first.found:
                continue
            for e in host.non_edges():
                added = host.with_edge(*e)
                calls.clear()
                assert is_k_apex(added, 2, first.witness) == reference_is_k_apex(added, 2)
                full = (1 << added.n) - 1
                tested = [tuple(v for v in range(added.n) if (full & ~keep) >> v & 1)
                          for keep in calls]
                assert all(pair >= first.witness for pair in tested)
                started += first.witness > (0, 1)
        assert started >= 150

    def test_doomed_is_asked_once_at_n_failures(self, monkeypatch):
        calls = TestOrbitPruning._count_tests(monkeypatch)
        asked = []

        def doomed(answer):
            def ask():
                asked.append(len(calls))
                return answer
            return ask

        # K8 minus any pair is K6: every pair fails
        assert is_k_apex(complete_graph(8), 2, doomed=doomed(True)) == (False, None)
        assert asked == [8] and len(calls) == 8
        calls.clear()
        asked.clear()
        assert is_k_apex(complete_graph(8), 2, doomed=doomed(False)) == (False, None)
        assert asked == [8] and len(calls) == 16
        # K6 has its witness at the first pair, before n failures
        asked.clear()
        assert is_k_apex(complete_graph(6), 2, doomed=doomed(True)) == (True, (0, 1))
        assert asked == []
