"""Clique-sum constructions, family formulas, and the size planner."""

from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest

import maxnik
import maxnik.construct as construct_module
from maxnik.canon import are_isomorphic
from maxnik.catalog import named_graph
from maxnik.certify import (LEMMA_EDGE_SUM, LEMMA_EDGE_SUM_MAXNIK,
                            LEMMA_TRIANGLE_SUM, VERDICT_MAXNIK, VERDICT_NIK,
                            Certificate, certify_maxnik, certify_nik,
                            check_necessary, validate_certificate)
from maxnik.construct import (GluingSpec, _least_non_triangular_edge,
                              chain_graphs, clique_sum, npp5_family,
                              prime_family, size_construct,
                              subdivide_retriangulate)
from maxnik.errors import (PreconditionError, SizeOutOfRangeError,
                           UnrepresentableSizeError)
from maxnik.graphs import (clique_number, complete_graph,
                           complete_multipartite, non_triangular_edges)
from maxnik.planarity import is_maximal_2apex, is_maximal_planar
from maxnik.primality import is_prime
from maxnik.smallgraphs import enumerate_triangulations

from conftest import brute_connectivity, is_k_connected, random_graph


@pytest.fixture(scope="module")
def e9_pair():
    g = named_graph("E9").graph
    return g, certify_maxnik(g)


class TestCliqueSum:
    def test_two_e9_on_shared_edge(self, e9_pair):
        e9, cert = e9_pair
        edge = non_triangular_edges(e9)[0]
        g, out = clique_sum(GluingSpec(LEMMA_EDGE_SUM_MAXNIK,
                                       e9, edge, cert, e9, edge, cert))
        assert (g.n, g.m) == (16, 41)
        assert out.verdict == VERDICT_MAXNIK
        assert validate_certificate(out) == []

    def test_e9_triangle_sum_with_k4(self, lib, e9_pair):
        e9, cert = e9_pair
        tri = lib.triangle_disk_axioms[0].triangle_orbit[0]
        k4 = complete_graph(4)
        k4_cert = certify_maxnik(k4)
        g, out = clique_sum(GluingSpec(LEMMA_TRIANGLE_SUM,
                                       e9, tri, cert, k4, (0, 1, 2), k4_cert))
        assert (g.n, g.m) == (10, 24)
        assert out.verdict == VERDICT_MAXNIK
        assert validate_certificate(out) == []

    def test_triangle_sum_of_nik_operands_is_nik(self, lib):
        e9 = named_graph("E9").graph
        tri = lib.triangle_disk_axioms[0].triangle_orbit[0]
        k4 = complete_graph(4)
        e9_nik, k4_nik = certify_nik(e9), certify_nik(k4)
        assert (e9_nik.verdict, k4_nik.verdict) == (VERDICT_NIK, VERDICT_NIK)
        g, out = clique_sum(GluingSpec(LEMMA_TRIANGLE_SUM,
                                       e9, tri, e9_nik, k4, (0, 1, 2), k4_nik))
        assert (g.n, g.m) == (10, 24)
        assert (out.verdict, out.evidence["lemma"]) == (VERDICT_NIK, LEMMA_TRIANGLE_SUM)
        assert validate_certificate(out) == []
        forged = Certificate(VERDICT_MAXNIK, out.rule, out.evidence, out.children)
        assert validate_certificate(forged) != []

    def test_size_formula_every_gluing(self, e9_pair):
        e9, cert = e9_pair
        k3 = complete_graph(3)
        k3_cert = certify_maxnik(k3)
        for t, lemma, lc, rc in [
                (1, "NPP7-v", (0,), (0,)),
                (2, LEMMA_EDGE_SUM, non_triangular_edges(e9)[0], (0, 1)),
        ]:
            g, _ = clique_sum(GluingSpec(lemma, e9, lc, cert, k3, rc, k3_cert))
            assert g.m == e9.m + k3.m - t * (t - 1) // 2

    def test_vertex_sum_gives_nik_only(self, e9_pair):
        e9, cert = e9_pair
        g, out = clique_sum(GluingSpec("NPP7-v", e9, (0,), cert, e9, (0,), cert))
        assert out.verdict == VERDICT_NIK
        assert g.n == 17
        assert validate_certificate(out) == []

    def test_triangular_edge_on_both_sides_rejected(self):
        k4 = complete_graph(4)
        k4_cert = certify_maxnik(k4)
        with pytest.raises(PreconditionError):
            clique_sum(GluingSpec(LEMMA_EDGE_SUM_MAXNIK,
                                  k4, (0, 1), k4_cert, k4, (0, 1), k4_cert))

    def test_unregistered_triangle_rejected(self, lib, e9_pair):
        e9, cert = e9_pair
        k4 = complete_graph(4)
        k4_cert = certify_maxnik(k4)
        from maxnik.graphs import triangles
        designated = set(lib.triangle_disk_axioms[0].triangle_orbit)
        other = next(t for t in triangles(e9) if t not in designated)
        with pytest.raises(PreconditionError):
            clique_sum(GluingSpec(LEMMA_TRIANGLE_SUM,
                                  e9, other, cert, k4, (0, 1, 2), k4_cert))

    def test_non_clique_rejected(self, e9_pair):
        e9, cert = e9_pair
        u, v = e9.non_edges()[0]
        with pytest.raises(PreconditionError):
            clique_sum(GluingSpec(LEMMA_EDGE_SUM_MAXNIK,
                                  e9, (u, v), cert, e9, (u, v), cert))

    def test_uncertified_operand_rejected(self, e9_pair):
        e9, cert = e9_pair
        from maxnik.certify import certify_ik
        ik_cert = certify_ik(complete_graph(7))
        with pytest.raises(PreconditionError):
            clique_sum(GluingSpec(LEMMA_EDGE_SUM_MAXNIK,
                                  e9, non_triangular_edges(e9)[0], cert,
                                  complete_graph(7), (0, 1), ik_cert))


class TestChain:
    @pytest.mark.parametrize("i,size", [(1, 21), (2, 41), (3, 61)])
    def test_sizes(self, i, size):
        g, cert = chain_graphs(i)
        assert g.m == size
        assert cert.verdict == VERDICT_MAXNIK

    def test_keeps_six_non_triangular_edges(self):
        for i in (1, 2, 3):
            g, _ = chain_graphs(i)
            assert len(non_triangular_edges(g)) >= 6

    def test_each_chain_matches_the_loop_built_one_and_is_built_once(self):
        for i in range(1, 9):
            g, cert = chain_graphs(i)
            want_g, want_cert = reference_chain(i)
            assert g == want_g
            assert cert.dumps() == want_cert.dumps()
            assert chain_graphs(i) is chain_graphs(i)
        with pytest.raises(ValueError, match="order cap"):
            chain_graphs(9)  # 65 vertices


def reference_chain(i: int) -> tuple:
    """Oracle: i copies of E9 glued one after another in a loop, each on the
    chain's least non-triangular edge, with nothing reused between chains."""
    e9 = named_graph("E9").graph
    e9_cert = certify_maxnik(e9)
    g, cert = e9, e9_cert
    for _ in range(i - 1):
        g, cert = clique_sum(GluingSpec(
            LEMMA_EDGE_SUM_MAXNIK, g, non_triangular_edges(g)[0], cert,
            e9, non_triangular_edges(e9)[0], e9_cert))
    return g, cert


_COLD_PLANNER = """
from maxnik import canon
from maxnik.catalog import mmik_library
from maxnik.certify import validate_certificate
from maxnik.construct import size_construct
from maxnik.primality import decompose

mmik_library()  # built before the searches are counted
searched = []
real = canon._canonical_search

def counted(g):
    searched.append(g)
    return real(g)

canon._canonical_search = counted
for n in range(20, 61):
    if n != 22:
        g, cert = size_construct(n)[1:]
        assert validate_certificate(cert) == []
        decompose(g)
print(len(searched), len(set(searched)))
"""


class TestPlannerSearches:
    def test_sizes_20_to_60_search_two_new_graphs_once_each(self):
        # A fresh interpreter, so every cache starts empty. Before canon kept
        # its searches, 122 ran here on 4 graphs: K4, K7^- and two labellings
        # of E9. The library build has already searched K4 and one E9.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(maxnik.__file__))
        out = subprocess.run([sys.executable, "-c", _COLD_PLANNER], env=env,
                             capture_output=True, text=True, check=True, timeout=120)
        assert out.stdout.split() == ["2", "2"]


class TestLeastNonTriangularEdge:
    def test_first_of_the_full_list(self):
        rng = random.Random(3)
        graphs = [random_graph(rng, rng.randint(2, 14), rng.random()) for _ in range(300)]
        graphs += [chain_graphs(i)[0] for i in range(1, 7)]
        graphs += [npp5_family(k)[0] for k in range(1, 5)]
        graphs.append(named_graph("E9").graph)
        for g in graphs:
            edges = non_triangular_edges(g)
            if edges:
                assert _least_non_triangular_edge(g) == edges[0]
            else:
                with pytest.raises(PreconditionError, match="no non-triangular edge"):
                    _least_non_triangular_edge(g)


class TestNpp5:
    @pytest.mark.parametrize("k", [1, 2])
    def test_formulas(self, k):
        g, cert = npp5_family(k)
        assert (g.n, g.m) == (12 * k + 2, 30 * k + 1)
        assert 12 * g.m == 30 * (g.n - 2) + 12  # the printed identity, cleared
        assert cert.verdict == VERDICT_MAXNIK

    def test_degree_two_vertices_present(self):
        g, _ = npp5_family(1)
        assert min(g.degrees()) == 2

    def test_passes_necessary_conditions(self):
        g, _ = npp5_family(1)
        assert check_necessary(g).all_pass

    def test_order_cap(self):
        with pytest.raises(ValueError):
            npp5_family(6)


class TestSizeConstruct:
    def test_size20_is_k7_minus(self):
        plan, g, cert = size_construct(20)
        assert plan.special == "K7^-"
        assert are_isomorphic(g, named_graph("K7^-").graph)
        assert cert.verdict == VERDICT_MAXNIK

    def test_size24_is_the_ten_vertex_triangle_sum(self):
        plan, g, cert = size_construct(24)
        assert g.n == 10 and g.m == 24
        assert cert.verdict == VERDICT_MAXNIK

    def test_size22_unrepresentable(self):
        with pytest.raises(UnrepresentableSizeError):
            size_construct(22)

    def test_below_20_out_of_range(self):
        with pytest.raises(SizeOutOfRangeError):
            size_construct(19)

    def test_sizes_at_the_order_cap(self):
        for n in (179, 180):
            plan, g, cert = size_construct(n)
            assert (g.n, g.m) == (64, n)
            assert cert.verdict == VERDICT_MAXNIK
        for n in (178, 181):
            with pytest.raises(SizeOutOfRangeError, match="65 vertices"):
                size_construct(n)

    def test_size37_plan(self):
        plan, g, cert = size_construct(37)
        assert plan.base_chain == 1
        assert plan.addends == (14, 2)
        assert g.m == 37

    def test_plan_arithmetic_and_certificates(self):
        for n in (21, 23, 25, 30, 41, 42, 44, 61):
            plan, g, cert = size_construct(n)
            assert g.m == n
            assert cert.verdict == VERDICT_MAXNIK
            if plan.special is None:
                assert 21 + 20 * (plan.base_chain - 1) + sum(plan.addends) == n
                assert len(plan.addends) <= 6
            assert validate_certificate(cert) == []

    def test_editing_to_json_leaves_the_kept_certificates_unchanged(self):
        # size_construct returns certificates it keeps, so to_json copies every level
        before = [size_construct(n)[2].dumps() for n in (20, 41)]
        sum41 = size_construct(41)[2].to_json()
        sum41["evidence"]["lemma"] = "changed"
        sum41["evidence"]["parts"][0].append(99)
        sum41["children"][0]["evidence"]["orbit_representatives"][1][0] = 99
        k7_minus = size_construct(20)[2].to_json()
        k7_minus["evidence"]["graph"] = "changed"
        k7_minus["evidence"]["orbit_representatives"][0].clear()
        k7_minus["children"][0]["evidence"]["witness"].append(9)
        assert [size_construct(n)[2].dumps() for n in (20, 41)] == before

    def test_plan_json(self):
        plan, _, _ = size_construct(37)
        blob = plan.to_json()
        assert blob["addends"] == [14, 2]
        assert blob["base_chain"] == 1


class TestPrimeFamily:
    def test_order8_is_k8_minus_matching(self):
        g = prime_family(8)
        assert are_isomorphic(g, named_graph("K8-3K2").graph)

    def test_order9_size(self):
        g = prime_family(9)
        assert (g.n, g.m) == (9, 30)

    @pytest.mark.parametrize("order", [10, 12, 15, 25])
    def test_outputs_maximal_2apex(self, order):
        g = prime_family(order)
        assert g.m == 5 * order - 15
        assert is_maximal_2apex(g)

    def test_prime_outputs_are_prime(self):
        for order in (8, 9, 11):
            assert is_prime(prime_family(order)).prime

    def test_order64(self):
        g = prime_family(64)
        assert (g.n, g.m) == (64, 5 * 64 - 15)
        assert is_prime(g).prime
        assert is_maximal_2apex(g)

    def test_every_checked_triangulation_is_four_connected(self, monkeypatch):
        checked = []

        def recording_is_prime(t):
            checked.append(t)
            return is_prime(t)

        monkeypatch.setattr(construct_module, "is_prime", recording_is_prime)
        prime_family(18)
        assert [t.n for t in checked] == list(range(7, 17))
        for t in checked:
            assert is_prime(t).prime and brute_connectivity(t) >= 4


class TestTriangulationPrimality:
    """A triangulation is prime exactly when it is 4-connected (prime_family relies on it)."""

    def test_prime_iff_four_connected(self):
        triangulations = [t for order in (6, 7, 8) for t in enumerate_triangulations(order)]
        primes = [is_prime(t).prime for t in triangulations]
        assert len(triangulations) == 21 and 0 < sum(primes) < 21
        for t, prime in zip(triangulations, primes):
            assert prime == (brute_connectivity(t) >= 4), t
            if prime:
                assert clique_number(t) == 3


class TestSubdivide:
    def test_octahedron_split(self):
        t = subdivide_retriangulate(complete_multipartite(2, 2, 2), (0, 2))
        assert (t.n, t.m) == (7, 15)
        assert is_maximal_planar(t)
        assert clique_number(t) == 3
        assert is_k_connected(t, 4)

    def test_edge_in_many_triangles_rejected(self):
        with pytest.raises(ValueError):
            subdivide_retriangulate(complete_graph(5).without_edge(0, 1), (2, 3))

    def test_missing_edge_rejected(self):
        with pytest.raises(ValueError):
            subdivide_retriangulate(complete_multipartite(2, 2, 2), (0, 1))
