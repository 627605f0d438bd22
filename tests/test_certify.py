"""Certificates: verdicts, evidence re-validation, and consistency sweeps."""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from itertools import combinations

import pytest

import maxnik.canon as canon_module
import maxnik.certify as certify_module
import maxnik.planarity as planarity_module
from maxnik.canon import automorphism_generators, orbits
from maxnik.catalog import ObstructionLibrary, mmik_library, named_graph
from maxnik.certify import (VERDICT_IK, VERDICT_MAXNIK, VERDICT_NIK,
                            VERDICT_NOT_MAXNIK, VERDICT_UNKNOWN, Certificate,
                            certify_ik, certify_maxnik, certify_nik,
                            check_necessary, relabel_certificate,
                            validate_certificate)
from maxnik.construct import prime_family, size_construct
from maxnik.errors import ParseError
from maxnik.graphs import (complete_graph, complete_multipartite, from_edges,
                           graph6_decode, graph6_encode, identified_union)
from maxnik.planarity import is_k_apex
from maxnik.primality import _splits
from maxnik.smallgraphs import enumerate_graphs

from conftest import (all_labeled_graphs, brute_connectivity, cycle_graph,
                      is_planar_wagner, path_graph, random_graph,
                      reference_cycle_rank, reference_is_k_apex,
                      shaped_random_graph)


class TestCertifyIK:
    def test_k7_via_minor_witness(self):
        cert = certify_ik(complete_graph(7))
        assert cert.verdict == VERDICT_IK
        assert cert.rule == "minor-of"
        assert cert.evidence["pattern"] == "K7"
        assert validate_certificate(cert) == []

    def test_e9_plus_e_pattern_hit(self):
        g = named_graph("E9+e").graph
        cert = certify_ik(g)
        assert cert.verdict == VERDICT_IK
        assert cert.evidence["pattern"] == "E9+e"

    def test_c5_unknown(self):
        assert certify_ik(cycle_graph(5)).verdict == VERDICT_UNKNOWN

    def test_dense_graph_size_bound_never_needed_alone(self):
        """Mader's bound as an oracle: from order 7 on, 5n - 14 edges force a
        K7 minor, so every such host has a library minor.

        The hosts are K8, then 20 seeded graphs of each order 7..12 with
        5n - 14 to 5n - 12 edges (or all edges, when there are fewer).
        """
        rng = random.Random(5014)
        hosts = [complete_graph(8)]
        for n in range(7, 13):
            pairs = list(combinations(range(n), 2))
            for _ in range(20):
                m = min(5 * n - 14 + rng.randrange(3), len(pairs))
                hosts.append(from_edges(n, rng.sample(pairs, m)))
        for g in hosts:
            cert = certify_ik(g)
            assert (cert.verdict, cert.rule) == (VERDICT_IK, "minor-of"), graph6_encode(g)
            assert validate_certificate(cert) == []


class TestCertifyNIK:
    def test_k6_apex_pair(self):
        cert = certify_nik(complete_graph(6))
        assert cert.verdict == VERDICT_NIK
        assert cert.rule == "apex-pair"
        assert validate_certificate(cert) == []

    def test_e9_axiom(self):
        cert = certify_nik(named_graph("E9").graph)
        assert (cert.verdict, cert.rule) == (VERDICT_NIK, "axiom")
        assert cert.evidence["name"] == "E9"

    def test_g929_axiom(self):
        cert = certify_nik(named_graph("G9,29").graph)
        assert (cert.verdict, cert.rule) == (VERDICT_NIK, "axiom")

    def test_order8_not_2apex_returns_ik(self):
        # certify_nik finds no nIK evidence; the IK verdict comes from a minor
        nik = certify_nik(complete_graph(8))
        assert (nik.verdict, nik.rule) == (VERDICT_UNKNOWN, "no-nik-evidence")
        cert = certify_maxnik(complete_graph(8))
        assert (cert.verdict, cert.rule) == (VERDICT_NOT_MAXNIK, "is-ik")
        assert [c.rule for c in cert.children] == ["minor-of"]
        assert validate_certificate(nik) == validate_certificate(cert) == []

    def test_never_claims_both_ways_small_orders(self):
        for n in (5, 6):
            for g in enumerate_graphs(n):
                ik = certify_ik(g).verdict
                nik = certify_nik(g).verdict
                assert not (ik == VERDICT_IK and nik == VERDICT_NIK)

    def test_consistency_order7_exhaustive(self):
        for g in enumerate_graphs(7):
            ik = certify_ik(g).verdict
            nik = certify_nik(g).verdict
            assert not (ik == VERDICT_IK and nik == VERDICT_NIK)

    def test_consistency_order8_exhaustive(self):
        for g in enumerate_graphs(8):
            ik = certify_ik(g).verdict
            nik = certify_nik(g).verdict
            assert not (ik == VERDICT_IK and nik == VERDICT_NIK)


class TestCertifyMaxnik:
    def test_k7_minus(self):
        cert = certify_maxnik(named_graph("K7^-").graph)
        assert cert.verdict == VERDICT_MAXNIK
        assert cert.rule == "per-non-edge"
        assert validate_certificate(cert) == []

    def test_e9_cites_both_routes(self):
        cert = certify_maxnik(named_graph("E9").graph)
        assert cert.verdict == VERDICT_MAXNIK
        cited = {c.evidence.get("pattern") for c in cert.children
                 if c.verdict == VERDICT_IK}
        assert cited == {"F9", "E9+e"}
        assert validate_certificate(cert) == []

    def test_g929_adds_k7_minors(self):
        cert = certify_maxnik(named_graph("G9,29").graph)
        assert cert.verdict == VERDICT_MAXNIK
        cited = [c.evidence.get("pattern") for c in cert.children
                 if c.verdict == VERDICT_IK]
        assert cited == ["K7", "K7"]

    def test_k3_vacuous(self):
        cert = certify_maxnik(complete_graph(3))
        assert (cert.verdict, cert.rule) == (VERDICT_MAXNIK, "complete-nik")

    def test_k7_not_maxnik(self):
        cert = certify_maxnik(complete_graph(7))
        assert cert.verdict == VERDICT_NOT_MAXNIK
        assert cert.rule == "is-ik"

    def test_c7_not_maxnik(self):
        cert = certify_maxnik(cycle_graph(7))
        assert cert.verdict == VERDICT_NOT_MAXNIK
        assert cert.rule == "augmentation-nik"
        assert validate_certificate(cert) == []

    def test_definite_verdicts_small_orders(self):
        for n in (4, 5, 6):
            for g in enumerate_graphs(n):
                assert certify_maxnik(g).verdict != VERDICT_UNKNOWN

    def test_definite_verdicts_sampled_orders_7_8(self):
        rng = random.Random(51)
        for n in (7, 8):
            for g in rng.sample(enumerate_graphs(n), 120):
                assert certify_maxnik(g).verdict != VERDICT_UNKNOWN

    def test_maxnik_implies_necessary_conditions(self):
        for name in ("K7^-", "K8-3K2", "K8-P3", "E9", "G9,29", "Pentagon-bar"):
            g = named_graph(name).graph
            assert certify_maxnik(g).verdict == VERDICT_MAXNIK
            assert check_necessary(g).all_pass


class TestOrbitReductionSoundness:
    def test_full_non_edge_sweep_matches_orbit_sweep(self):
        for name in ("E9", "G9,29"):
            g = named_graph(name).graph
            per_orbit = {}
            for orbit in orbits(g, "non-edge").orbits:
                u, v = orbit[0]
                per_orbit[orbit] = certify_ik(g.with_edge(u, v)).verdict
                for u2, v2 in orbit[1:]:
                    assert certify_ik(g.with_edge(u2, v2)).verdict == per_orbit[orbit]
            assert set(per_orbit.values()) == {VERDICT_IK}

    def test_validator_reports_a_wrong_generator(self, monkeypatch):
        g = named_graph("K8-3K2").graph
        cert = certify_maxnik(g)
        assert cert.rule == "per-non-edge" and validate_certificate(cert) == []
        deg = g.degrees()
        v = next(w for w in range(g.n) if deg[w] != deg[0])
        bad = list(range(g.n))
        bad[0], bad[v] = v, 0  # swaps vertices of different degrees
        real = canon_module._canonical_search

        def corrupted(h):
            form, lab, autos = real(h)
            return form, lab, autos + [tuple(bad)]

        monkeypatch.setattr(canon_module, "_canonical_search", corrupted)
        canon_module._search.cache_clear()  # the certifier searched g already
        certify_module._replayed.cache_clear()  # and the validator replayed it
        assert validate_certificate(cert) == [
            f"root: generator {tuple(bad)} is not an automorphism"]


# Forty G(n, p) hosts of order 9 and 10 (p from 0.4 to 0.7), one fixed draw.
GOLDEN_HOSTS = (
    "HMS|Kkv", "H_hWr?E", "I~L[}JP]g", "H}Ducog", "I?MA|rcEG",
    "HY]Nan^", "HvFbm|Z", "IwPgoF\\R?", "IpNezuHTg", "H}q^BpO",
    "IZiu\\zv}w", "IIixEk~{W", "IBYpEIlVo", "Hd\\vJVV", "IjjnH^Uzo",
    "IfByZ]zMo", "ItZyYNZZo", "Hz~j{Vl", "IfPWt~DC_", "I|n{}^^zw",
    "HuuvV}l", "Isw~rHezg", "IEVzpl\\m?", "H]WH`N[", "HVCz|}M",
    "I~v|NVm~g", "IEWI\\lFtG", "IHOKuQoUW", "HEu\\uqj", "HzXP~V{",
    "IhPlhmPxO", "I|~byqi~w", "Hrvmpew", "Hq|}iXm", "H}JOhrc",
    "Iq]lj`]T?", "HfI}Z~p", "IDd~vo_^o", "I}]zz{nng", "IjQ^l\\Z|W",
)
# sha256 of the concatenated certificate JSON, measured before the apex-pair
# gate and the twin-ordered minor search were added
GOLDEN_DIGEST = "04b3e67f257201474e5261f4860b6a5420883536fd643813756f5bd7f1d157f1"


class TestPerNonEdgeGolden:
    def test_random_host_certificates_unchanged(self):
        blob = "".join(certify_maxnik(graph6_decode(h)).dumps() for h in GOLDEN_HOSTS)
        assert hashlib.sha256(blob.encode()).hexdigest() == GOLDEN_DIGEST

    @staticmethod
    def _gated(monkeypatch, g):
        """certify_maxnik with the IK search disabled, counting its own planarity tests."""
        is_planar = certify_module.is_planar
        calls = []

        def counted_is_planar(h):
            calls.append(h)
            return is_planar(h)

        def no_ik_search(*_args):
            raise AssertionError("the apex-pair gate should settle this edge")

        monkeypatch.setattr(certify_module, "is_planar", counted_is_planar)
        monkeypatch.setattr(certify_module, "certify_ik", no_ik_search)
        return certify_maxnik(g), len(calls)

    @staticmethod
    def _old_path(g, edge):
        """The certificate the IK-first loop builds when the edge's addition is nIK."""
        added = g.with_edge(*edge)
        assert certify_ik(added).verdict != VERDICT_IK
        return Certificate(VERDICT_NOT_MAXNIK, "augmentation-nik",
                           {"graph": graph6_encode(g), "edge": list(edge)},
                           (certify_nik(g), certify_nik(added)))

    def test_gate_through_planarity(self, monkeypatch):
        # K2 joined with a 5-cycle: every non-edge is a chord, away from {0, 1}
        g = from_edges(7, [(0, 1)] + [(a, b) for a in (0, 1) for b in range(2, 7)]
                       + [(2, 3), (3, 4), (4, 5), (5, 6), (2, 6)])
        expected = self._old_path(g, (2, 4))
        cert, planarity_tests = self._gated(monkeypatch, g)
        assert cert.children[0].evidence["witness"] == [0, 1]
        assert cert == expected
        assert planarity_tests == 0  # the 2-apex walk alone settles the edge
        assert validate_certificate(cert) == []

    def test_least_non_edge_gate_runs_before_orbits_and_cutsets(self, monkeypatch):
        def not_reached(*_args, **_kwargs):
            raise AssertionError("the least non-edge should settle this graph")

        # the least non-edge touches the apex pair in one host and avoids it in the other
        wheel_pair = from_edges(7, [(0, 1)] + [(a, b) for a in (0, 1) for b in range(2, 7)]
                                + [(2, 3), (3, 4), (4, 5), (5, 6), (2, 6)])
        hosts = [cycle_graph(7), wheel_pair]
        expected = [certify_maxnik(g) for g in hosts]
        monkeypatch.setattr(certify_module, "orbits", not_reached)
        monkeypatch.setattr(certify_module, "_certify_by_cutsets", not_reached)
        for g, want in zip(hosts, expected):
            cert = certify_maxnik(g)
            assert cert == want
            assert cert.evidence["edge"] == list(g.non_edges()[0])

    def test_gate_through_apex_endpoint(self, monkeypatch):
        g = cycle_graph(7)
        expected = self._old_path(g, (0, 2))
        cert, planarity_tests = self._gated(monkeypatch, g)
        assert cert.children[0].evidence["witness"] == [0, 1]
        assert cert == expected
        assert planarity_tests == 0
        assert validate_certificate(cert) == []


class TestSmallOrderSizeBound:
    """5n-14 edges force a K7 minor only from order 7 on (Mader)."""

    def test_no_size_bound_below_order_7(self):
        for n in (1, 2, 3, 4):
            assert certify_ik(complete_graph(n)).verdict == VERDICT_UNKNOWN

    def test_validator_rejects_small_size_bound(self):
        # neither quoted small-order fact is a rule: a node citing one is unknown
        for name in ("size-bound", "not-2apex-small-order"):
            forged = Certificate(VERDICT_IK, name,
                                 {"graph": "C~", "n": 4, "m": 6, "threshold": 6})
            assert validate_certificate(forged) == [f"root: unknown rule '{name}'"]

    def test_only_complete_graphs_are_maxnik_below_order_5(self):
        for n in (1, 2, 3, 4):
            for g in enumerate_graphs(n):
                cert = certify_maxnik(g)
                want = VERDICT_MAXNIK if g.is_complete() else VERDICT_NOT_MAXNIK
                assert cert.verdict == want
                assert validate_certificate(cert) == []


class TestNecessary:
    def test_k33_fails_degree3_rule(self):
        rep = check_necessary(complete_multipartite(3, 3))
        assert rep.verdict == VERDICT_NOT_MAXNIK
        assert "degree-three-neighbors-adjacent" in rep.failures()

    def test_c7_fails_max_degree_two_rule(self):
        rep = check_necessary(cycle_graph(7))
        assert "max-degree-two-only-triangle" in rep.failures()

    def test_k3_passes(self):
        assert check_necessary(complete_graph(3)).all_pass

    def test_cube_fails_3regular_rule(self):
        from maxnik.graphs import from_edges
        cube = from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 0),
                              (4, 5), (5, 6), (6, 7), (7, 4),
                              (0, 4), (1, 5), (2, 6), (3, 7)])
        rep = check_necessary(cube)
        assert "max-degree-three-only-K4" in rep.failures()

    def test_path_fails_connectivity(self):
        rep = check_necessary(path_graph(5))
        assert "two-connected" in rep.failures()

    def test_k7_minus_passes_all(self):
        assert check_necessary(named_graph("K7^-").graph).all_pass

    def test_two_connected_matches_vertex_connectivity(self):
        # on every labelled graph of order 1-5, then on seeded random ones
        rng = random.Random(2108)
        verdicts = {}
        small = [g for n in range(1, 6) for g in all_labeled_graphs(n)]
        for g in small + [shaped_random_graph(rng) for _ in range(1500)]:
            check = check_necessary(g).checks[0]
            assert (check.name, check.applicable, check.detail) == (
                "two-connected", g.n >= 2, "connected with no cut vertex")
            if g.n >= 2:
                want = g.is_connected() and (g.n == 2 or brute_connectivity(g, 2) >= 2)
                assert check.ok == want, g
                shape = ("disconnected" if not g.is_connected() else
                         "2-connected" if want else "cut vertex")
                verdicts[shape] = verdicts.get(shape, 0) + 1
        assert min(verdicts.get(s, 0) for s in ("disconnected", "cut vertex",
                                                "2-connected")) >= 100


class TestCertificateMechanics:
    def test_json_round_trip(self):
        cert = certify_maxnik(named_graph("E9").graph)
        blob = cert.dumps()
        back = Certificate.from_json(json.loads(blob))
        assert back == cert
        assert back.dumps() == blob

    def test_editing_the_json_after_from_json_leaves_the_certificate_valid(self):
        data = certify_maxnik(complete_graph(5)).to_json()
        cert = Certificate.from_json(data)
        data["children"][0]["evidence"]["witness"] = [0, 1, 2]
        assert validate_certificate(cert) == []

    def test_relabeling_preserves_validity(self):
        rng = random.Random(52)
        for name in ("E9", "K7^-", "G9,29"):
            g = named_graph(name).graph
            cert = certify_maxnik(g)
            perm = list(range(g.n))
            rng.shuffle(perm)
            moved = relabel_certificate(cert, tuple(perm))
            assert moved.graph == g.relabel(perm)
            assert validate_certificate(moved) == []

    def test_validator_catches_tampering(self):
        cert = certify_nik(complete_graph(6))
        bad = Certificate(cert.verdict, cert.rule,
                          {**cert.evidence, "witness": [0]}, cert.children)
        assert validate_certificate(bad) != []

    def test_validator_catches_wrong_pattern(self):
        cert = certify_ik(complete_graph(7))
        bad = Certificate(cert.verdict, cert.rule,
                          {**cert.evidence, "pattern": "F9"}, cert.children)
        assert validate_certificate(bad) != []


# sha256 of certify_maxnik(g).dumps(), joined, over size_construct(n) for
# n = 23..52, each relabelled by the next shuffle of one Random(2021); measured
# while every piece's nIK certificate was still recomputed wherever it recurred
COMPOSITE_DIGEST = "e7420ab4dd15d342f2a33510f2446edee61a41b8a49228ecac185bb394170ec3"


# sha256 of certify_maxnik(g).dumps(), joined, over every class of order
# 1..8 from enumerate_graphs; measured once the quoted small-order rules were
# deleted, so each IK child in them is a library minor
ORDER8_DIGEST = "22c20ccd6b5c803ddee1786b8ef237b51766a1f5e0f1ded5c46f14b2e5c92a5e"


def test_every_class_of_order_at_most_8_certifies_unchanged():
    """The certificates through order 8, and the quoted fact "knotless graphs
    of order at most 8 are 2-apex" checked class by class: each class that
    is not 2-apex certifies IK through a library minor."""
    blob, not_two_apex = [], Counter()
    for n in range(1, 9):
        for g in enumerate_graphs(n):
            cert = certify_maxnik(g)
            blob.append(cert.dumps())
            if not is_k_apex(g, 2).found:
                assert (cert.rule, [c.rule for c in cert.children]) == ("is-ik", ["minor-of"])
                assert validate_certificate(cert) == []
                not_two_apex[n] += 1
    assert not_two_apex == {7: 1, 8: 23}
    assert hashlib.sha256("".join(blob).encode()).hexdigest() == ORDER8_DIGEST


class TestOneNikCertificatePerCall:
    def test_relabelled_composites_unchanged(self):
        blob = "".join(certify_maxnik(g).dumps() for g in _relabelled_composites(2021))
        assert hashlib.sha256(blob.encode()).hexdigest() == COMPOSITE_DIGEST

    @staticmethod
    def _count_apex_searches(monkeypatch) -> list:
        searched = []
        real = certify_module.is_k_apex

        def counted(g, k, start=(), doomed=None):
            searched.append(g)
            return real(g, k, start, doomed)

        monkeypatch.setattr(certify_module, "is_k_apex", counted)
        return searched

    def test_one_apex_search_per_graph(self, monkeypatch):
        g = size_construct(40)[1]  # edge sums over five pieces
        searched = self._count_apex_searches(monkeypatch)
        first = certify_maxnik(g)
        assert first.verdict == VERDICT_MAXNIK
        # the sum, an (11, 26) piece, K6 and K4; the E9 piece, a knotless axiom,
        # was a fifth walk before the axiom gate
        assert len(searched) == len(set(searched)) == 4
        per_call = len(searched)
        # a second call shares nothing with the first: it searches again
        assert certify_maxnik(g) == first
        assert len(searched) == 2 * per_call
        assert searched[:per_call] == searched[per_call:]

    def test_certify_nik_searches_each_piece_once(self, monkeypatch):
        g = size_construct(90)[1]
        searched = self._count_apex_searches(monkeypatch)
        assert certify_nik(g).verdict == VERDICT_NIK
        assert len(searched) == len(set(searched)) >= 2


class TestOneGeneratorSearchPerCall:
    def test_is_k_apex_and_orbits_share_one_search(self, monkeypatch):
        # A host that is not 2-apex has its generators fetched by its 2-apex walk,
        # then orbits(g, "non-edge") needs them again. Without any memo 143
        # generator searches ran here, and 103 with a per-call memo while every
        # sum's walk ran to its 2n failures; then 40 generator and 107 other
        # searches, before canon kept one search per labelled graph.
        graphs = [size_construct(n)[1] for n in range(23, 53)]
        searched = []
        real = canon_module._canonical_search

        def counted(g):
            searched.append(g)
            return real(g)

        monkeypatch.setattr(canon_module, "_canonical_search", counted)
        canon_module._search.cache_clear()  # count from a cold cache
        blob = "".join(certify_maxnik(g).dumps() for g in graphs)
        # digest measured before any memo
        assert hashlib.sha256(blob.encode()).hexdigest() == (
            "c94c23810716fc654ab0477c1bcf6838f6336471d0bc7f0c4816177c75a79f75")
        # two labellings of E9 and one K4: every other graph is settled
        # without its generators, and E9's axiom lookup and orbits share one
        assert [(g.n, g.m) for g in searched] == [(9, 21), (4, 6), (9, 21)]
        assert len(set(searched)) == 3
        # the certifier never needed graphs[0]'s generators: the first request
        # searches it, and a second request is a cache hit
        automorphism_generators(graphs[0])
        automorphism_generators(graphs[0])
        assert searched[3:] == [graphs[0]]


class TestValidatorDecodesOnce:
    def test_each_graph6_string_decoded_once(self, monkeypatch):
        cert = size_construct(100)[2]
        decoded = []
        real = certify_module.graph6_decode

        def counted(text):
            decoded.append(text)
            return real(text)

        monkeypatch.setattr(certify_module, "graph6_decode", counted)
        assert validate_certificate(cert) == []
        assert len(decoded) == len(set(decoded)) > 1

    def test_orbits_and_axiom_looked_up_once_per_graph(self, monkeypatch):
        # size 150 repeats two leaf graphs: 7 orbit and 7 axiom lookups before
        cert = size_construct(150)[2]
        looked_up = {"orbits": [], "axiom_for": []}
        real_orbits = certify_module.orbits
        real_axiom_for = ObstructionLibrary.axiom_for

        def counted_orbits(g, kind):
            looked_up["orbits"].append(graph6_encode(g))
            return real_orbits(g, kind)

        def counted_axiom_for(self, g):
            looked_up["axiom_for"].append(graph6_encode(g))
            return real_axiom_for(self, g)

        monkeypatch.setattr(certify_module, "orbits", counted_orbits)
        monkeypatch.setattr(ObstructionLibrary, "axiom_for", counted_axiom_for)
        assert validate_certificate(cert) == []
        for seen in looked_up.values():
            assert len(seen) == len(set(seen)) >= 2
        # the replays are kept for the process: a second validation looks up nothing
        before = {what: len(seen) for what, seen in looked_up.items()}
        assert validate_certificate(cert) == []
        assert {what: len(seen) for what, seen in looked_up.items()} == before


class _Int(int):
    """Equal to the int it holds, but not of type ``int``."""


def _walk(cert, path="root"):
    yield path, cert
    for i, child in enumerate(cert.children):
        yield from _walk(child, f"{path}.{i}")


class TestReplayCache:
    def test_both_caches_are_bounded(self):
        for cache in (certify_module._decoded, certify_module._replayed):
            maxsize = cache.cache_info().maxsize
            assert isinstance(maxsize, int) and maxsize > 0

    def test_a_bad_graph6_string_raises_on_every_call(self):
        bad = Certificate(VERDICT_NIK, "axiom", {"graph": "A~"})
        for _ in range(2):
            with pytest.raises(ParseError):
                bad.graph
        assert certify_module._decoded.cache_info().currsize == 0

    def test_certificate_graph_reads_the_decode_cache(self, monkeypatch):
        cert = certify_maxnik(named_graph("E9").graph)
        decoded = []
        real = certify_module.graph6_decode
        monkeypatch.setattr(certify_module, "graph6_decode",
                            lambda text: decoded.append(text) or real(text))
        assert cert.graph is cert.graph == named_graph("E9").graph
        assert validate_certificate(cert) == []
        assert decoded[0] == cert.evidence["graph"] and len(decoded) == len(set(decoded))

    def test_edited_certificates_still_report_their_problems(self):
        cert = size_construct(41)[2]
        assert validate_certificate(cert) == []  # every node's replay is now kept
        nodes = dict(_walk(cert))
        assert (nodes["root"].rule, nodes["root.0"].rule, nodes["root.0.1"].rule) == (
            "construction", "per-non-edge", "minor-of")

        def edited(path: str, field: str, value) -> Certificate:
            data = cert.to_json()
            node = data
            for i in path.split(".")[1:]:
                node = node["children"][int(i)]
            node["evidence"][field] = value
            return Certificate.from_json(data)

        sets = [list(b) for b in nodes["root.0.1"].evidence["branch_sets"]]
        sets[1] = sorted(sets[1] + sets[0])  # branch set 0's one vertex moves to set 1
        sets[0] = []
        moved = edited("root.0.1", "branch_sets", sets)
        parts = nodes["root"].evidence["parts"]
        dropped = edited("root", "parts", parts[:1])
        e9 = nodes["root.0"].graph
        reps = [tuple(r) for r in nodes["root.0"].evidence["orbit_representatives"]]
        orbit = next(o for o in orbits(e9, "non-edge").orbits if reps[0] in o)
        assert reps[1] not in orbit
        swapped = edited("root.0", "orbit_representatives",
                         [list(reps[0]), list(next(e for e in orbit if e != reps[0]))])
        for bad, want in (
                (moved, "root.0.1: minor witness fails re-validation"),
                (dropped, "root: parts are not the cutset plus disjoint bodies covering the graph"),
                (swapped, "root.0: orbit representatives do not cover every non-edge orbit")):
            assert validate_certificate(bad) == [want]
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(certify_module, "_replayed", certify_module._replayed.__wrapped__)
                assert validate_certificate(bad) == [want]

    def test_a_vertex_field_read_once_is_replayed_uncached(self):
        # an iterator passes the vertex check and is empty when the replay reads it
        cert = size_construct(41)[2]
        assert validate_certificate(cert) == []
        parts = iter(cert.evidence["parts"])
        once = Certificate(cert.verdict, cert.rule, {**cert.evidence, "parts": parts}, cert.children)
        assert validate_certificate(once) == [
            "root: parts are not the cutset plus disjoint bodies covering the graph"]

    @pytest.mark.parametrize("twin", [True, 1.0, _Int(1)], ids=["True", "1.0", "int-subclass"])
    def test_a_look_alike_vertex_is_not_answered_from_the_cache(self, monkeypatch, twin):
        g = complete_graph(5)
        cert = certify_nik(g)
        assert cert.rule == "apex-pair" and cert.evidence["witness"] == [0, 1]
        assert validate_certificate(cert) == []
        asked = []
        real = certify_module._replayed
        monkeypatch.setattr(certify_module, "_replayed", lambda key: asked.append(key) or real(key))
        assert validate_certificate(cert) == [] and len(asked) == 1
        changed = Certificate(cert.verdict, cert.rule, {**cert.evidence, "witness": [0, twin]})
        assert validate_certificate(changed) == [
            "root: evidence 'witness' is missing or not a vertex set in range(5)"]
        assert len(asked) == 1


def _order_7_to_10_hosts(seed: int, count: int) -> list:
    """``count`` seeded G(n, p) hosts, n from 7 to 10 and p from 0.4 to 0.7."""
    rng = random.Random(seed)
    return [random_graph(rng, rng.randint(7, 10), rng.choice((0.4, 0.5, 0.6, 0.7)))
            for _ in range(count)]


class TestTwoApexAdditionsFirst:
    """``certify_maxnik`` asks a 2-apex host's additions for a 2-apex pair
    before any IK search; these are the facts that order rests on."""

    def test_two_apex_additions_have_no_ik_evidence(self):
        hosts = [graph6_decode(h) for h in GOLDEN_HOSTS] + _order_7_to_10_hosts(1313, 24)
        walked = mader = 0
        for g in hosts:
            for e in g.non_edges():
                added = g.with_edge(*e)
                walk = is_k_apex(added, 2)
                if added.n >= 7 and added.m >= 5 * added.n - 14:
                    mader += 1
                    assert not walk.found, (graph6_encode(g), e)
                    assert certify_ik(added).verdict == VERDICT_IK, (graph6_encode(g), e)
                if walk.found:
                    walked += 1
                    assert is_planar_wagner(added.delete_vertices(walk.witness))
                    assert certify_ik(added).verdict != VERDICT_IK, (graph6_encode(g), e)
        assert walked > 500 and mader > 20

    def test_gate_walk_spares_the_ik_search(self, monkeypatch):
        # each host is 2-apex through one pair, its answer's addition through another
        asked = []
        real = certify_module.certify_ik

        def counted(h):
            asked.append(h)
            return real(h)

        monkeypatch.setattr(certify_module, "certify_ik", counted)
        for host, pairs in (("IfByZ]zMo", ([5, 7], [5, 8])), ("IpNezuHTg", ([2, 6], [2, 9]))):
            g = graph6_decode(host)
            cert = certify_maxnik(g)
            assert cert.rule == "augmentation-nik"
            assert tuple(c.evidence["witness"] for c in cert.children) == pairs
            assert g.with_edge(*cert.evidence["edge"]) not in asked
            assert validate_certificate(cert) == []

    def test_maximal_two_apex_additions_are_not_walked(self, monkeypatch):
        searched = TestOneNikCertificatePerCall._count_apex_searches(monkeypatch)
        for g in (prime_family(10), prime_family(20), named_graph("K7^-").graph):
            assert certify_maxnik(g).verdict == VERDICT_MAXNIK
            additions = {g.with_edge(*e) for e in g.non_edges()}
            assert not additions & set(searched)
        assert searched

    def test_one_two_apex_walk_per_graph_per_call(self, monkeypatch):
        searched = TestOneNikCertificatePerCall._count_apex_searches(monkeypatch)
        for h in GOLDEN_HOSTS:
            searched.clear()
            certify_maxnik(graph6_decode(h))
            assert len(searched) == len(set(searched)), h


def _relabelled_composites(seed: int) -> list:
    """``size_construct(n)``'s graph for n = 23..52, each relabelled by the next
    shuffle of one Random(seed): seed 0 gives the first batch of perfbench's
    ``certify-composite`` at its default seed, in size order."""
    rng = random.Random(seed)
    out = []
    for n in range(23, 53):
        g = size_construct(n)[1]
        perm = list(range(g.n))
        rng.shuffle(perm)
        out.append(g.relabel(perm))
    return out


class TestWalksReuseSubgraphs:
    """A pair that fails for a subgraph on the same vertices fails for the
    graph: additions start at the host's witness, and a sum's walk ends at a
    piece that is not 2-apex. Every answer stays the plain walk's."""

    @staticmethod
    def _watch(monkeypatch) -> dict:
        """Record every walk with its start and answer, every graph the axiom
        gate answered with no walk, every sum whose walk asked its pieces
        with the answer, every sum whose walk ended at a piece, and every
        planarity run, while the certifier runs."""
        mmik_library()  # built first: its own planarity runs are not the certifier's
        seen = {"walks": [], "gated": [], "asked": [], "ended": [], "planarity": 0}
        real_walk = certify_module.is_k_apex
        real_two_apex = certify_module._two_apex
        real_pieces = certify_module._piece_not_two_apex
        real_planar = planarity_module._planar_within

        def walk(g, k, start=(), doomed=None):
            got = real_walk(g, k, start, doomed)
            seen["walks"].append((g, start, got))
            return got

        def two_apex(g, memo, start=None):
            fresh = ("2-apex", g) not in memo
            walks = len(seen["walks"])
            got = real_two_apex(g, memo, start)
            # kept in the memo with no walk of g: the axiom gate answered
            if fresh and ("2-apex", g) in memo and all(
                    w[0] != g for w in seen["walks"][walks:]):
                seen["gated"].append((g, got))
            return got

        def pieces(g, memo):
            doomed = real_pieces(g, memo)
            seen["asked"].append((g, doomed))
            if doomed:
                seen["ended"].append(g)
            return doomed

        def planar(rows, keep):
            seen["planarity"] += 1
            return real_planar(rows, keep)

        monkeypatch.setattr(certify_module, "is_k_apex", walk)
        monkeypatch.setattr(certify_module, "_two_apex", two_apex)
        monkeypatch.setattr(certify_module, "_piece_not_two_apex", pieces)
        monkeypatch.setattr(planarity_module, "_planar_within", planar)
        return seen

    def test_composite_walks_match_the_reference(self, monkeypatch):
        graphs = _relabelled_composites(0)
        seen = self._watch(monkeypatch)
        for g in graphs:
            assert certify_maxnik(g).verdict == VERDICT_MAXNIK
        # 3,504 while every walk ran to its end or its witness, 1,634 while a
        # graph isomorphic to an axiom was walked too, and 896 while a walk
        # asked the pieces once n pairs had failed, not three
        assert seen["planarity"] == 230
        # 144 walks before the axiom gate: 40 were of graphs isomorphic to an axiom
        assert len(seen["walks"]) == 104
        assert len(seen["gated"]) == 40
        for g, _, got in seen["walks"]:
            assert got == reference_is_k_apex(g, 2), graph6_encode(g)
        for g, got in seen["gated"]:
            assert mmik_library().axiom_for(g) is not None
            assert got == reference_is_k_apex(g, 2) == (False, None), graph6_encode(g)
        assert len(seen["ended"]) >= 30
        for g in seen["ended"]:
            _, split = next(_splits(g))
            assert any(not reference_is_k_apex(piece, 2).found for _, piece in split), (
                graph6_encode(g))

    def test_golden_host_walks_match_the_reference(self, monkeypatch):
        seen = self._watch(monkeypatch)
        blob = "".join(certify_maxnik(graph6_decode(h)).dumps() for h in GOLDEN_HOSTS)
        assert hashlib.sha256(blob.encode()).hexdigest() == GOLDEN_DIGEST
        # 696 while every addition's walk started at the first pair
        assert seen["planarity"] == 513
        skipped = 0
        for g, start, got in seen["walks"]:
            assert got == reference_is_k_apex(g, 2), graph6_encode(g)
            for pair in combinations(range(g.n), 2):
                if pair >= start:
                    break
                skipped += 1
                assert not is_planar_wagner(g.delete_vertices(pair)), (graph6_encode(g), pair)
        assert skipped >= 200

    def test_mixed_clique_sum_walks_match_the_reference(self, monkeypatch):
        seen = self._watch(monkeypatch)
        for g in _clique_sums(29, 40):
            certify_nik(g)
        for g, _, got in seen["walks"]:
            assert got == reference_is_k_apex(g, 2), graph6_encode(g)
        # the pieces end a walk exactly when the first small split has one
        # that is not 2-apex; sums with only 2-apex pieces walk on
        answers = Counter()
        for g, doomed in seen["asked"]:
            split = next(_splits(g), None) if g.is_connected() else None
            pieces = split[1] if split is not None and len(split[0]) <= 3 else []
            assert doomed == any(not reference_is_k_apex(piece, 2).found
                                 for _, piece in pieces), graph6_encode(g)
            answers[doomed, bool(pieces)] += 1
        assert answers[True, True] >= 10 and answers[False, True] >= 20


def _clique_sums(seed: int, count: int) -> list:
    """Seeded clique sums of two or three G(n, p) pieces (n 6-8, some dense
    enough not to be 2-apex) over K1, K2 or K3, each relabelled. Each glue
    clique is completed in both operands before they are identified."""
    rng = random.Random(seed)

    def with_clique(g, sites):
        for u, v in combinations(sites, 2):
            g = g.with_edge(u, v)
        return g

    out = []
    for _ in range(count):
        k = rng.randint(1, 3)
        g = None
        for _ in range(rng.randint(2, 3)):
            piece = random_graph(rng, rng.randint(6, 8), rng.choice((0.5, 0.6, 0.9)))
            sites = rng.sample(range(piece.n), k)
            piece = with_clique(piece, sites)
            if g is None:
                g = piece
                continue
            g_sites = rng.sample(range(g.n), k)
            g = identified_union(with_clique(g, g_sites), g_sites, piece, sites)
        perm = list(range(g.n))
        rng.shuffle(perm)
        out.append(g.relabel(perm))
    return out


class TestOneSplitPerGraphPerCall:
    """The doomed hint, the nIK construction and the maxnik construction
    read one list of small splits per graph, kept in the call's memo."""

    def test_each_graph_is_split_once_per_call(self, monkeypatch):
        split = []
        real = certify_module._splits

        def counted(g):
            split.append(g)
            return real(g)

        monkeypatch.setattr(certify_module, "_splits", counted)
        total = 0
        for g in _relabelled_composites(0):
            split.clear()
            assert certify_maxnik(g).verdict == VERDICT_MAXNIK
            assert len(split) == len(set(split)), graph6_encode(g)
            total += len(split)
        # 229 while each of the three searched on its own
        assert total == 103


class TestAxiomsAreNotWalked:
    """No knotless axiom is 2-apex, so ``_two_apex`` answers a graph
    isomorphic to one with no walk, as the walk would."""

    def test_no_axiom_is_two_apex(self):
        for axiom in mmik_library().nik_axioms:
            assert not reference_is_k_apex(axiom.graph, 2).found, axiom.name

    def test_relabelled_axioms_are_not_walked(self, monkeypatch):
        walked = TestOneNikCertificatePerCall._count_apex_searches(monkeypatch)
        rng = random.Random(24)
        for axiom in mmik_library().nik_axioms:
            for _ in range(20):
                perm = list(range(axiom.graph.n))
                rng.shuffle(perm)
                assert certify_module._two_apex(axiom.graph.relabel(perm), {}) == (False, None)
        assert walked == []


def test_composite_minor_searches_past_the_rank_gate(monkeypatch):
    # has_minor refuses a pattern of larger cycle rank than its host with no
    # search: here K7 and the (8, 22) pattern in E9 plus an edge, 160 of 560 calls
    graphs = _relabelled_composites(0)
    calls = []
    real = certify_module.has_minor

    def counted(host, pattern):
        got = real(host, pattern)
        calls.append((host, pattern, got.found))
        return got

    monkeypatch.setattr(certify_module, "has_minor", counted)
    for g in graphs:
        certify_maxnik(g)
    gated = [(h, p, found) for h, p, found in calls
             if reference_cycle_rank(p) > reference_cycle_rank(h)]
    assert (len(calls), len(gated)) == (560, 160)
    assert not any(found for _, _, found in gated)
    e9 = canon_module.canonical_form(named_graph("E9").graph).key
    for h in {h for h, _, _ in gated}:
        assert any(canon_module.canonical_form(h.without_edge(*e)).key == e9 for e in h.edges())
    assert {(p.n, p.m) for _, p, _ in gated} == {(7, 21), (8, 22)}


def test_verdicts_and_certificates_survive_relabelling():
    rng = random.Random(1319)
    maxnik = [named_graph(name).graph for name in ("K7^-", "K8-3K2", "K8-P3", "E9", "G9,29")]
    for g in _order_7_to_10_hosts(1317, 40) + maxnik + [prime_family(10)]:
        perm = list(range(g.n))
        rng.shuffle(perm)
        cert = certify_maxnik(g)
        assert certify_maxnik(g.relabel(perm)).verdict == cert.verdict
        assert validate_certificate(relabel_certificate(cert, tuple(perm))) == []
