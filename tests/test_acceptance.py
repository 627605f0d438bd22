"""Acceptance suite: one test and one printed PASS line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Every tolerance here is exact (counts, sizes, and
verdicts), so a criterion either passes outright or fails loudly.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import pytest

from maxnik.canon import are_isomorphic, canonical_form
from maxnik.catalog import named_graph
from maxnik.certify import (VERDICT_IK, VERDICT_MAXNIK, certify_maxnik,
                            check_necessary, validate_certificate)
from maxnik.construct import chain_graphs, npp5_family, size_construct
from maxnik.errors import UnrepresentableSizeError
from maxnik.graphs import (Graph, graph6_decode, graph6_encode,
                           non_triangular_edges)
from maxnik.minors import has_minor
from maxnik.planarity import is_planar
from maxnik.primality import decompose, is_prime
from maxnik.smallgraphs import enumerate_graphs
from maxnik.survey import (classified_maxnik, enumerate_maxnik, table_deg,
                           table_ve, verify_order9)

from conftest import (brute_force_minor, heawood_family, is_planar_wagner,
                      k3311_family, k7_dy_family, leaves, random_graph, re_glue)

_touched: list[Graph] = []


def _track(graphs) -> None:
    _touched.extend(graphs)


def _report(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_classification_counts():
    t0 = time.time()
    for n in range(1, 7):
        got = enumerate_maxnik(n)
        assert len(got) == 1 and got[0].is_complete()
        _track(got)
    at7 = enumerate_maxnik(7)
    assert len(at7) == 1
    assert are_isomorphic(at7[0], named_graph("K7^-").graph)
    at8 = enumerate_maxnik(8)
    assert len(at8) == 2
    keys = {canonical_form(g).key for g in at8}
    assert keys == {canonical_form(named_graph("K8-3K2").graph).key,
                    canonical_form(named_graph("K8-P3").graph).key}
    _track(at7)
    _track(at8)
    elapsed = time.time() - t0
    assert elapsed < 600, f"order-8 sweep took {elapsed:.0f}s, budget is 10 minutes"
    _report(1, f"orders 1..7 give one graph each, order 8 gives two "
               f"(full sweep in {elapsed:.1f}s)")


def test_criterion_2_order_nine():
    rep = verify_order9()
    assert len(rep.members) == 7
    assert rep.sizes == (21, 29, 30, 30, 30, 30, 30)
    assert rep.maximal_2apex_count == 5
    e9 = named_graph("E9").graph
    cert = certify_maxnik(e9)
    assert cert.verdict == VERDICT_MAXNIK
    cited = {c.evidence.get("pattern") for c in cert.children
             if c.verdict == VERDICT_IK}
    assert cited == {"F9", "E9+e"}
    assert validate_certificate(cert) == []
    _track(graph6_decode(g6) for _, g6, _ in rep.members)
    _report(2, "seven order-9 graphs certified with sizes {21, 29, 30x5}; "
               "E9's additions certify IK via F9 and the registered E9+e")


def test_criterion_3_size_realization():
    plan20, g20, _ = size_construct(20)
    assert are_isomorphic(g20, named_graph("K7^-").graph)
    assert plan20.special == "K7^-"
    plan24, g24, _ = size_construct(24)
    assert g24.n == 10 and g24.m == 24
    with pytest.raises(UnrepresentableSizeError):
        size_construct(22)
    checked = 0
    for n in range(20, 121):
        if n == 22:
            continue
        plan, g, cert = size_construct(n)
        assert g.m == n, f"size {n}: built {g.m} edges"
        assert cert.verdict == VERDICT_MAXNIK
        problems = validate_certificate(cert)
        assert problems == [], f"size {n}: {problems[:3]}"
        if plan.special is None:
            assert 21 + 20 * (plan.base_chain - 1) + sum(plan.addends) == n
            assert len(plan.addends) <= 6
        _track([g])
        checked += 1
    _report(3, f"sizes 20..120 except 22 all realized with validating "
               f"certificates ({checked} sizes); 22 errors; 20 and 24 special")


def test_criterion_4_family_formulas():
    for k in range(1, 6):
        g, cert = npp5_family(k)
        assert (g.n, g.m) == (12 * k + 2, 30 * k + 1)
        assert g.m == 30 * (g.n - 2) // 12 + 1
        assert cert.verdict == VERDICT_MAXNIK
        assert min(g.degrees()) == 2
        _track([g])
    for i in range(1, 7):
        g, cert = chain_graphs(i)
        assert g.m == 20 * i + 1
        assert len(non_triangular_edges(g)) >= 6
        assert cert.verdict == VERDICT_MAXNIK
        _track([g])
    _report(4, "npp5 family k=1..5 hits (12k+2, 30k+1); chains i=1..6 "
               "hit 20i+1 edges with six or more non-triangular edges")


def test_criterion_5_bounds_on_certified_graphs():
    violations = []
    graphs = [g for n in range(1, 10) for g in classified_maxnik(n)]
    graphs += [npp5_family(k)[0] for k in range(1, 6)]
    graphs += [chain_graphs(i)[0] for i in range(1, 7)]
    graphs += [size_construct(n)[1] for n in (20, 24, 30, 45, 67, 101)]
    for g in graphs:
        rep = check_necessary(g)
        if not rep.all_pass:
            violations.append((graph6_encode(g), rep.failures()))
        if g.n >= 5 and g.m < math.ceil(7 * g.n / 4):
            violations.append((graph6_encode(g), "7/4 bound"))
        if g.n >= 7 and not 20 <= g.m <= 5 * g.n - 15:
            violations.append((graph6_encode(g), "size window"))
    assert violations == []
    _track(graphs)
    _report(5, f"all structural bounds hold on {len(graphs)} certified graphs "
               "(zero violations)")


def test_criterion_6_closure_regression():
    k7_dy = k7_dy_family()
    assert len(k7_dy) == 14
    assert all(g.m == 21 for g in k7_dy.members)
    assert len(heawood_family()) == 20
    family = k3311_family()
    assert len(family) == 58
    _track(k7_dy.members)
    _track(heawood_family().members)
    _track(family.members)
    _report(6, "closure counts 14 (K7 under dy), 20 (K7 under both moves), "
               "58 (K3,3,1,1 family); every K7 dy-member has 21 edges")


def test_criterion_7_primality():
    primes = [named_graph(f"K{n}").graph for n in range(1, 7)]
    primes += [named_graph(n).graph for n in
               ("K8-3K2", "Pentagon-bar", "E9", "G9,29")]
    for g in primes:
        assert is_prime(g).prime, graph6_encode(g)
    composites = {name: named_graph(name).graph for name in
                  ("K7^-", "K8-P3", "Big-Y", "Long-Y", "Hat", "House")}
    k6 = named_graph("K6").graph
    recipes = {
        "K7^-": (k6, k6),
        "K8-P3": (named_graph("K7^-").graph, k6),
        "Big-Y": (named_graph("K8-P3").graph, k6),
        "Long-Y": (named_graph("K8-3K2").graph, k6),
        "Hat": (named_graph("K8-P3").graph, k6),
        "House": (named_graph("K8-P3").graph, k6),
    }
    from maxnik.primality import clique_cutsets
    from maxnik.graphs import _bits
    for name, g in composites.items():
        assert not is_prime(g).prime, name
        left, right = recipes[name]
        found = False
        for cut in clique_cutsets(g):
            kept = [v for v in range(g.n) if v not in cut]
            parts = []
            for comp in g.delete_vertices(cut).components():
                verts = sorted([kept[i] for i in _bits(comp)] + list(cut))
                parts.append(g.subgraph(verts))
            if len(parts) == 2:
                a, b = parts
                if (are_isomorphic(a, left) and are_isomorphic(b, right)) or \
                        (are_isomorphic(a, right) and are_isomorphic(b, left)):
                    found = True
                    break
        assert found, f"{name} does not split per its recipe"
        d = decompose(g)
        assert canonical_form(re_glue(d)) == canonical_form(g)
        assert all(is_prime(leaf).prime for leaf in leaves(d))
    for g in primes:
        assert canonical_form(re_glue(decompose(g))) == canonical_form(g)
    _track(primes)
    _track(composites.values())
    _report(7, "primes and composites match the classification; every "
               "decomposition re-glues to its input and has prime leaves")


def test_criterion_8_oracle_equivalence():
    # planarity vs the Wagner oracle: exhaustive through order 8
    checked = 0
    for n in range(1, 9):
        for g in enumerate_graphs(n):
            assert is_planar(g) == is_planar_wagner(g), graph6_encode(g)
            checked += 1
    # and on random graphs at orders 9 and 10
    rng = random.Random(90)
    randoms = 0
    for _ in range(10_000):
        g = random_graph(rng, rng.choice([9, 10]),
                         rng.choice([0.15, 0.3, 0.45, 0.6, 0.75]))
        assert is_planar(g) == is_planar_wagner(g), graph6_encode(g)
        randoms += 1
    # minor search vs the brute-force contraction oracle
    hosts = [g for n in range(1, 7) for g in enumerate_graphs(n)]
    patterns = [g for n in range(1, 6) for g in enumerate_graphs(n)]
    pairs = 0
    for host in hosts:
        for pattern in patterns:
            assert has_minor(host, pattern).found == brute_force_minor(host, pattern)
            pairs += 1
    # canonical form invariance under relabeling
    rng = random.Random(91)
    names = [f"K{n}" for n in range(1, 8)] + [
        "K7^-", "K8-3K2", "K8-P3", "octahedron", "G9,29", "K3,3", "K3,3,1,1",
        "E9", "F9", "E9+e", "Big-Y", "Long-Y", "Hat", "House", "Pentagon-bar"]
    for name in names:
        g = named_graph(name).graph
        want = canonical_form(g)
        for _ in range(1000):
            p = list(range(g.n))
            rng.shuffle(p)
            assert canonical_form(g.relabel(p)) == want, name
    _report(8, f"planarity agrees with the Wagner oracle on {checked} classes "
               f"and {randoms} random graphs; minor search matches brute force "
               f"on {pairs} pairs; canonical form survives 1000 relabelings "
               f"of each of {len(names)} named graphs")


def test_criterion_9_tables():
    expected = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2),
                Fraction(2), Fraction(5, 2), Fraction(20, 7), Fraction(25, 8),
                Fraction(21, 9)]
    got = [ratio for _, ratio in table_ve().rows]
    assert got == expected
    table = table_deg()
    for row in table.rows:
        if row.order <= 8:
            assert row.mismatches == (), row
    notes = table.discrepancies
    assert len(notes) == 1
    assert "order 9" in notes[0] and "minimum-degree" in notes[0]
    assert table.rows[8].computed_min == (4, 6)
    assert table.rows[8].reference_min == (4, 7)
    _report(9, "ratio table matches all nine published values; degree table "
               "matches through order 8 and reports the order-9 discrepancy")


def test_criterion_10_graph6_round_trip():
    seen = 0
    for g in _touched:
        assert graph6_decode(graph6_encode(g)) == g
        seen += 1
    for n in range(1, 9):
        for g in enumerate_graphs(n):
            assert graph6_decode(graph6_encode(g)) == g
            seen += 1
    assert seen > 13_000  # every class through order 8 plus all tracked outputs
    _report(10, f"graph6 round-trips bit-exactly over {seen} suite graphs")
