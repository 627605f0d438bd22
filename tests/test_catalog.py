"""Named graphs, derived identifications, and the obstruction library."""

from __future__ import annotations

import inspect
import json
import os
import random
import subprocess
import sys

import pytest

import maxnik
import maxnik.certify as certify_module
from maxnik import canon, catalog
from maxnik.canon import (are_isomorphic, canonical_form, canonical_labeling,
                          orbits)
from maxnik.catalog import (PROV_CLOSURE, PROV_EXPLICIT, NamedGraph,
                            ObstructionLibrary, TriangleDiskAxiom,
                            _designated_e9_triangle_orbit, disk_axiom_covers,
                            mmik_library, named_graph)
from maxnik.graphs import (clique_number, complement, complete_graph,
                           complete_multipartite, graph6_encode, join,
                           non_triangular_edges, triangles)
from maxnik.minors import has_minor
from maxnik.planarity import is_k_apex, is_maximal_2apex
from maxnik.smallgraphs import maximal_2apex_graphs

from conftest import (ORDER9_RECIPES, brute_connectivity, cycle_graph,
                      disjoint_union, heawood_family, identify_E9,
                      identify_F9_and_E9_plus_e, k3311_family, k7_dy_family,
                      order9_recipe, reference_disk_axiom_covers)


class TestE9:
    def test_order_and_size(self):
        e9 = named_graph("E9").graph
        assert (e9.n, e9.m) == (9, 21)

    def test_degrees_only_4_and_5(self):
        e9 = named_graph("E9").graph
        assert sorted(set(e9.degrees())) == [4, 5]
        assert min(e9.degrees()) == 4

    def test_six_non_triangular_edges_degree_4_to_5(self):
        e9 = named_graph("E9").graph
        nte = non_triangular_edges(e9)
        assert len(nte) == 6
        for u, v in nte:
            assert sorted((e9.degree(u), e9.degree(v))) == [4, 5]

    def test_four_connected(self):
        assert brute_connectivity(named_graph("E9").graph) == 4

    def test_largest_clique_is_triangle(self):
        assert clique_number(named_graph("E9").graph) == 3

    def test_not_two_apex(self):
        assert not is_k_apex(named_graph("E9").graph, 2).found

    def test_two_non_edge_orbits(self):
        assert len(orbits(named_graph("E9").graph, "non-edge")) == 2

    def test_in_heawood_family_at_order_nine(self):
        e9 = named_graph("E9").graph
        nine = [g for g in heawood_family().members if g.n == 9]
        assert sum(1 for g in nine if are_isomorphic(g, e9)) == 1

    def test_non_triangular_edges_fill_whole_orbits(self):
        e9 = named_graph("E9").graph
        nte = set(non_triangular_edges(e9))
        for orbit in orbits(e9, "edge").orbits:
            hit = sum(1 for e in orbit if e in nte)
            assert hit in (0, len(orbit))
        assert len(nte) == 6


class TestF9:
    def test_f9_is_an_order9_family_member(self):
        f9 = named_graph("F9").graph
        assert (f9.n, f9.m) == (9, 21)
        nine = [g for g in k7_dy_family().members if g.n == 9]
        assert any(are_isomorphic(g, f9) for g in nine)

    def test_exactly_one_orbit_gains_f9(self):
        e9 = named_graph("E9").graph
        f9 = named_graph("F9").graph
        hits = []
        for orbit in orbits(e9, "non-edge").orbits:
            u, v = orbit[0]
            hits.append(has_minor(e9.with_edge(u, v), f9).found)
        assert sorted(hits) == [False, True]

    def test_e9_plus_e_pattern(self):
        p = named_graph("E9+e").graph
        assert (p.n, p.m) == (9, 22)


class TestNamedGraphs:
    @pytest.mark.parametrize("name,n,m", [
        ("K7^-", 7, 20),
        ("K8-3K2", 8, 25),
        ("K8-P3", 8, 25),
        ("G9,29", 9, 29),
        ("octahedron", 6, 12),
        ("K3,3,1,1", 8, 22),
        ("Big-Y", 9, 30),
        ("Long-Y", 9, 30),
        ("Hat", 9, 30),
        ("House", 9, 30),
        ("Pentagon-bar", 9, 30),
    ])
    def test_orders_and_sizes(self, name, n, m):
        ng = named_graph(name)
        assert (ng.graph.n, ng.graph.m) == (n, m)

    def test_aliases(self):
        assert named_graph("e9").graph == named_graph("E9").graph
        assert named_graph("g9_29").graph == named_graph("G9,29").graph
        assert named_graph("k7-").graph == named_graph("K7^-").graph
        assert named_graph("k8-3-disjoint-edges") == named_graph("K8-3K2")
        assert named_graph("Octahedron") == named_graph("octahedron")
        assert named_graph("PENTAGON-BAR") == named_graph("Pentagon-bar")
        # complete-graph names ignore case like every other name
        assert named_graph("k7") == named_graph("K7")
        assert named_graph("k7").name == "K7"
        assert named_graph("k64").graph.n == 64
        for bad in ("k0", "K65", "k65", "K", "k7x"):
            with pytest.raises(KeyError):
                named_graph(bad)

    @pytest.mark.parametrize("bad", ["K\u00b2", "K\u0663", "k\u0667", "K\uff17",
                                     "K03", "k007", "K0", "K+7", "K 7", "K7 "])
    def test_complete_graph_order_takes_ascii_digits_without_leading_zero(self, bad):
        with pytest.raises(KeyError):
            named_graph(bad)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            named_graph("no-such-graph")

    def test_g929_complement_structure(self):
        g = named_graph("G9,29").graph
        want = disjoint_union(disjoint_union(complete_graph(1), complete_graph(2)),
                              cycle_graph(6))
        assert complement(g) == want
        comps = sorted(c.bit_count() for c in complement(g).components())
        assert comps == [1, 2, 6]

    def test_k8_minus_matching_is_octahedron_join(self):
        got = named_graph("K8-3K2").graph
        assert are_isomorphic(got, join(complete_multipartite(2, 2, 2),
                                        complete_graph(2)))

    @pytest.mark.parametrize("name", sorted(ORDER9_RECIPES))
    def test_each_recipe_rebuilds_its_row(self, name):
        g = order9_recipe(name)
        assert graph6_encode(g) == dict(catalog._ORDER9_JOINS)[name]
        assert named_graph(name).graph == g

    def test_order9_registry_is_the_five_joins(self):
        # the rows are the joins of the 7-vertex triangulations with K2, in
        # key order; the recipes name four of them, Pentagon-bar is the fifth
        names = [name for name, _ in catalog._ORDER9_JOINS]
        graphs = [named_graph(name).graph for name in names]
        assert tuple(graphs) == maximal_2apex_graphs(9)
        assert all(is_maximal_2apex(g) for g in graphs)
        assert sorted(set(names) - set(ORDER9_RECIPES)) == ["Pentagon-bar"]
        assert len({order9_recipe(name) for name in ORDER9_RECIPES}) == 4

    def test_pentagon_bar_complement(self):
        pb = named_graph("Pentagon-bar").graph
        comps = sorted(c.bit_count() for c in complement(pb).components())
        assert comps == [1, 1, 2, 5]
        assert complement(pb).m == 1 + 5


class TestLibrary:
    def test_pattern_count(self, lib):
        assert len(lib.mmik_patterns) == 14 + 58 + 1

    def test_every_pattern_has_at_least_21_edges(self, lib):
        assert all(p.graph.m >= 21 for p in lib.mmik_patterns)

    def test_contains_seeds_and_derived(self, lib):
        names = {p.name for p in lib.mmik_patterns}
        assert {"K7", "K3,3,1,1", "F9", "E9+e"} <= names

    def test_axiom_lookup_searches_only_an_axiom_order_and_size(self, monkeypatch, lib):
        searched = []
        real = canon._canonical_search

        def counted(g):
            searched.append(g)
            return real(g)

        monkeypatch.setattr(canon, "_canonical_search", counted)
        e9 = named_graph("E9").graph
        u, v = e9.non_edges()[0]
        for g in (e9.with_edge(u, v), e9.without_edge(*e9.edges()[0]),
                  complete_graph(9), named_graph("K7").graph, complete_multipartite(3, 3, 3)):
            assert (g.n, g.m) not in ((9, 21), (9, 29))
            assert lib.axiom_for(g) is None
        assert searched == []
        rng = random.Random(19)
        for name in ("E9", "G9,29"):
            h = named_graph(name).graph.relabel(rng.sample(range(9), 9))
            assert lib.axiom_for(h).name == name
        assert len(searched) == 2
        # the same order and size, but another degree sequence: not searched
        other = e9.without_edge(*e9.edges()[0]).with_edge(u, v)
        assert sorted(other.degrees()) != sorted(e9.degrees())
        assert lib.axiom_for(other) is None
        assert len(searched) == 2
        # E9's degree sequence, not isomorphic to E9 (the edges 01 and 37
        # switched to 03 and 17): searched, not matched
        switched = e9.without_edge(0, 1).without_edge(3, 7).with_edge(0, 3).with_edge(1, 7)
        assert sorted(switched.degrees()) == sorted(e9.degrees())
        assert lib.axiom_for(switched) is None
        assert searched[2:] == [switched]

    def test_axioms_disjoint_from_patterns(self, lib):
        from maxnik.canon import canonical_form
        pattern_keys = {canonical_form(p.graph).key for p in lib.mmik_patterns}
        for axiom in lib.nik_axioms:
            assert canonical_form(axiom.graph).key not in pattern_keys

    def test_no_pattern_is_a_minor_of_a_knotless_axiom(self, lib):
        for axiom in lib.nik_axioms:
            host = axiom.graph
            for p in lib.mmik_patterns:
                if p.graph.n <= host.n and p.graph.m <= host.m:
                    assert not has_minor(host, p.graph).found, (axiom.name, p.name)

    def test_patterns_sorted_cheapest_first(self, lib):
        sizes = [(p.graph.n, p.graph.m) for p in lib.mmik_patterns]
        assert sizes == sorted(sizes)

    def test_family_counts(self):
        assert len(k7_dy_family()) == 14
        assert len(heawood_family()) == 20
        assert len(k3311_family()) == 58

    def test_unavailable_flagged(self, lib):
        assert set(lib.unavailable) == {"G9,28", "G26", "G27"}

    def test_disk_axiom_matching(self, lib):
        e9 = named_graph("E9").graph
        designated = lib.triangle_disk_axioms[0].triangle_orbit
        assert designated is not None
        tri = designated[0]
        a, b, c = tri
        assert not e9.rows[a] & e9.rows[b] & e9.rows[c]  # no common neighbor
        assert disk_axiom_covers(e9, tri)
        rng = random.Random(40)
        perm = list(range(9))
        rng.shuffle(perm)
        relabeled = e9.relabel(perm)
        image = tuple(sorted(perm[v] for v in tri))
        assert disk_axiom_covers(relabeled, image)

    def test_disk_axiom_rejects_other_triangles(self, lib):
        e9 = named_graph("E9").graph
        designated = set(lib.triangle_disk_axioms[0].triangle_orbit)
        others = [t for t in triangles(e9) if t not in designated]
        assert others
        assert not disk_axiom_covers(e9, others[0])

    def test_disk_axiom_k4_wildcard(self):
        assert disk_axiom_covers(complete_graph(4), (1, 2, 3))
        assert not disk_axiom_covers(complete_graph(5), (0, 1, 2))

    def test_provenance_fields(self):
        assert named_graph("E9").provenance == "closure-derived"
        assert named_graph("K7^-").provenance == "explicit-definition"
        assert named_graph("House").provenance == "decomposition-derived"

    def test_dump_shape(self):
        from maxnik.catalog import library_dump
        from maxnik.graphs import graph6_decode
        dump = library_dump()
        assert len(dump["patterns"]) == 73
        assert {a["name"] for a in dump["knotless_axioms"]} == {"E9", "G9,29"}
        for entry in dump["patterns"][:5]:
            g = graph6_decode(entry["graph6"])
            assert (g.n, g.m) == (entry["order"], entry["size"])
        assert set(dump["unavailable"]) == {"G9,28", "G26", "G27"}


def derived_library() -> ObstructionLibrary:
    """The library derived from the published families, the way
    ``mmik_library`` built it before it read ``_LIBRARY_TABLE``.

    The patterns are the K7 triangle-to-wye family, then the K3,3,1,1
    delta-wye family, one per canonical key, in (order, size, key) order.
    K7, K3,3,1,1 and F9 take their names, and E9+e replaces its class. E9,
    F9 and E9+e come from the fingerprinted identifications, and G9,29 is
    the complement of K1 + K2 + C6.
    """
    e9 = identify_E9(heawood_family())
    f9, e9_plus_e = identify_F9_and_E9_plus_e(e9.graph, k7_dy_family())
    g929 = NamedGraph("G9,29", complement(disjoint_union(disjoint_union(
        complete_graph(1), complete_graph(2)), cycle_graph(6))), PROV_EXPLICIT)
    patterns: dict[bytes, NamedGraph] = {}
    for fam, seed in ((k7_dy_family(), "K7"), (k3311_family(), "K3,3,1,1")):
        for idx, (key, g) in enumerate(zip(fam.keys, fam.members)):
            patterns.setdefault(key, NamedGraph(f"{seed}-family-{idx}", g, PROV_CLOSURE))
    for name, g in (("K7", complete_graph(7)),
                    ("K3,3,1,1", complete_multipartite(3, 3, 1, 1)), ("F9", f9.graph)):
        key = canonical_form(g).key
        patterns[key] = NamedGraph(name, patterns[key].graph, patterns[key].provenance)
    patterns[canonical_form(e9_plus_e.graph).key] = e9_plus_e
    ordered = tuple(p for _, p in sorted(
        patterns.items(), key=lambda kp: (kp[1].graph.n, kp[1].graph.m, kp[0])))
    e9_form, e9_labeling = canonical_labeling(e9.graph)
    return ObstructionLibrary(
        mmik_patterns=ordered,
        nik_axioms=(e9, g929),
        nik_axiom_keys=(e9_form.key, canonical_form(g929.graph).key),
        triangle_disk_axioms=(
            TriangleDiskAxiom(
                "E9", e9_form.key, _designated_e9_triangle_orbit(e9.graph),
                "orbit choice among common-neighbor-free triangles is a recorded assumption",
                e9_labeling),
            TriangleDiskAxiom(
                "K4", canonical_form(complete_graph(4)).key, None,
                "any triangle of K4 bounds a face of the planar embedding"),
        ),
        unavailable={
            "G9,28": "order-9 pattern named in the source classification; adjacency not published there",
            "G26": "order-9 obstruction with 26 edges; adjacency not published there",
            "G27": "order-9 obstruction with 27 edges; adjacency not published there",
        },
    )


def table_rows(lib: ObstructionLibrary) -> str:
    """The library's patterns and axioms as ``_LIBRARY_TABLE`` source lines."""
    prov = {PROV_CLOSURE: "PROV_CLOSURE", PROV_EXPLICIT: "PROV_EXPLICIT"}
    return "\n".join(
        f"    ({json.dumps(ng.name)}, {json.dumps(graph6_encode(ng.graph))}, {prov[ng.provenance]}),"
        for ng in lib.mmik_patterns + lib.nik_axioms)


class TestLibraryTable:
    def test_table_equals_the_derivation(self):
        derived, lib = derived_library(), mmik_library()
        want = derived.mmik_patterns + derived.nik_axioms
        got = lib.mmik_patterns + lib.nik_axioms
        # equal graphs have equal rows: the same labelling, not only isomorphic
        bad = [i for i, (a, b) in enumerate(zip(got, want)) if a != b]
        if bad or len(got) != len(want):
            pytest.fail(f"table rows {bad} of {len(got)} differ from the {len(want)} "
                        f"derived; regenerated rows:\n{table_rows(derived)}", pytrace=False)
        assert lib.nik_axiom_keys == derived.nik_axiom_keys
        assert lib.triangle_disk_axioms == derived.triangle_disk_axioms
        assert lib.unavailable == derived.unavailable
        # E9, F9 and E9+e as identify_E9 and identify_F9_and_E9_plus_e give them
        by_name = {ng.name: ng for ng in want}
        for name in ("E9", "F9", "E9+e", "G9,29"):
            assert named_graph(name) == by_name[name]

    def test_rows_are_generated_source_lines(self):
        source = inspect.getsource(catalog)
        assert table_rows(mmik_library()) + "\n" in source


_COLD_BUILD = """
from maxnik import canon
calls = 0
real = canon._canonical_search

def counted(g):
    global calls
    calls += 1
    return real(g)

canon._canonical_search = counted
from maxnik.catalog import mmik_library
mmik_library()
print(calls)
"""


_NO_DERIVATION = """
from maxnik import minors

closures = []
real = minors.closure

def counted(*args):
    closures.append(args)
    return real(*args)

minors.closure = counted
from maxnik.catalog import mmik_library
from maxnik.certify import validate_certificate
from maxnik.construct import size_construct
from maxnik.survey import classified_maxnik

mmik_library()
for n in range(20, 61):
    if n != 22:
        assert validate_certificate(size_construct(n)[2]) == []
classified_maxnik(9)
print(len(closures))
"""


def run_fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter, so every cache starts empty."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(maxnik.__file__))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True, timeout=120).stdout


class TestLibraryBuildWork:
    def test_cold_build_runs_five_searches(self):
        # E9, G9,29, K4 and the two patterns of E9's order and size; 375 when
        # the library was derived through three closures, 989 before that
        assert int(run_fresh(_COLD_BUILD)) == 5

    def test_library_and_planner_derive_nothing(self):
        # E9, F9 and E9+e are read from the table: no closure runs. Only cli
        # names closure besides minors (TestPackageSource), and it is not
        # imported here, so every call would go through the patched name.
        assert run_fresh(_NO_DERIVATION) == "0\n"

    def test_covered_call_runs_one_search(self, monkeypatch, lib):
        e9 = named_graph("E9").graph
        tri = lib.triangle_disk_axioms[0].triangle_orbit[0]
        calls = []
        real = canon._canonical_search

        def counted(g):
            calls.append(g)
            return real(g)

        monkeypatch.setattr(canon, "_canonical_search", counted)
        canon._search.cache_clear()  # count from a cold cache
        assert disk_axiom_covers(e9, tri)  # 3 searches with isomorphism
        assert calls == [e9]

    def test_verdicts_match_reference(self, monkeypatch, lib):
        from maxnik.certify import certify_maxnik, validate_certificate
        from maxnik.construct import size_construct
        asked = []
        real = disk_axiom_covers

        def recorded(g, tri):
            asked.append((g, tri))
            return real(g, tri)

        # clique_sum reaches it through certify.lemma_conclusion
        monkeypatch.setattr(certify_module, "disk_axiom_covers", recorded)
        for n in range(20, 178):
            if n != 22:
                assert validate_certificate(size_construct(n)[2]) == []
        for n in range(23, 53):
            certify_maxnik(size_construct(n)[1])
        assert asked  # the planner certificates hold triangle sums
        rng = random.Random(11)
        e9 = named_graph("E9").graph
        for g in [e9, complete_graph(4), complete_graph(5)] + [
                e9.relabel(rng.sample(range(9), 9)) for _ in range(4)]:
            asked += [(g, t) for t in triangles(g)]
            asked += [(g, (0, 1, 2)), (g, (0, 0, 1))]
        for g, tri in asked:
            assert disk_axiom_covers(g, tri) == reference_disk_axiom_covers(lib, g, tri)
        assert any(disk_axiom_covers(g, t) for g, t in asked if g.n == 9)
        assert not all(disk_axiom_covers(g, t) for g, t in asked if g.n == 9)


class TestIdentificationErrors:
    def test_identify_e9_rejects_wrong_family(self):
        with pytest.raises(AssertionError, match="0 candidates for E9"):
            identify_E9(k7_dy_family())  # its order-9 members have degree-3 vertices

    def test_identify_f9_needs_the_right_graph(self):
        with pytest.raises(AssertionError, match="2 of E9.s non-edge orbits contain"):
            identify_F9_and_E9_plus_e(named_graph("G9,29").graph, k7_dy_family())
