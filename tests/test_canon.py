"""Canonical labeling and orbits against brute-force permutation oracles."""

from __future__ import annotations

import hashlib
import math
import random
from itertools import permutations

import pytest

from maxnik import canon
from maxnik.canon import (_canonical_search, _relabel_canonically,
                          _subset_orbit_minima, are_isomorphic,
                          automorphism_generators, canonical_form,
                          canonical_graph, isomorphism, orbits)
from maxnik.graphs import (Graph, _bits, complement, complete_graph,
                           complete_multipartite, from_edges, graph6_encode,
                           triangles)
from maxnik.smallgraphs import enumerate_graphs

from conftest import (all_labeled_graphs, brute_force_automorphisms,
                      brute_force_isomorphic, cycle_graph, dedup_by_canonical_form,
                      group_order, random_graph, reference_canonical_search,
                      reference_object_orbits)

KINDS = ("vertex", "edge", "non-edge", "triangle")


def test_c5_self_complementary():
    assert canonical_form(cycle_graph(5)) == canonical_form(complement(cycle_graph(5)))


def test_order8_triangulation_complements_differ():
    # the two order-8 maximal knotless graphs come from different triangulations
    from maxnik.catalog import named_graph
    g1 = named_graph("K8-3K2").graph
    g2 = named_graph("K8-P3").graph
    assert canonical_form(g1) != canonical_form(g2)
    assert not are_isomorphic(g1, g2)


def test_key_equality_matches_isomorphism_exhaustively():
    for n in range(1, 6):
        classes = {}
        for g in all_labeled_graphs(n):
            classes.setdefault(canonical_form(g).key, []).append(g)
        # canonical class counts for tiny orders are textbook values
        assert len(classes) == {1: 1, 2: 2, 3: 4, 4: 11, 5: 34}[n]
        for members in classes.values():
            rep = members[0]
            for other in members[1:3]:
                assert brute_force_isomorphic(rep, other)


def test_pairwise_agreement_with_permutation_oracle_order5():
    classes = enumerate_graphs(5)
    for g in classes:
        for h in classes:
            assert are_isomorphic(g, h) == brute_force_isomorphic(g, h)


def test_relabeling_invariance():
    rng = random.Random(13)
    for g in [cycle_graph(7), complete_multipartite(3, 3),
              random_graph(rng, 9, 0.4), random_graph(rng, 10, 0.6)]:
        want = canonical_form(g)
        for _ in range(60):
            p = list(range(g.n))
            rng.shuffle(p)
            assert canonical_form(g.relabel(p)) == want


def test_canonical_graph_is_fixed_point():
    rng = random.Random(14)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 9), 0.5)
        rep = canonical_graph(g)
        assert canonical_graph(rep) == rep
        assert are_isomorphic(g, rep)


def test_isomorphism_map_is_an_isomorphism():
    rng = random.Random(15)
    for _ in range(25):
        g = random_graph(rng, rng.randint(2, 9), 0.5)
        p = list(range(g.n))
        rng.shuffle(p)
        h = g.relabel(p)
        phi = isomorphism(g, h)
        assert phi is not None
        assert g.relabel(phi) == h


def test_automorphism_group_complete_small():
    for n in range(1, 6):
        for g in all_labeled_graphs(n):
            gens = automorphism_generators(g)
            assert group_order(gens, n) == len(brute_force_automorphisms(g))


def test_generators_pass_orbit_counting_through_order8():
    # each class of order n has n!/|Aut| labelings, and the labelings of all
    # classes together are the 2**(n(n-1)/2) labeled graphs: a generator set
    # missing part of any group breaks the sum
    for n in range(1, 9):
        total = sum(math.factorial(n) // group_order(automorphism_generators(g), n)
                    for g in enumerate_graphs(n))
        assert total == 2 ** (n * (n - 1) // 2)


def test_automorphism_group_known_orders():
    assert group_order(automorphism_generators(complete_graph(6)), 6) == 720
    assert group_order(automorphism_generators(cycle_graph(8)), 8) == 16
    assert group_order(automorphism_generators(complete_multipartite(3, 3)), 6) == 72
    octa = complete_multipartite(2, 2, 2)
    assert group_order(automorphism_generators(octa), 6) == 48


def test_edge_orbits_of_complete_graph():
    assert len(orbits(complete_graph(6), "edge")) == 1


def test_orbit_counts_relabeling_invariant():
    rng = random.Random(16)
    for _ in range(15):
        g = random_graph(rng, rng.randint(3, 8), 0.5)
        base = {kind: len(orbits(g, kind)) for kind in
                ("vertex", "edge", "non-edge", "triangle")}
        p = list(range(g.n))
        rng.shuffle(p)
        h = g.relabel(p)
        for kind, count in base.items():
            assert len(orbits(h, kind)) == count


def _brute_orbits(g: Graph, kind: str) -> tuple[tuple, ...]:
    """The orbits of ``kind`` under every automorphism, from the full group."""
    group = brute_force_automorphisms(g)
    if kind == "vertex":
        return tuple(sorted({tuple(sorted({a[v] for a in group})) for v in range(g.n)}))
    sets = {"edge": g.edges, "non-edge": g.non_edges, "triangle": lambda: triangles(g)}[kind]()
    return tuple(sorted({tuple(sorted({tuple(sorted(a[v] for v in s)) for a in group}))
                         for s in sets}))


def test_orbits_match_the_brute_force_group():
    rng = random.Random(17)
    for _ in range(60):
        g = random_graph(rng, rng.randint(3, 7), rng.random())
        for kind in KINDS:
            assert orbits(g, kind).orbits == _brute_orbits(g, kind), (g, kind)


# sha256 over (graph6, kind, orbits) of every class of order at most 7, measured
# while the orbits came from a union-find over each kind's image function
ORBITS_ORDER7_DIGEST = "8242424ad15d99d0807c1a2738deaed28f5469538a2dc8fb99ba5c90a84b7ab6"


def test_orbits_of_every_class_through_order7_unchanged():
    h = hashlib.sha256()
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            for kind in KINDS:
                h.update(repr((graph6_encode(g), kind, orbits(g, kind).orbits)).encode())
    assert h.hexdigest() == ORBITS_ORDER7_DIGEST


def test_wrong_generator_is_never_used(monkeypatch):
    real = _canonical_search

    def corrupted(g):
        form, lab, autos = real(g)
        return form, lab, autos + [(1, 0) + tuple(range(2, g.n))]

    monkeypatch.setattr(canon, "_canonical_search", corrupted)
    g = complete_graph(6).without_edge(0, 5)  # swapping 0 and 1 moves the non-edge
    for kind in KINDS:
        with pytest.raises(AssertionError, match=r"generator \(1, 0, 2, 3, 4, 5\) is not"):
            orbits(g, kind)


def test_orbits_partition_objects():
    g = complete_multipartite(2, 2, 2)
    part = orbits(g, "edge")
    seen = set()
    for orbit in part.orbits:
        for e in orbit:
            assert e not in seen
            seen.add(e)
    assert seen == set(g.edges())


def test_orbit_members_truly_equivalent():
    # spot check: every orbit member maps to the first under some automorphism
    g = cycle_graph(6)
    gens = automorphism_generators(g)
    group = set()
    frontier = [tuple(range(6))]
    group.add(tuple(range(6)))
    while frontier:
        e = frontier.pop()
        for a in gens:
            f = tuple(a[e[i]] for i in range(6))
            if f not in group:
                group.add(f)
                frontier.append(f)
    for orbit in orbits(g, "non-edge").orbits:
        first = orbit[0]
        for other in orbit:
            assert any(tuple(sorted((a[first[0]], a[first[1]]))) == other for a in group)


def test_dedup_by_canonical_form():
    graphs = [cycle_graph(5).relabel(p) for p in permutations(range(5))]
    graphs += [complete_graph(5)]
    reps = dedup_by_canonical_form(graphs)
    assert len(reps) == 2


def _relabelled(rng: random.Random, g: Graph) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel(perm)


class TestMatchesReferenceSearch:
    """Form key, labeling and generator list equal the reference search's."""

    def test_random_graphs(self):
        rng = random.Random(2026)
        densities = [d / 10 for d in range(1, 10)]
        for _ in range(5000):
            g = random_graph(rng, rng.randint(1, 16), rng.choice(densities))
            assert _canonical_search(g) == reference_canonical_search(g), g

    def test_every_class_through_order7_as_given_and_relabelled(self):
        rng = random.Random(7)
        for n in range(1, 8):
            for g in enumerate_graphs(n):
                for h in (g, _relabelled(rng, g)):
                    assert _canonical_search(h) == reference_canonical_search(h), h

    def test_symmetric_hosts(self, lib):
        rng = random.Random(8)
        petersen = from_edges(10, [(i, (i + 1) % 5) for i in range(5)]
                              + [(i, i + 5) for i in range(5)]
                              + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
        hosts = [complete_graph(n) for n in range(1, 10)]
        hosts += [complete_multipartite(a, b) for a in range(1, 6) for b in range(a, 6)]
        hosts += [cycle_graph(n) for n in range(3, 17)]
        hosts += [petersen] + [p.graph for p in lib.mmik_patterns]
        for g in hosts:
            for h in (g, _relabelled(rng, g)):
                assert _canonical_search(h) == reference_canonical_search(h), h

    def test_canonical_relabelling_builds_a_valid_graph(self):
        rng = random.Random(9)
        for _ in range(200):
            g = random_graph(rng, rng.randint(1, 12), 0.5)
            rep = _relabel_canonically(g, _canonical_search(g)[1])
            assert Graph(rep.n, rep.rows) == rep
            assert are_isomorphic(rep, g)


def _mask_image(mask: int, perm: tuple[int, ...]) -> int:
    out = 0
    for v in _bits(mask):
        out |= 1 << perm[v]
    return out


def test_subset_orbit_minima_match_union_find():
    for n in range(1, 8):
        for parent in enumerate_graphs(n):
            gens = automorphism_generators(parent)
            want = [o[0] for o in reference_object_orbits(list(range(1 << n)), gens, _mask_image)]
            assert _subset_orbit_minima(n, gens) == want, parent


class TestSearchCache:
    """``canon._search`` keeps checked results, at most ``_SEARCHES`` of them."""

    @staticmethod
    def _counted(monkeypatch) -> list:
        searched = []
        real = canon._canonical_search

        def counted(g):
            searched.append(g)
            return real(g)

        monkeypatch.setattr(canon, "_canonical_search", counted)
        return searched

    def test_cold_and_warm_results_match_the_reference(self, monkeypatch):
        rng = random.Random(17)
        graphs = [random_graph(rng, rng.randint(1, 12), rng.choice((0.3, 0.5, 0.7)))
                  for _ in range(60)]
        searched = self._counted(monkeypatch)
        for _ in ("cold", "warm"):
            for g in graphs:
                form, lab, gens = reference_canonical_search(g)
                assert canon.canonical_labeling(g) == (form, lab), g
                assert canonical_form(g) == form
                assert automorphism_generators(g) == gens
                assert orbits(g, "vertex").orbits == reference_object_orbits(
                    list(range(g.n)), gens, lambda v, a: a[v])
        assert len(searched) == len(set(graphs))

    def test_a_wrong_generator_raises_and_is_not_kept(self, monkeypatch):
        g = complete_graph(6).without_edge(0, 5)  # swapping 0 and 1 moves the non-edge
        real = canon._canonical_search
        monkeypatch.setattr(canon, "_canonical_search",
                            lambda h: real(h)[:2] + ([(1, 0, 2, 3, 4, 5)],))
        with pytest.raises(AssertionError, match="is not an automorphism"):
            canonical_form(g)
        assert canon._search.cache_info().currsize == 0
        monkeypatch.setattr(canon, "_canonical_search", real)
        searched = self._counted(monkeypatch)
        assert automorphism_generators(g) == reference_canonical_search(g)[2]
        assert searched == [g]

    def test_a_returned_list_is_a_copy(self):
        g = cycle_graph(6)
        gens = automorphism_generators(g)
        want = list(gens)
        gens.append((1, 0, 2, 3, 4, 5))
        gens[0] = tuple(range(6))
        assert automorphism_generators(g) == want

    def test_the_cache_stays_within_its_bound(self, monkeypatch):
        rng = random.Random(18)
        graphs = set()
        while len(graphs) < canon._SEARCHES + 40:
            graphs.add(random_graph(rng, 10, 0.5))
        searched = self._counted(monkeypatch)
        for g in graphs:
            canonical_form(g)
            assert canon._search.cache_info().currsize <= canon._SEARCHES
        assert canon._search.cache_info().currsize == canon._SEARCHES
        assert len(searched) == len(graphs)
