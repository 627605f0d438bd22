"""Minor containment against a brute-force contraction oracle; delta-wye moves."""

from __future__ import annotations

import random

import pytest

from maxnik import canon
from maxnik.canon import are_isomorphic, canonical_form
from maxnik.graphs import (complete_graph, complete_multipartite, from_edges,
                           triangles)
from maxnik.minors import (DELTA_Y, Y_DELTA, closure, delta_y, has_minor,
                           y_delta)
from maxnik.smallgraphs import enumerate_graphs

from conftest import (brute_force_minor, cycle_graph, random_graph,
                      reference_closure, reference_has_minor)


class TestHasMinor:
    def test_k5_in_k6(self):
        assert has_minor(complete_graph(6), complete_graph(5)).found

    def test_identity_witness(self):
        res = has_minor(complete_graph(7), complete_graph(7))
        assert res.found
        assert res.witness.branch_sets == tuple((v,) for v in range(7))

    def test_pattern_larger_than_host(self):
        assert not has_minor(complete_graph(4), complete_graph(5)).found
        # branch sets are nonempty and disjoint, so this holds even with
        # isolated pattern vertices
        assert not has_minor(complete_graph(4), from_edges(5, [])).found

    def test_petersen_has_k5(self):
        petersen = from_edges(10, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
                                   (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
                                   (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)])
        res = has_minor(petersen, complete_graph(5))
        assert res.found
        assert res.witness.validate(petersen, complete_graph(5))
        assert not has_minor(petersen, complete_graph(6)).found

    def test_witnesses_validate(self):
        rng = random.Random(30)
        for _ in range(60):
            host = random_graph(rng, rng.randint(4, 9), 0.55)
            pattern = rng.choice([complete_graph(3), complete_graph(4),
                                  cycle_graph(4), complete_multipartite(2, 3)])
            res = has_minor(host, pattern)
            if res.found:
                assert res.witness.validate(host, pattern)

    def test_oracle_agreement_sampled(self):
        rng = random.Random(31)
        patterns = [g for g in enumerate_graphs(4) if g.m >= 2]
        for _ in range(40):
            host = random_graph(rng, rng.randint(4, 6), rng.choice([0.4, 0.7]))
            for pattern in rng.sample(patterns, 4):
                assert has_minor(host, pattern).found == brute_force_minor(host, pattern)


class TestDeltaWye:
    def test_k4_move(self):
        g = delta_y(complete_graph(4), (0, 1, 2))
        assert (g.n, g.m) == (5, 6)
        assert sorted(g.degrees()) == [2, 2, 2, 3, 3]

    def test_k7_move(self):
        g = delta_y(complete_graph(7), (0, 1, 2))
        assert (g.n, g.m) == (8, 21)
        assert sorted(g.degrees()) == [3, 5, 5, 5, 6, 6, 6, 6]

    def test_size_invariance_random(self):
        rng = random.Random(32)
        done = 0
        while done < 100:
            g = random_graph(rng, rng.randint(4, 10), 0.6)
            from maxnik.graphs import triangles
            tris = triangles(g)
            if not tris:
                continue
            t = rng.choice(tris)
            assert delta_y(g, t).m == g.m
            done += 1

    def test_not_a_triangle_rejected(self):
        with pytest.raises(ValueError):
            delta_y(cycle_graph(5), (0, 1, 2))

    def test_y_delta_inverse_on_fresh_wye(self):
        g = delta_y(complete_graph(7), (0, 1, 2))
        back = y_delta(g, 7)
        assert are_isomorphic(back, complete_graph(7))

    def test_y_delta_star(self):
        star = from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert are_isomorphic(y_delta(star, 0), complete_graph(3))

    def test_y_delta_collapses_existing_edges(self):
        assert y_delta(complete_graph(4), 0).m == 3

    def test_wrong_degree_rejected(self):
        with pytest.raises(ValueError):
            y_delta(complete_graph(5), 0)


class TestClosure:
    def test_k7_triangle_to_wye_family(self):
        fam = closure([complete_graph(7)], {DELTA_Y})
        assert len(fam) == 14
        assert all(g.m == 21 for g in fam.members)

    def test_heawood_count(self):
        fam = closure([complete_graph(7)], {DELTA_Y, Y_DELTA})
        assert len(fam) == 20
        assert all(g.m == 21 for g in fam.members)

    def test_k3311_families(self):
        dy_only = closure([complete_multipartite(3, 3, 1, 1)], {DELTA_Y})
        assert len(dy_only) == 26
        both = closure([complete_multipartite(3, 3, 1, 1)], {DELTA_Y, Y_DELTA})
        assert len(both) == 58
        assert all(g.m == 22 for g in both.members)

    def test_genealogy_reaches_seed(self):
        fam = closure([complete_graph(7)], {DELTA_Y})
        seed_key = canonical_form(complete_graph(7)).key
        for key in fam.keys:
            hops = 0
            at = key
            while fam.genealogy[at] is not None:
                at = fam.genealogy[at][1]
                hops += 1
                assert hops <= len(fam)
            assert at == seed_key

    def test_members_are_closed_under_moves(self):
        from maxnik.graphs import triangles
        fam = closure([complete_graph(4)], {DELTA_Y, Y_DELTA})
        keys = set(fam.keys)
        for g in fam.members:
            for t in triangles(g):
                assert canonical_form(delta_y(g, t)).key in keys
            for v in range(g.n):
                if g.degree(v) == 3:
                    assert canonical_form(y_delta(g, v)).key in keys

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            closure([], {DELTA_Y})
        with pytest.raises(ValueError):
            closure([complete_graph(4)], set())
        with pytest.raises(ValueError):
            closure([complete_graph(4)], {"zz"})


def _petersen():
    return from_edges(10, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
                           (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
                           (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)])


def _relabelled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel(perm)


_BOTH = frozenset({DELTA_Y, Y_DELTA})
_ORBIT_CASES = {
    "k7-dy": ([complete_graph(7)], {DELTA_Y}),
    "k7-both": ([complete_graph(7)], _BOTH),
    "k3311-dy": ([complete_multipartite(3, 3, 1, 1)], {DELTA_Y}),
    "k3311-both": ([complete_multipartite(3, 3, 1, 1)], _BOTH),
    "k4-both": ([complete_graph(4)], _BOTH),
    "k6-both": ([complete_graph(6)], _BOTH),
    "petersen-both": ([_petersen()], _BOTH),
    "petersen-dy": ([_petersen()], {DELTA_Y}),
    "k4-k6-petersen": ([complete_graph(4), _petersen(), complete_graph(6)], _BOTH),
    # a seed isomorphic to an earlier one adds nothing
    "petersen-twice-k6": ([_petersen(), _petersen().relabel((3, 7, 0, 9, 1, 5, 8, 2, 6, 4)),
                           complete_graph(6)], _BOTH),
}


class TestOneChildPerOrbit:
    """``closure`` labels one child per automorphism orbit of its parent."""

    @pytest.mark.parametrize("name", sorted(_ORBIT_CASES))
    @pytest.mark.parametrize("relabel", [False, True])
    def test_same_family_as_labelling_every_child(self, name, relabel):
        seeds, moves = _ORBIT_CASES[name]
        if relabel:
            rng = random.Random(name)
            seeds = [_relabelled(g, rng) for g in seeds]
        got, want = closure(seeds, moves), reference_closure(seeds, moves)
        assert got.members == want.members
        assert got.keys == want.keys
        assert got.genealogy == want.genealogy
        assert list(got.genealogy) == list(want.genealogy)  # same discovery order

    def test_fewer_searches_than_children(self, monkeypatch):
        calls = []
        real = canon._canonical_search

        def counted(g):
            calls.append(g)
            return real(g)

        monkeypatch.setattr(canon, "_canonical_search", counted)
        fam = closure([complete_multipartite(3, 3, 1, 1)], _BOTH)
        children = sum(len(triangles(g)) + sum(1 for v in range(g.n) if g.degree(v) == 3)
                       for g in fam.members)
        # one search for the seed, then one per child orbit, not per child
        assert len(fam) < len(calls) < 1 + children

    def test_corrupted_generator_raises(self, monkeypatch):
        real = canon._canonical_search

        def corrupted(g):
            form, lab, autos = real(g)
            deg = g.degrees()
            u = 0
            v = next(w for w in range(g.n) if deg[w] != deg[u])
            bad = list(range(g.n))
            bad[u], bad[v] = v, u  # swaps vertices of different degrees
            return form, lab, autos + [tuple(bad)]

        monkeypatch.setattr(canon, "_canonical_search", corrupted)
        with pytest.raises(AssertionError, match="not an automorphism"):
            closure([complete_multipartite(3, 3, 1, 1)], {DELTA_Y})


def _twin_class_sizes(pattern) -> set[int]:
    """Sizes of the classes of vertices whose transposition is an automorphism."""
    rows = pattern.rows
    classes: list[list[int]] = []
    for a in range(pattern.n):
        for cls in classes:
            b = cls[0]
            if rows[a] & ~(1 << b) == rows[b] & ~(1 << a):
                cls.append(a)
                break
        else:
            classes.append([a])
    return {len(cls) for cls in classes}


class TestTwinOrderedRoots:
    """The twin-root cut returns exactly the unrestricted search's answer."""

    def test_witness_equals_unrestricted_search(self, lib):
        patterns = [complete_graph(5), complete_multipartite(3, 3), complete_graph(7),
                    complete_multipartite(3, 3, 1, 1)]
        patterns += [p.graph for p in lib.mmik_patterns]
        twin_sizes = set().union(*(_twin_class_sizes(p) for p in patterns))
        assert {2, 3, 7} <= twin_sizes
        rng = random.Random(2024)
        outcomes = set()
        for _ in range(30):
            host = random_graph(rng, rng.randint(7, 10), rng.choice((0.4, 0.5, 0.6, 0.7, 0.8)))
            for pattern in patterns:
                if pattern.n > host.n or pattern.m > host.m:
                    continue
                got = has_minor(host, pattern)
                assert got == reference_has_minor(host, pattern)
                if got.found:
                    assert got.witness.validate(host, pattern)
                outcomes.add(got.found)
        assert outcomes == {True, False}

    def test_negative_k7_query(self):
        # the unrestricted search tries every order of K7's branch sets here
        host = random_graph(random.Random(3), 13, 0.45)
        assert not has_minor(host, complete_graph(7)).found
        assert has_minor(host, complete_graph(7)) == reference_has_minor(host, complete_graph(7))
