"""The bit-row graph core against verbatim copies of the code it replaced.

``tests/conftest.py`` keeps the bit-list graph6 codec, the validating
constructor, ``delete_vertices``, ``identified_union`` and the
subgraph-based branch-set check as they were. Every graph, string,
exception class and message must match them.
"""

from __future__ import annotations

import random

import pytest

from maxnik.graphs import (Graph, complete_graph, graph6_decode, graph6_encode,
                           identified_union)
from maxnik.minors import MinorWitness
from maxnik.primality import _pieces

from conftest import (cycle_graph, outcome, random_graph, reference_branch_sets_valid,
                      reference_delete_vertices, reference_graph,
                      reference_graph6_decode, reference_graph6_encode,
                      reference_identified_union, reference_subgraph,
                      shaped_random_graph)

ORDERS = range(1, 65)


def _graphs(seed: int):
    """Three seeded random graphs per order 1..64: sparse, medium, dense."""
    rng = random.Random(seed)
    for n in ORDERS:
        for p in (0.1, 0.5, 0.9):
            yield rng, random_graph(rng, n, p)


def _same_graph(got: Graph, want: Graph) -> None:
    assert (got.n, got.rows) == (want.n, want.rows)
    assert type(got.rows) is tuple
    assert hash(got) == hash(want)


def _same_outcome(got, want) -> None:
    if want[0] == "ok":
        assert got[0] == "ok"
        _same_graph(got[1], want[1])
    else:
        assert got == want


class TestCodec:
    def test_random_graphs_every_order(self):
        for _, g in _graphs(8):
            text = graph6_encode(g)
            assert text == reference_graph6_encode(g)
            _same_graph(graph6_decode(text), reference_graph6_decode(text))
            _same_graph(graph6_decode(text), g)

    def test_long_forms(self):
        for n in (63, 64):
            for g in (complete_graph(n), cycle_graph(n), random_graph(random.Random(n), n, 0.3)):
                text = graph6_encode(g)
                assert text.startswith("~") and text == reference_graph6_encode(g)
                _same_graph(graph6_decode(text), g)

    @pytest.mark.parametrize("text", [
        # the malformed strings of test_graph6.py
        "", "C~~", "C", "C\x1c", "B~", "~~~~~~~~",
        "~" + chr(63) + chr(64) + chr(64) + "?",
        # one check at a time, in the codec's order
        "   ", ">>graph6<<", "C~\x7f", "é", "~", "~?", "~??", "~~", "~~?",
        "~??~", "~???", "~?~~", "?", "~?@?", "~?@~" + "?" * 10,
        "A_", "A?", "A?" + "?", "B?", "B" + chr(63 + 1), "@?",
        " >>graph6<<C~\n", "C~ ", "\tD~{", "~?@@", "~?@~",
        # data byte counts and padding at the long-form orders 63 and 64
        "~?@?" + "~" * 336, "~?@?" + "~" * 335, "~?@?" + "~" * 337,
        "~?@?" + "~" * 335 + "\x80", "~??~" + "~" * 325 + "w",
        "~??~" + "~" * 325 + "~", "~??~" + "~" * 325 + "x",
    ])
    def test_malformed_and_edge_strings(self, text):
        assert outcome(graph6_decode, text) == outcome(reference_graph6_decode, text)

    def test_every_short_string_of_orders_one_to_four(self):
        # every header plus every possible data byte, valid or not
        for head in "?@ABC":
            for body in [""] + [chr(c) for c in range(60, 128)]:
                text = head + body
                assert outcome(graph6_decode, text) == outcome(reference_graph6_decode, text), text


class TestConstructor:
    def test_valid_rows(self):
        for _, g in _graphs(9):
            _same_graph(Graph(g.n, list(g.rows)), reference_graph(g.n, g.rows))

    def test_every_rejection_keeps_its_class_and_message(self):
        cases = [(0, []), (65, [0] * 65), (-1, []), (2, [0]), (2, [0, 0, 0]),
                 (2, [1, 0]), (2, [4, 0]), (1, [-1]), (3, [2, 0, 0]),
                 (3, [6, 5, 3, 0]), (2, [2, 0])]
        rng = random.Random(10)
        for _, g in _graphs(10):
            rows = list(g.rows)
            n = g.n
            for _ in range(3):
                bad = list(rows)
                kind = rng.randrange(4)
                v = rng.randrange(n)
                if kind == 0:  # one or more half edges
                    for _ in range(rng.randint(1, 3)):
                        a, b = rng.randrange(n), rng.randrange(n)
                        if a != b:
                            bad[a] ^= 1 << b
                elif kind == 1:
                    bad[v] |= 1 << v
                elif kind == 2:
                    bad[v] |= 1 << rng.randrange(n, n + 3)
                else:  # a lower half edge with no upper partner
                    a, b = sorted(rng.sample(range(n), 2)) if n > 1 else (0, 0)
                    if a != b and not bad[b] >> a & 1:
                        bad[b] |= 1 << a
                cases.append((n, bad))
        assert len(cases) > 500
        rejected = 0
        for n, rows in cases:
            want = outcome(reference_graph, n, rows)
            _same_outcome(outcome(Graph, n, rows), want)
            rejected += want[0] != "ok"
        assert rejected > 400

    def test_both_halves_of_the_symmetry_check(self):
        # every upper bit mirrored, plus a lower bit with no upper partner:
        # only the popcount test sees it, and the full scan names the pair
        rows = [0b010, 0b001, 0b001]
        assert outcome(Graph, 3, rows) == outcome(reference_graph, 3, rows) == (
            ValueError, "asymmetric adjacency at (2, 0)")
        rows = [0b110, 0b001, 0b000]  # the upper bit 0->2 is not mirrored
        assert outcome(Graph, 3, rows) == outcome(reference_graph, 3, rows) == (
            ValueError, "asymmetric adjacency at (0, 2)")


class TestDerivedGraphs:
    def test_delete_vertices_and_subgraph(self):
        for rng, g in _graphs(11):
            for _ in range(3):
                doomed = [v for v in range(g.n) if rng.random() < rng.random()]
                _same_outcome(outcome(g.delete_vertices, doomed),
                              outcome(reference_delete_vertices, g, doomed))
                keep = [v for v in range(g.n) if v not in doomed]
                rng.shuffle(keep)
                _same_outcome(outcome(g.subgraph, keep), outcome(reference_subgraph, g, keep))

    def test_deletion_edge_cases(self):
        g = random_graph(random.Random(12), 64, 0.5)
        for doomed in ([], [63], [0], list(range(1, 64, 2)), list(range(63)),
                       [5, 5, 70, 200], range(64), [-1], iter([3, 4])):
            doomed = list(doomed)
            _same_outcome(outcome(g.delete_vertices, doomed),
                          outcome(reference_delete_vertices, g, doomed))
        for keep in ([], [64, 65], [-1], [0.0, 1], [63], range(64)):
            keep = list(keep)
            _same_outcome(outcome(g.subgraph, keep), outcome(reference_subgraph, g, keep))

    def test_identified_union(self):
        rng = random.Random(13)
        for _ in range(300):
            g = random_graph(rng, rng.randint(1, 32), rng.random())
            h = random_graph(rng, rng.randint(1, 32), rng.random())
            t = rng.randint(0, min(g.n, h.n))
            g_sites = rng.sample(range(g.n), t)
            h_sites = rng.sample(range(h.n), t)
            _same_graph(identified_union(g, g_sites, h, h_sites),
                        reference_identified_union(g, g_sites, h, h_sites))

    def test_identified_union_rejections(self):
        k3 = complete_graph(3)
        assert outcome(identified_union, k3, (0, 1), k3, (0,)) == (
            ValueError, "site lists differ in length")
        assert outcome(identified_union, k3, (0, 0), k3, (0, 1)) == (
            ValueError, "site lists must not repeat vertices")
        assert outcome(identified_union, complete_graph(40), (), complete_graph(30), ())[0] \
            .__name__ == "OrderOverflowError"
        for g_sites, h_sites in (((3,), (0,)), ((0,), (3,)), ((-1,), (0,)), ((0,), (-1,))):
            assert outcome(identified_union, k3, g_sites, k3, h_sites) == (
                ValueError, "site outside its graph")

    def test_pieces_match_the_delete_and_split_route(self):
        rng = random.Random(14)
        for _ in range(1500):
            g = shaped_random_graph(rng)
            cut = sorted(rng.sample(range(g.n), rng.randint(0, min(3, g.n))))
            want = []
            if len(cut) < g.n:
                kept = [v for v in range(g.n) if v not in cut]
                for comp in reference_delete_vertices(g, cut).components():
                    want.append(sorted([kept[i] for i in range(len(kept)) if comp >> i & 1]
                                       + cut))
            got = _pieces(g, cut)
            assert [[v for v in range(g.n) if m >> v & 1] for m in got] == want
            for m, verts in zip(got, want):
                _same_graph(g._induced(m), reference_subgraph(g, verts))


class TestBranchSets:
    def test_random_witnesses(self):
        rng = random.Random(15)
        checked = {True: 0, False: 0}
        for _ in range(600):
            host = shaped_random_graph(rng)
            pattern = random_graph(rng, rng.randint(1, 5), 0.7)
            verts = list(range(-1, host.n + 1))
            rng.shuffle(verts)
            sets = []
            for _ in range(pattern.n + rng.choice((-1, 0, 0, 0, 1))):
                size = rng.randint(0, 3)
                sets.append(tuple(sorted(verts[:size])))
                if rng.random() < 0.8:
                    verts = verts[size:]  # mostly disjoint
            witness = MinorWitness(tuple(sets))
            want = reference_branch_sets_valid(witness, host, pattern)
            assert witness.validate(host, pattern) == want, (host, pattern, sets)
            checked[want] += 1
        assert min(checked.values()) >= 10

    def test_connectivity_cases(self):
        path = Graph(4, [0b0010, 0b0101, 0b1010, 0b0100])  # 0-1-2-3
        k2 = complete_graph(2)
        for sets in (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0,), (1, 2, 3)),
                     ((0, 3), (1,)), ((1, 1), (2,)), ((0,), (4,)), ((), (1,)),
                     ((0, 1), (1, 2))):
            witness = MinorWitness(sets)
            assert witness.validate(path, k2) == reference_branch_sets_valid(witness, path, k2)
        assert MinorWitness(((0, 1), (2, 3))).validate(path, k2)
        assert not MinorWitness(((0, 2), (1, 3))).validate(path, k2)  # disconnected sets
