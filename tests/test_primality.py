"""Prime/composite classification and clique-sum decomposition."""

from __future__ import annotations

import dataclasses
import random

import pytest

from maxnik import certify as certify_module
from maxnik import graphs, primality
from maxnik.canon import are_isomorphic, canonical_form
from maxnik.catalog import named_graph
from maxnik.certify import certify_maxnik
from maxnik.construct import chain_graphs, npp5_family, size_construct
from maxnik.graphs import complete_graph
from maxnik.primality import clique_cutsets, decompose, is_prime
from maxnik.smallgraphs import enumerate_graphs

from conftest import (brute_connectivity, check_lemma_complement_k2, check_lemma_two_cut,
                      cycle_graph, disjoint_union, leaves, path_graph, random_graph,
                      re_glue, reference_clique_cutsets, reference_components)

PRIME_NAMES = ["K8-3K2", "Pentagon-bar", "E9", "G9,29"]
COMPOSITE_NAMES = ["K7^-", "K8-P3", "Big-Y", "Long-Y", "Hat", "House"]


class TestCutsets:
    def test_complete_graphs_have_none(self):
        for n in (2, 4, 6):
            assert clique_cutsets(complete_graph(n)) == []

    def test_k7_minus_has_a_5_clique_cutset(self):
        cuts = clique_cutsets(named_graph("K7^-").graph)
        assert cuts and all(len(c) == 5 for c in cuts)

    def test_e9_has_no_small_cutsets(self):
        e9 = named_graph("E9").graph
        assert clique_cutsets(e9) == []
        assert brute_connectivity(e9) == 4  # cutsets would need 4+ mutual edges

    def test_cut_vertex_found(self):
        g = path_graph(4)
        cuts = clique_cutsets(g)
        assert ((1,) in cuts) and ((2,) in cuts)

    def test_minimality(self):
        # K4 glued to K4 along a triangle: the triangle is the unique minimal cutset
        from maxnik.graphs import identified_union
        g = identified_union(complete_graph(4), (0, 1, 2),
                             complete_graph(4), (0, 1, 2))
        cuts = clique_cutsets(g)
        assert cuts == [(0, 1, 2)]

    def test_disconnected_rejected(self):
        for search in (clique_cutsets, is_prime, decompose):
            with pytest.raises(ValueError):
                search(disjoint_union(complete_graph(2), complete_graph(2)))


def _oracle_graphs():
    """Planner graphs, K1, K2, K7 and 1,500 seeded random connected graphs."""
    graphs = [size_construct(n)[1] for n in range(20, 61) if n != 22]
    graphs += [complete_graph(1), complete_graph(2), complete_graph(7)]
    rng = random.Random(20210105)
    randoms = []
    while len(randoms) < 1500:
        g = random_graph(rng, rng.randint(2, 14), rng.uniform(0.15, 0.7))
        if g.is_connected():
            randoms.append(g)
    return graphs + randoms


class TestLazySearchMatchesReference:
    """The lazy first-cutset search against the eager list it replaced."""

    @pytest.fixture(scope="class")
    def cases(self):
        return [(g, reference_clique_cutsets(g)) for g in _oracle_graphs()]

    def test_cutsets_and_primality(self, cases):
        assert sum(bool(ref) for _, ref in cases) > 500  # composites are common
        for g, ref in cases:
            assert clique_cutsets(g) == ref
            assert is_prime(g) == (not ref, ref[0] if ref else None)

    def test_decomposition(self, cases, monkeypatch):
        fast = [decompose(g).to_json() for g, _ in cases]
        monkeypatch.setattr(primality, "_minimal_clique_cutsets",
                            lambda g: iter(reference_clique_cutsets(g)))
        primality._decompose.cache_clear()
        assert fast == [decompose(g).to_json() for g, _ in cases]

    def test_certify_sees_the_small_cutsets_in_order(self, cases, monkeypatch):
        seen, split = [], []

        def recorded_cutsets(g):
            for cut in primality._minimal_clique_cutsets(g):
                seen.append(cut)
                yield cut

        def recorded_split(g, cut):
            split.append(cut)
            return primality._split(g, cut)

        # no lemma applies, so _certify_by_cutsets reads every split it would try
        monkeypatch.setattr(certify_module, "_minimal_clique_cutsets", recorded_cutsets)
        monkeypatch.setattr(certify_module, "_split", recorded_split)
        monkeypatch.setattr(certify_module, "lemma_conclusion", lambda *_args: (None, ""))
        for g, ref in cases:
            seen.clear()
            split.clear()
            certify_module._small_splits.cache_clear()  # a graph met before is read back
            assert certify_module._certify_by_cutsets(g, want_maxnik=False) is None
            small = [c for c in ref if len(c) <= 3]
            assert seen == ref[:len(small) + 1]  # it stops at the first larger cutset
            assert split == small  # and builds pieces for none but the small ones
            for cut, pieces in certify_module._small_splits(g):
                assert [piece for _, piece in pieces] == [g.subgraph(v) for v, _ in pieces]


class TestCutVertices:
    def test_block_mask_matches_the_component_oracle(self):
        connected = [g for n in range(1, 8) for g in enumerate_graphs(n) if g.is_connected()]
        assert len(connected) == 996  # OEIS A001349, orders 1-7
        for g in _oracle_graphs() + connected:
            want = sum(1 << v for v in range(g.n)
                       if len(reference_components(g, (v,))) >= 2)
            assert primality._cut_vertices(g) == want, g


class TestPrimeComposite:
    def test_small_complete_graphs_prime(self):
        for n in (1, 2, 3, 4, 5, 6):
            assert is_prime(complete_graph(n)).prime

    @pytest.mark.parametrize("name", PRIME_NAMES)
    def test_primes(self, name):
        assert is_prime(named_graph(name).graph).prime

    @pytest.mark.parametrize("name", COMPOSITE_NAMES)
    def test_composites(self, name):
        verdict = is_prime(named_graph(name).graph)
        assert not verdict.prime
        assert verdict.witness is not None

    def test_composite_witness_disconnects(self):
        for name in COMPOSITE_NAMES:
            g = named_graph(name).graph
            cut = is_prime(g).witness
            assert len(g.delete_vertices(cut).components()) >= 2


def _split_parts(g, cut):
    kept = [v for v in range(g.n) if v not in cut]
    parts = []
    from maxnik.graphs import _bits
    for comp in g.delete_vertices(cut).components():
        verts = sorted([kept[i] for i in _bits(comp)] + list(cut))
        parts.append(g.subgraph(verts))
    return parts


def _has_recipe_split(g, left, right):
    """Some minimal clique cutset splits g into the two recipe factors."""
    for cut in clique_cutsets(g):
        parts = _split_parts(g, cut)
        if len(parts) != 2:
            continue
        a, b = parts
        if (are_isomorphic(a, left) and are_isomorphic(b, right)) or \
                (are_isomorphic(a, right) and are_isomorphic(b, left)):
            return True
    return False


class TestDecompositions:
    def test_k7_minus_is_two_k6_over_k5(self):
        d = decompose(named_graph("K7^-").graph)
        assert len(d.cutset) == 5
        primes = leaves(d)
        assert len(primes) == 2
        assert all(are_isomorphic(leaf, complete_graph(6)) for leaf in primes)

    def test_recipe_splits(self):
        k6 = complete_graph(6)
        cases = [
            ("K7^-", k6, k6),
            ("K8-P3", named_graph("K7^-").graph, k6),
            ("Big-Y", named_graph("K8-P3").graph, k6),
            ("Long-Y", named_graph("K8-3K2").graph, k6),
            ("Hat", named_graph("K8-P3").graph, k6),
            ("House", named_graph("K8-P3").graph, k6),
        ]
        for name, left, right in cases:
            assert _has_recipe_split(named_graph(name).graph, left, right), name

    def test_reglue_identity_on_named_graphs(self):
        for name in PRIME_NAMES + COMPOSITE_NAMES + ["K5", "K6"]:
            g = named_graph(name).graph
            d = decompose(g)
            assert canonical_form(re_glue(d)) == canonical_form(g)

    def test_re_glue_is_exact(self):
        """``re_glue`` rebuilds the input on its own labels, not up to isomorphism."""
        graphs = [size_construct(n)[1] for n in range(20, 178) if n != 22]
        rng = random.Random(20261019)
        while len(graphs) < 157 + 175:
            g = random_graph(rng, rng.randint(4, 14), rng.uniform(0.2, 0.6))
            if g.is_connected():
                graphs.append(g)
        composite = 0
        for g in graphs:
            d = decompose(g)
            composite += not d.is_leaf
            assert re_glue(d) == g
        assert composite > 200

    def test_self_check_rejects_a_split_that_loses_an_edge(self, monkeypatch):
        splits = primality._splits
        top = named_graph("K7^-").graph

        def lossy_splits(g):
            for cut, pieces in splits(g):
                if g == top:  # drop a non-cutset edge from the first piece
                    verts, piece = pieces[0]
                    u, v = next(e for e in piece.edges()
                                if not {verts[e[0]], verts[e[1]]} <= set(cut))
                    pieces[0] = (verts, piece.without_edge(u, v))
                yield cut, pieces

        monkeypatch.setattr(primality, "_splits", lossy_splits)
        with pytest.raises(AssertionError, match="does not re-glue"):
            decompose(top)

    def test_self_check_rejects_a_lost_edge_two_levels_down(self, monkeypatch):
        g = size_construct(80)[1]
        depth_one = [p for p in decompose(g).parts if not p.is_leaf]
        assert depth_one  # the tree has a split below its top one
        below = depth_one[0].graph
        splits = primality._splits

        def lossy_splits(h):
            for cut, pieces in splits(h):
                if h == below:  # drop an edge off the cutset from a depth-2 piece
                    verts, piece = pieces[0]
                    u, v = next(e for e in piece.edges()
                                if not {verts[e[0]], verts[e[1]]} <= set(cut)
                                and piece.without_edge(*e).is_connected())
                    pieces[0] = (verts, piece.without_edge(u, v))
                yield cut, pieces

        monkeypatch.setattr(primality, "_splits", lossy_splits)
        primality._decompose.cache_clear()
        with pytest.raises(AssertionError, match="does not re-glue"):
            decompose(g)

    def test_leaves_are_prime(self):
        for name in COMPOSITE_NAMES:
            d = decompose(named_graph(name).graph)
            for leaf in leaves(d):
                assert is_prime(leaf).prime

    def test_long_y_leaves(self):
        d = decompose(named_graph("Long-Y").graph)
        primes = leaves(d)
        assert len(primes) == 2
        matched = {
            "K6": sum(1 for g in primes if are_isomorphic(g, complete_graph(6))),
            "K8-3K2": sum(1 for g in primes
                          if are_isomorphic(g, named_graph("K8-3K2").graph)),
        }
        assert matched == {"K6": 1, "K8-3K2": 1}

    def test_json_shape(self):
        blob = decompose(named_graph("K7^-").graph).to_json()
        assert blob["prime"] is False
        assert len(blob["cutset"]) == 5
        assert all(part["prime"] for part in blob["parts"])

    def test_exactly_one_of_the_five_joins_is_prime(self):
        names = ("Big-Y", "Long-Y", "Hat", "House", "Pentagon-bar")
        flags = {n: is_prime(named_graph(n).graph).prime for n in names}
        assert sum(flags.values()) == 1
        assert flags["Pentagon-bar"]


def _tree_graphs(d):
    """The graph of every node of a decomposition tree, root first."""
    out = [d.graph]
    for part in d.parts:
        out += _tree_graphs(part)
    return out


class TestDecomposeWork:
    """Deterministic work counts of ``decompose`` from a cold cache."""

    PLANNER = range(20, 61)

    def test_planner_decompositions_run_636_flood_fills(self, monkeypatch):
        hosts = [size_construct(n)[1] for n in self.PLANNER if n != 22]
        fills = []
        real = graphs._reach

        def counted(*args):
            fills.append(args)
            return real(*args)

        # primality binds _reach by name; _components calls it in graphs
        monkeypatch.setattr(graphs, "_reach", counted)
        monkeypatch.setattr(primality, "_reach", counted)
        for g in hosts:
            decompose(g)
        # 3524 when each call kept its own memo, and 5811 with a flood fill
        # per single vertex and a fresh search for every piece
        assert len(fills) == 636

    def test_one_split_search_per_distinct_graph(self, monkeypatch):
        """A cold run over every planner graph searches each distinct node
        once; a second run searches nothing and returns the same trees."""
        hosts = [size_construct(n)[1] for n in range(20, 178) if n != 22]
        hosts += [named_graph(name).graph for name in COMPOSITE_NAMES]
        searched = []
        real = primality._minimal_clique_cutsets

        def counted(g):
            searched.append(g)
            return real(g)

        monkeypatch.setattr(primality, "_minimal_clique_cutsets", counted)
        trees = [decompose(g) for g in hosts]
        nodes = [node for tree in trees for node in _tree_graphs(tree)]
        assert len(searched) == len(set(searched)) and set(searched) == set(nodes)
        assert len(nodes) > len(searched)  # pieces recur, within and across trees
        searched.clear()
        for g, tree in zip(hosts, trees):
            assert decompose(g) is tree
        assert searched == []

    def test_a_cached_tree_cannot_be_edited(self):
        tree = decompose(size_construct(80)[1])
        nodes = [tree]
        for node in nodes:
            nodes += node.parts
            assert isinstance(node.parts, tuple)
            assert isinstance(node.part_vertices, tuple)
            assert all(isinstance(verts, tuple) for verts in node.part_vertices)
            for field in ("graph", "cutset", "parts", "part_vertices"):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(node, field, None)
        assert len(nodes) > 3
        assert decompose(size_construct(80)[1]) is tree

    def test_the_cache_is_bounded(self):
        maxsize = primality._decompose.cache_info().maxsize
        assert isinstance(maxsize, int) and maxsize > 0


class TestLemmaChecks:
    def test_chain_two_cut(self):
        g, cert = chain_graphs(2)
        report = check_lemma_two_cut(g, cert)
        assert not report.vacuous
        assert report.ok
        e9 = named_graph("E9").graph
        for check in report.checks:
            assert check.edge_present
            assert set(check.piece_verdicts) == {"MAXNIK"}
        # the designated cut splits into two copies of E9
        x, y = report.checks[0].cut
        parts = _split_parts(g, (x, y))
        assert any(are_isomorphic(p, e9) for p in parts)

    def test_npp5_cut_at_triangle_tip(self):
        g, cert = npp5_family(1)
        report = check_lemma_two_cut(g, cert)
        assert report.ok and not report.vacuous
        sizes = sorted(len(c.piece_verdicts) for c in report.checks)
        assert sizes[0] >= 2
        tip_checks = [c for c in report.checks if "MAXNIK" in c.piece_verdicts]
        assert tip_checks

    def test_k7_minus_vacuous(self):
        g = named_graph("K7^-").graph
        report = check_lemma_two_cut(g, certify_maxnik(g))
        assert report.vacuous and report.ok

    def test_requires_maxnik_certificate(self):
        from maxnik.certify import certify_nik
        g = complete_graph(6)
        with pytest.raises(ValueError):
            check_lemma_two_cut(g, certify_nik(g))

    def test_complement_k2_lemma(self):
        assert check_lemma_complement_k2(named_graph("K8-3K2").graph).ok
        assert check_lemma_complement_k2(named_graph("G9,29").graph).ok
        k4_minus = complete_graph(4).without_edge(0, 1)
        report = check_lemma_complement_k2(k4_minus)
        assert report.ok and report.is_complete_minus_edge and not report.prime

    def test_complement_k2_precondition(self):
        with pytest.raises(ValueError):
            check_lemma_complement_k2(cycle_graph(5))
