"""Classification sweeps, verification reports, and tables."""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from fractions import Fraction

import pytest

from maxnik import catalog, smallgraphs, survey
from maxnik.canon import are_isomorphic
from maxnik.catalog import named_graph
from maxnik.certify import check_necessary
from maxnik.errors import ValidationError
from maxnik.graphs import complete_graph, graph6_decode, graph6_encode
from maxnik.planarity import KApexResult, is_maximal_2apex
from maxnik.smallgraphs import CLASS_COUNTS
from maxnik.survey import (classified_maxnik, enumerate_graphs,
                           enumerate_maxnik, enumerate_triangulations,
                           maximal_2apex_graphs, table_deg, table_ve,
                           verify_order9, verify_size20)

from conftest import (reference_class_counts, reference_enumerate_graphs,
                      sweep_bounds_check)

# sha256 of the graph6 lines, as the extend-and-deduplicate loop gave them
GOLDEN_CLASSES = {7: "0119e1e0676b729511fc1bd3e7f87d896ec62ad29925928baa5ad9528b69c540",
                  8: "87e11fc60398f2e7ba2d8396d7fb807be8b9d595c32e6546973f3dfa7302aa37"}


def _digest(graphs) -> str:
    return hashlib.sha256("".join(graph6_encode(g) + "\n" for g in graphs).encode()).hexdigest()


class TestEnumeration:
    def test_class_counts(self):
        assert [len(enumerate_graphs(n)) for n in range(1, 8)] == \
            [1, 2, 4, 11, 34, 156, 1044]

    def test_matches_extend_and_deduplicate(self):
        for n in range(1, 8):
            assert enumerate_graphs(n) == reference_enumerate_graphs(n)

    def test_golden_digests(self):
        for n, digest in GOLDEN_CLASSES.items():
            assert _digest(enumerate_graphs(n)) == digest

    def test_order8_searches_only_children_in_the_last_root_cell(self, monkeypatch):
        # 18,272 children pass the degree filter; 5,901 of them have the new
        # vertex outside the last cell of the root partition
        monkeypatch.setattr(smallgraphs, "_CLASS_CACHE",
                            {n: enumerate_graphs(n) for n in range(1, 8)})
        searched = {"child": 0, "parent": 0}
        real = smallgraphs._canonical_search

        def counted(g, root=None):
            searched["parent" if root is None else "child"] += 1
            return real(g, root)

        monkeypatch.setattr(smallgraphs, "_canonical_search", counted)
        assert _digest(enumerate_graphs(8)) == GOLDEN_CLASSES[8]
        assert searched == {"child": 12371, "parent": 1044}

    def test_triangulations(self):
        assert len(enumerate_triangulations(5)) == 1
        assert are_isomorphic(enumerate_triangulations(5)[0],
                              complete_graph(5).without_edge(0, 1))
        assert len(enumerate_triangulations(6)) == 2
        assert len(enumerate_triangulations(7)) == 5

    def test_maxnik_counts_through_order7(self):
        for n in range(1, 7):
            got = enumerate_maxnik(n)
            assert len(got) == 1
            assert got[0].is_complete()
        at7 = enumerate_maxnik(7)
        assert len(at7) == 1
        assert are_isomorphic(at7[0], named_graph("K7^-").graph)

    def test_maximal_2apex_small(self):
        assert maximal_2apex_graphs(4) == (complete_graph(4),)
        assert len(maximal_2apex_graphs(9)) == 5


class TestSizeWindows:
    """``enumerate_graphs(n, sizes)`` generates only the classes of those sizes.

    Each windowed call starts from an empty class cache, so it runs the
    generation and not the cut from a cached full order."""

    @staticmethod
    def _generated(monkeypatch, n, sizes):
        monkeypatch.setattr(smallgraphs, "_CLASS_CACHE", {})
        return enumerate_graphs(n, sizes)

    def test_every_size_through_order7_matches_the_full_enumeration(self, monkeypatch):
        full = {n: enumerate_graphs(n) for n in range(1, 8)}
        for n, graphs in full.items():
            for m in range(n * (n - 1) // 2 + 1):
                assert self._generated(monkeypatch, n, range(m, m + 1)) == \
                    tuple(g for g in graphs if g.m == m), (n, m)

    def test_order8_windows_match_the_full_enumeration(self, monkeypatch):
        full = enumerate_graphs(8)
        windows = [range(m, m + 1) for m in (0, 1, 12, 14, 18, 20, 25, 27, 28)]
        for sizes in (*windows, range(12, 21), range(20, 31)):
            assert self._generated(monkeypatch, 8, sizes) == \
                tuple(g for g in full if g.m in sizes), sizes

    def test_empty_and_stepped_windows(self):
        assert enumerate_graphs(5, range(11, 20)) == ()
        assert enumerate_graphs(5, range(4, 2)) == ()
        with pytest.raises(ValueError):
            enumerate_graphs(5, range(0, 10, 2))

    def test_class_count_table(self):
        assert [sum(CLASS_COUNTS[n]) for n in range(1, 10)] == \
            [1, 2, 4, 11, 34, 156, 1044, 12346, 274668]
        for n in range(1, 10):
            assert CLASS_COUNTS[n] == reference_class_counts(n), n

    def test_full_enumeration_counts_each_size_as_the_table(self):
        for n in range(1, 9):
            by_size = Counter(g.m for g in enumerate_graphs(n))
            assert tuple(by_size[m] for m in range(len(CLASS_COUNTS[n]))) == CLASS_COUNTS[n]

    def test_cold_order8_maxnik_sweep_searches_62_graphs(self, monkeypatch):
        # 29 parents, and 33 children that are each kept: every class of the
        # windows on the way down from 25 edges. The full order searches 14,876
        want = tuple(g for g in enumerate_graphs(8) if is_maximal_2apex(g))
        monkeypatch.setattr(smallgraphs, "_CLASS_CACHE", {})
        searched = []
        real = smallgraphs._canonical_search

        def counted(g, root=None):
            searched.append(g)
            return real(g, root)

        monkeypatch.setattr(smallgraphs, "_canonical_search", counted)
        assert enumerate_maxnik.__wrapped__(8) == want
        assert len(searched) == 62


class TestOrder9:
    def test_report(self):
        rep = verify_order9()
        assert rep.maximal_2apex_count == 5
        assert len(rep.members) == 7
        assert rep.sizes == (21, 29, 30, 30, 30, 30, 30)
        names = {n for n, _, _ in rep.members}
        assert names == {"Big-Y", "Long-Y", "Hat", "House", "Pentagon-bar",
                         "E9", "G9,29"}
        assert "published" in rep.completeness_note

    def test_json(self):
        blob = verify_order9().to_json()
        assert blob["maximal_2apex_count"] == 5
        assert len(blob["members"]) == 7

    @pytest.mark.parametrize("swap", ["relabelled", "duplicate"])
    def test_a_swapped_row_fails_the_report(self, monkeypatch, swap):
        # Hat's row becomes another order-9, size-30 graph: Hat on other
        # labels, or a second copy of Big-Y
        rows = dict(catalog._ORDER9_JOINS)
        hat = graph6_decode(rows["Hat"])
        rows["Hat"] = (graph6_encode(hat.relabel(range(8, -1, -1))) if swap == "relabelled"
                       else rows["Big-Y"])
        assert rows["Hat"] != dict(catalog._ORDER9_JOINS)["Hat"]
        monkeypatch.setattr(catalog, "_ORDER9_JOINS", tuple(rows.items()))
        catalog._table_graph.cache_clear()
        catalog.named_graph.cache_clear()
        try:
            with pytest.raises(ValidationError, match="triangulation joins"):
                verify_order9()
        finally:
            catalog._table_graph.cache_clear()
            catalog.named_graph.cache_clear()


@pytest.fixture(scope="module")
def size20():
    """One verify_size20 report, order-9 sweep included, shared by TestSize20."""
    return verify_size20()


class TestSize20:
    def test_report_without_order9_sweep(self, size20):
        rep = size20
        assert rep.count_at_most_20 == 7
        g = named_graph("K7^-").graph
        assert are_isomorphic(graph6_decode(rep.unique_size20), g)

    def test_order_rows_shape(self, size20):
        rep = size20
        by_order = {o: (c, m) for o, c, m in rep.order_rows}
        assert by_order[7] == (1, 1)
        assert by_order[8][1] == 0
        for n in range(1, 7):
            assert by_order[n] == (0, 0)

    def test_full_order9_sweep(self, size20):
        rep = size20
        # every order-9 size-20 extension is 2-apex, hence not edge-maximal
        assert rep.order9_candidates == 315_769
        assert rep.count_at_most_20 == 7
        blob = rep.to_json()
        assert blob["order9"] == {"candidates": 315_769}
        assert blob["unique_size20"] == rep.unique_size20
        assert not any("published low-size" in note for note in rep.notes)

    def test_an_order9_graph_that_is_not_2apex_stops_the_sweep(self, monkeypatch):
        monkeypatch.setattr(survey, "is_k_apex", lambda g, k: KApexResult(False, None))
        with pytest.raises(ValidationError, match="is not 2-apex") as caught:
            survey._order9_size20_sweep()
        child = graph6_decode(str(caught.value).split()[3])
        assert (child.n, child.m) == (9, 20)


class TestTables:
    def test_ratio_table_matches_published_values(self):
        expected = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2),
                    Fraction(2), Fraction(5, 2), Fraction(20, 7),
                    Fraction(25, 8), Fraction(21, 9)]
        got = [r for _, r in table_ve().rows]
        assert got == expected

    def test_degree_table_matches_through_order8(self):
        table = table_deg()
        for row in table.rows:
            if row.order <= 8:
                assert row.mismatches == ()

    def test_order9_discrepancy_reported(self):
        table = table_deg()
        notes = table.discrepancies
        assert len(notes) == 1
        assert "order 9" in notes[0]
        assert "minimum-degree" in notes[0]
        row9 = table.rows[8]
        assert row9.computed_min == (4, 6)
        assert row9.reference_min == (4, 7)
        assert row9.computed_max == (5, 8) == row9.reference_max

    def test_order9_minimum_degree_7_is_outside_the_size_window(self):
        # 9 vertices of degree at least 7 need ceil(63 / 2) = 32 edges, and
        # the size window allows at most 5 * 9 - 15 = 30. Such a graph is K9
        # less a matching, as its complement has maximum degree at most 1.
        assert math.ceil(9 * 7 / 2) == 32 > 5 * 9 - 15
        for k in range(5):
            g = complete_graph(9)
            for v in range(0, 2 * k, 2):
                g = g.without_edge(v, v + 1)
            assert (g.m, min(g.degrees())) == (36 - k, 7 if k else 8)
            assert "size-window" in check_necessary(g).failures()
        assert max(min(g.degrees()) for g in classified_maxnik(9)) == 6

    def test_renderers(self):
        assert "20/7" in table_ve().render()
        assert "order" in table_deg().render()


class TestBounds:
    def test_classified_graphs_pass_necessary_conditions(self):
        assert sweep_bounds_check(max_order=7) == []

    def test_order9_members_pass(self):
        for g in classified_maxnik(9):
            assert check_necessary(g).all_pass
