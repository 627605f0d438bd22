"""Exhaustive classification sweeps, verification reports, and tables.

Everything here is certificate-scoped: the sweeps prove what they
enumerate and certify, and the reports flag explicitly which completeness
claims rest on the published classification instead of a local check
(order 9 beyond the seven members, and every order from ten up).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .canon import canonical_key_graph
from .catalog import _ORDER9_JOINS, named_graph
from .certify import VERDICT_MAXNIK, certify_maxnik
from .errors import ValidationError
from .graphs import Graph, graph6_encode
from .planarity import is_k_apex, is_maximal_2apex
from .smallgraphs import (enumerate_graphs, enumerate_triangulations,
                          maximal_2apex_graphs)

__all__ = [
    "enumerate_graphs", "enumerate_triangulations", "enumerate_maxnik",
    "maximal_2apex_graphs", "classified_maxnik", "verify_order9",
    "verify_size20", "table_ve", "table_deg", "Order9Report", "Size20Report",
    "RatioTable", "DegreeTable",
]


@lru_cache(maxsize=None)
def enumerate_maxnik(n: int) -> tuple[Graph, ...]:
    """All maximal knotless graphs of order n <= 8, swept over one size.

    In this range maximal knotless coincides with maximal 2-apex, which makes
    the sweep decidable: a 2-apex graph is knotless, and every class of order
    at most 8 that is not 2-apex certifies IK through a library minor, as
    ``test_every_class_of_order_at_most_8_certifies_unchanged`` checks.
    Only one size can hold a maximal 2-apex graph: below order 7 every graph
    is 2-apex, so the only one is K_n with n(n-1)/2 edges; from order 7 on,
    one has exactly 5n - 15 edges (``is_maximal_2apex``). The sweep
    generates the classes of that size and no others.
    """
    if not 1 <= n <= 8:
        raise ValueError("decidable sweep covers orders 1..8")
    size = n * (n - 1) // 2 if n < 7 else 5 * n - 15
    return tuple(g for g in enumerate_graphs(n, range(size, size + 1))
                 if is_maximal_2apex(g))


@lru_cache(maxsize=None)
def classified_maxnik(n: int) -> tuple[Graph, ...]:
    """The classified maximal knotless graphs of order n, 1 <= n <= 9."""
    if 1 <= n <= 8:
        return enumerate_maxnik(n)
    if n == 9:
        names = [*sorted(name for name, _ in _ORDER9_JOINS), "E9", "G9,29"]
        return tuple(named_graph(name).graph for name in names)
    raise ValueError("classification covers orders 1..9")


# -- order 9 --------------------------------------------------------------


@dataclass(frozen=True)
class Order9Report:
    members: tuple[tuple[str, str, str], ...]  # (name, graph6, rule)
    maximal_2apex_count: int
    sizes: tuple[int, ...]
    completeness_note: str

    def to_json(self) -> dict:
        return {
            "members": [{"name": n, "graph6": g, "rule": r} for n, g, r in self.members],
            "maximal_2apex_count": self.maximal_2apex_count,
            "sizes": list(self.sizes),
            "completeness_note": self.completeness_note,
        }


def verify_order9() -> Order9Report:
    """Certify the seven order-9 maximal knotless graphs.

    Also certifies that exactly five of them are maximal 2-apex (one per
    7-vertex triangulation): the five named rows of ``catalog`` must be the
    joins of the 7-vertex triangulations with K2, in key order. Completeness
    beyond the seven relies on the published classification of order-9
    obstructions, not on a local sweep.
    """
    joins = [(name, named_graph(name).graph) for name, _ in _ORDER9_JOINS]
    if tuple(g for _, g in joins) != maximal_2apex_graphs(9):
        raise ValidationError("the named order-9 rows are not the five triangulation joins")
    for _, g in joins:
        if not is_maximal_2apex(g):
            raise ValidationError("join of a triangulation with K2 is not maximal 2-apex")
    graphs = [*joins, *((name, named_graph(name).graph) for name in ("E9", "G9,29"))]
    members = []
    for name, g in graphs:
        cert = certify_maxnik(g)
        if cert.verdict != VERDICT_MAXNIK:
            raise ValidationError(f"{name} failed maximality certification")
        members.append((name, graph6_encode(g), cert.rule))
    return Order9Report(
        members=tuple(members),
        maximal_2apex_count=len(joins),
        sizes=tuple(sorted(g.m for _, g in graphs)),
        completeness_note=(
            "the seven members are certified maximal knotless and the"
            " maximal-2-apex count of five is exhaustive over 7-vertex"
            " triangulations; exclusion of any further order-9 graph rests"
            " on the published obstruction classification"),
    )


# -- size 20 ---------------------------------------------------------------


@dataclass(frozen=True)
class Size20Report:
    unique_size20: str
    count_at_most_20: int
    order_rows: tuple[tuple[int, int, int], ...]  # (order, candidates, maxnik hits)
    order9_candidates: int
    notes: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "unique_size20": self.unique_size20,
            "count_at_most_20": self.count_at_most_20,
            "order_rows": [
                {"order": o, "candidates": c, "maxnik": m} for o, c, m in self.order_rows],
            "order9": {"candidates": self.order9_candidates},
            "notes": list(self.notes),
        }


def _order9_size20_sweep() -> int:
    """Check every order-9, size-20 graph is 2-apex; returns how many there are.

    Every such graph is an order-8 graph of size m' plus a vertex of degree
    20 - m', which lies in 0..8, so m' lies in 12..20; the sweep walks all
    one-vertex extensions of the order-8 classes of those sizes. A 2-apex
    graph of order 9 with 20 < 30 = 5n - 15 edges is not maximal 2-apex,
    so adding some edge leaves it 2-apex and hence knotless: it is not
    maximal knotless. An extension found not 2-apex raises
    ``ValidationError`` naming it, since this argument would not cover it.
    """
    candidates = 0
    for parent in enumerate_graphs(8, range(12, 21)):
        d = 20 - parent.m
        candidates += math.comb(8, d)
        if is_k_apex(parent, 1).found:  # the new vertex is a second apex
            continue
        base = list(parent.rows) + [0]
        for nb_sel in combinations(range(8), d):
            rows = base.copy()
            nb = 0
            for v in nb_sel:
                nb |= 1 << v
                rows[v] |= 1 << 8
            rows[8] = nb
            child = Graph(9, rows)
            if not is_k_apex(child, 2).found:
                raise ValidationError(
                    f"order-9 size-20 graph {graph6_encode(child)} is not 2-apex")
    return candidates


def verify_size20() -> Size20Report:
    """The unique size-20 maximal knotless graph, plus the at-most-20 count."""
    rows = []
    hits: list[Graph] = []
    for n in range(1, 9):
        cands = enumerate_graphs(n, range(20, 21))
        found = [g for g in cands if is_maximal_2apex(g)]
        hits.extend(found)
        rows.append((n, len(cands), len(found)))
    candidates = _order9_size20_sweep()
    if len(hits) != 1:
        raise ValidationError(f"expected exactly one size-20 hit, found {len(hits)}")
    unique = hits[0]
    k7_minus = named_graph("K7^-").graph
    if canonical_key_graph(unique)[0] != canonical_key_graph(k7_minus)[0]:
        raise ValidationError("the size-20 hit is not K7 minus an edge")
    small = [g for n in range(1, 10) for g in classified_maxnik(n) if g.m <= 20]
    notes = (
        "orders 1..8 swept exhaustively over canonical classes",
        "order 9 swept over all one-vertex extensions of order-8 classes",
        "every order-9 graph of size 20 is 2-apex, and a 2-apex graph of"
        " order 9 with 20 < 30 edges is not edge-maximal: some addition"
        " stays 2-apex, hence knotless",
        "orders 10 and up: a size-20 maximal knotless graph would be"
        " maximal 2-apex with at least 35 edges, a contradiction"
        " (published bound, not re-derived)",
    )
    return Size20Report(
        unique_size20=graph6_encode(unique),
        count_at_most_20=len(small),
        order_rows=tuple(rows),
        order9_candidates=candidates,
        notes=notes,
    )


# -- tables ------------------------------------------------------------------


@dataclass(frozen=True)
class RatioTable:
    rows: tuple[tuple[int, Fraction], ...]

    def to_json(self) -> dict:
        return {"rows": [{"order": n, "min_ratio": f"{r.numerator}/{r.denominator}"}
                         for n, r in self.rows]}

    def render(self) -> str:
        head = "order | least size/order"
        lines = [head, "-" * len(head)]
        for n, r in self.rows:
            lines.append(f"{n:5d} | {r.numerator}/{r.denominator}")
        return "\n".join(lines)


def table_ve() -> RatioTable:
    """Least size-to-order ratio of the classified graphs, orders 1..9."""
    rows = []
    for n in range(1, 10):
        least = min(Fraction(g.m, g.n) for g in classified_maxnik(n))
        rows.append((n, least))
    return RatioTable(tuple(rows))


# published degree ranges for the classification through order nine
REFERENCE_DEGREE_TABLE = {
    1: ((0, 0), (0, 0)),
    2: ((1, 1), (1, 1)),
    3: ((2, 2), (2, 2)),
    4: ((3, 3), (3, 3)),
    5: ((4, 4), (4, 4)),
    6: ((5, 5), (5, 5)),
    7: ((5, 5), (6, 6)),
    8: ((5, 6), (7, 7)),
    9: ((4, 7), (5, 8)),
}


@dataclass(frozen=True)
class DegreeRow:
    order: int
    computed_min: tuple[int, int]
    computed_max: tuple[int, int]
    reference_min: tuple[int, int]
    reference_max: tuple[int, int]

    @property
    def mismatches(self) -> tuple[str, ...]:
        out = []
        if self.computed_min != self.reference_min:
            out.append(
                f"order {self.order}: computed minimum-degree range "
                f"{self.computed_min} but the published table prints {self.reference_min}")
        if self.computed_max != self.reference_max:
            out.append(
                f"order {self.order}: computed maximum-degree range "
                f"{self.computed_max} but the published table prints {self.reference_max}")
        return tuple(out)


@dataclass(frozen=True)
class DegreeTable:
    rows: tuple[DegreeRow, ...]

    @property
    def discrepancies(self) -> tuple[str, ...]:
        out: list[str] = []
        for r in self.rows:
            out.extend(r.mismatches)
        return tuple(out)

    def to_json(self) -> dict:
        return {
            "rows": [{
                "order": r.order,
                "computed_min_degree": list(r.computed_min),
                "computed_max_degree": list(r.computed_max),
                "reference_min_degree": list(r.reference_min),
                "reference_max_degree": list(r.reference_max),
            } for r in self.rows],
            "discrepancies": list(self.discrepancies),
        }

    def render(self) -> str:
        head = "order | min degree (ref) | max degree (ref)"
        lines = [head, "-" * len(head)]
        for r in self.rows:
            lines.append(
                f"{r.order:5d} | {r.computed_min} {r.reference_min} | "
                f"{r.computed_max} {r.reference_max}")
        for d in self.discrepancies:
            lines.append(f"! {d}")
        return "\n".join(lines)


def table_deg() -> DegreeTable:
    """Degree ranges per order, compared cell by cell with the published table.

    Mismatches are reported, never silently corrected; the order-9 minimum
    degree row is the known open point of disagreement. The published
    (4, 7) cannot hold: a 9-vertex graph of minimum degree 7 has at least
    ceil(9 * 7 / 2) = 32 edges, but a maximal knotless graph of order 9 has
    at most 5 * 9 - 15 = 30 (``check_necessary``'s size window).
    """
    rows = []
    for n in range(1, 10):
        graphs = classified_maxnik(n)
        mins = [min(g.degrees()) for g in graphs]
        maxs = [max(g.degrees()) for g in graphs]
        ref_min, ref_max = REFERENCE_DEGREE_TABLE[n]
        rows.append(DegreeRow(
            n, (min(mins), max(mins)), (min(maxs), max(maxs)), ref_min, ref_max))
    return DegreeTable(tuple(rows))
