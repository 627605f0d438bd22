"""Named graphs and the obstruction library backing certification.

The library's patterns and axioms, and the named graphs E9, F9, E9+e and
G9,29, are read from one table of graph6 rows, and the five order-9 maximal
2-apex graphs (Big-Y, Long-Y, Hat, House and Pentagon-bar) from a second.
The derivation behind the first table lives in the tests
(``tests/conftest.py``), which check it row by row: the delta-wye families
of K7 and K3,3,1,1, E9 as their unique order-9, size-21, minimum-degree-4
member reached from K7 by both moves, and F9 by which non-edge orbit of E9
gains a 21-edge family member as a spanning subgraph, each identification
checked against mandatory fingerprints. The tests also rebuild each
order-9 row from its clique-sum recipe, and ``survey.verify_order9``
re-derives the five as the joins of the 7-vertex triangulations with K2.

The knotless axioms (E9, G9,29) and the disk-bounding triangle axioms are
trusted from published embeddings and are never re-verified here; they are
flagged as such so certificate consumers can audit the provenance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable

from .canon import canonical_form, canonical_labeling, orbits
from .errors import ValidationError
from .graphs import (MAX_ORDER, Graph, complete_graph, complete_multipartite,
                     graph6_decode, graph6_encode)

PROV_EXPLICIT = "explicit-definition"
PROV_CLOSURE = "closure-derived"
PROV_DECOMPOSITION = "decomposition-derived"


@dataclass(frozen=True)
class NamedGraph:
    name: str
    graph: Graph
    provenance: str


@dataclass(frozen=True)
class TriangleDiskAxiom:
    """A (graph, triangle) pair trusted to bound a disk in some knotless embedding.

    ``triangle_orbit`` lists the qualifying triangles on the registry
    labeling of the graph; None means every triangle qualifies.
    ``labeling`` is the registry graph's canonical labeling, computed once
    when the library is built, or None when every triangle qualifies.
    """

    graph_name: str
    key: bytes
    triangle_orbit: tuple[tuple[int, int, int], ...] | None
    note: str
    labeling: tuple[int, ...] | None = None


@dataclass(frozen=True)
class ObstructionLibrary:
    """Patterns certifying IK, axioms certifying nIK, and disk-triangle data.

    ``nik_axiom_keys`` holds the canonical key of each of ``nik_axioms``, in
    the same order, computed once when the library is built.
    """

    mmik_patterns: tuple[NamedGraph, ...]
    nik_axioms: tuple[NamedGraph, ...]
    nik_axiom_keys: tuple[bytes, ...]
    triangle_disk_axioms: tuple[TriangleDiskAxiom, ...]
    unavailable: dict[str, str]

    def pattern_by_name(self, name: str) -> NamedGraph:
        for p in self.mmik_patterns:
            if p.name == name:
                return p
        raise KeyError(name)

    def axiom_for(self, g: Graph) -> NamedGraph | None:
        degrees = sorted(g.degrees())
        if all(sorted(a.graph.degrees()) != degrees for a in self.nik_axioms):
            return None  # isomorphic graphs share their degree sequence
        key = canonical_form(g).key
        return next((a for a, k in zip(self.nik_axioms, self.nik_axiom_keys) if k == key), None)


# -- the library table -------------------------------------------------------

# (name, graph6, provenance), one row per line: the 73 IK patterns, by order,
# size and canonical key, then the knotless axioms E9 and G9,29. Each is the
# labelled graph the derivation in tests/conftest.py gives (the K7 family
# first, one member per class, K7, K3,3,1,1, F9 and E9+e named), as the tests
# check. No axiom is 2-apex, which Tier-1 checks too: certify does not walk a
# graph isomorphic to one for a 2-apex pair.
_LIBRARY_TABLE: tuple[tuple[str, str, str], ...] = (
    ("K7", "F~~~w", PROV_CLOSURE),
    ("K7-family-1", "Gs\\zz{", PROV_CLOSURE),
    ("K3,3,1,1", "GFzf~{", PROV_CLOSURE),
    ("F9", "HYQ[p{~", PROV_CLOSURE),
    ("K7-family-3", "HIQ|to~", PROV_CLOSURE),
    ("K3,3,1,1-family-1", "HpHYs|~", PROV_CLOSURE),
    ("K3,3,1,1-family-2", "HImu^_~", PROV_CLOSURE),
    ("K3,3,1,1-family-3", "HLr@y}n", PROV_CLOSURE),
    ("K3,3,1,1-family-4", "H_\\rd}}", PROV_CLOSURE),
    ("E9+e", "H_\\t~a|", PROV_CLOSURE),
    ("K7-family-4", "IBj@IURFw", PROV_CLOSURE),
    ("K7-family-5", "IFGaYYNbo", PROV_CLOSURE),
    ("K7-family-6", "IBgaYYVdo", PROV_CLOSURE),
    ("K3,3,1,1-family-5", "I`UbCc^Jw", PROV_CLOSURE),
    ("K3,3,1,1-family-6", "IIe_hVBNw", PROV_CLOSURE),
    ("K3,3,1,1-family-7", "IaWpc]eFw", PROV_CLOSURE),
    ("K3,3,1,1-family-8", "I@ZQcuiXw", PROV_CLOSURE),
    ("K3,3,1,1-family-9", "IHQWtVQXw", PROV_CLOSURE),
    ("K3,3,1,1-family-10", "IY_WpLNdw", PROV_CLOSURE),
    ("K3,3,1,1-family-11", "IDwiihb`w", PROV_CLOSURE),
    ("K3,3,1,1-family-12", "IDoijTs`w", PROV_CLOSURE),
    ("K3,3,1,1-family-13", "IIe_hTNkw", PROV_CLOSURE),
    ("K3,3,1,1-family-14", "IIcPXZFlo", PROV_CLOSURE),
    ("K3,3,1,1-family-15", "I@TbC}mt_", PROV_CLOSURE),
    ("K7-family-7", "J?]TE?RHYL_", PROV_CLOSURE),
    ("K7-family-8", "J?LRCecq?^_", PROV_CLOSURE),
    ("K7-family-9", "J?LRCecQ[[_", PROV_CLOSURE),
    ("K3,3,1,1-family-16", "J?Ujdb?DhR_", PROV_CLOSURE),
    ("K3,3,1,1-family-17", "J?URLr?JHd_", PROV_CLOSURE),
    ("K3,3,1,1-family-18", "J?TclR?LXt?", PROV_CLOSURE),
    ("K3,3,1,1-family-19", "JBhCGWRoXN_", PROV_CLOSURE),
    ("K3,3,1,1-family-20", "JKCid@H`g^_", PROV_CLOSURE),
    ("K3,3,1,1-family-21", "JBHC[_LhIV_", PROV_CLOSURE),
    ("K3,3,1,1-family-22", "JGCieQob_n_", PROV_CLOSURE),
    ("K3,3,1,1-family-23", "J@HIcUSw?~_", PROV_CLOSURE),
    ("K3,3,1,1-family-24", "JLCe?[MQ[J_", PROV_CLOSURE),
    ("K3,3,1,1-family-25", "JGGsu_XPkX_", PROV_CLOSURE),
    ("K3,3,1,1-family-26", "JGGsuGXSkX_", PROV_CLOSURE),
    ("K3,3,1,1-family-27", "J@OicN_E[{_", PROV_CLOSURE),
    ("K3,3,1,1-family-28", "J@HIcUSW[{_", PROV_CLOSURE),
    ("K3,3,1,1-family-29", "J?CjdbKTTS_", PROV_CLOSURE),
    ("K3,3,1,1-family-30", "J?KakjKYTc_", PROV_CLOSURE),
    ("K3,3,1,1-family-31", "JL?YPPD`{V?", PROV_CLOSURE),
    ("K3,3,1,1-family-32", "JBHC_[Mh]R?", PROV_CLOSURE),
    ("K3,3,1,1-family-33", "JBHCWWRh]R?", PROV_CLOSURE),
    ("K3,3,1,1-family-34", "JGCqTPPbkl?", PROV_CLOSURE),
    ("K3,3,1,1-family-35", "J@OicKXimh?", PROV_CLOSURE),
    ("K3,3,1,1-family-36", "J?DrTRPkeW?", PROV_CLOSURE),
    ("K7-family-10", "K??}Q`_cLA@N", PROV_CLOSURE),
    ("K7-family-11", "K??yQ`_a[dSW", PROV_CLOSURE),
    ("K3,3,1,1-family-37", "K@SGcL`hEC?v", PROV_CLOSURE),
    ("K3,3,1,1-family-38", "K?LPAEEaV?A^", PROV_CLOSURE),
    ("K3,3,1,1-family-39", "K@S@GYSgUEGu", PROV_CLOSURE),
    ("K3,3,1,1-family-40", "K@S?XISgeIG]", PROV_CLOSURE),
    ("K3,3,1,1-family-41", "K?NAd?BBJ@qF", PROV_CLOSURE),
    ("K3,3,1,1-family-42", "K?LTAECAZ@qJ", PROV_CLOSURE),
    ("K3,3,1,1-family-43", "KF?@HPDai[Pg", PROV_CLOSURE),
    ("K3,3,1,1-family-44", "K@QWPD_oOdo\\", PROV_CLOSURE),
    ("K3,3,1,1-family-45", "K@QGhPOgIEo\\", PROV_CLOSURE),
    ("K3,3,1,1-family-46", "K?NG`@B_qasT", PROV_CLOSURE),
    ("K3,3,1,1-family-47", "K?LQ@EDw?TqX", PROV_CLOSURE),
    ("K3,3,1,1-family-48", "K?LPAEEaR@qX", PROV_CLOSURE),
    ("K3,3,1,1-family-49", "K?KQHEDQMaSq", PROV_CLOSURE),
    ("K3,3,1,1-family-50", "K@?OqYKWlQWo", PROV_CLOSURE),
    ("K3,3,1,1-family-51", "K@OGhPOhMEO{", PROV_CLOSURE),
    ("K7-family-12", "L??@mHWi?WK@cB", PROV_CLOSURE),
    ("K3,3,1,1-family-52", "L??XQa`OcGx?KF", PROV_CLOSURE),
    ("K3,3,1,1-family-53", "L??haPO_sHR?WF", PROV_CLOSURE),
    ("K3,3,1,1-family-54", "L?CalOCAJ?qDoK", PROV_CLOSURE),
    ("K3,3,1,1-family-55", "L?CaKSSIA_sDoK", PROV_CLOSURE),
    ("K3,3,1,1-family-56", "L??XQ_`OcHuAqG", PROV_CLOSURE),
    ("K7-family-13", "M????taJAgOok?q??", PROV_CLOSURE),
    ("K3,3,1,1-family-57", "M??@IGgSKQQOF?w?_", PROV_CLOSURE),
    ("E9", "HxHYs}]", PROV_CLOSURE),
    ("G9,29", "Hvzvvzm", PROV_EXPLICIT),
)


# -- named graph registry ----------------------------------------------------


_P3 = ((0, 1), (1, 2), (2, 3))  # path 0-1-2-3: terminals 0, 3; interiors 1, 2
_3K2 = ((0, 1), (2, 3), (4, 5))  # three disjoint edges; 6 and 7 untouched

# (name, graph6): the five order-9 maximal 2-apex graphs, which are the joins
# of the 7-vertex triangulations with K2, as canonical representatives in
# canonical-key order. Each of Big-Y, Hat and House is K8-P3 glued to K6 over
# a 5-clique, Long-Y is K8-3K2 glued to K6 over one, and Pentagon-bar is the
# remaining join: its complement is a pentagon, a bar and two isolated
# vertices.
_ORDER9_JOINS: tuple[tuple[str, str], ...] = (
    ("Hat", "HK]~~~~"),
    ("Big-Y", "HBn^~~~"),
    ("House", "HBj~~~~"),
    ("Long-Y", "HJn^^~~"),
    ("Pentagon-bar", "HLr~v~~"),
)


@lru_cache(maxsize=None)
def _table_graph(name: str) -> Graph:
    return next(graph6_decode(row[1]) for row in _LIBRARY_TABLE + _ORDER9_JOINS
                if row[0] == name)


def _k8_minus(edges: tuple[tuple[int, int], ...]) -> Graph:
    g = complete_graph(8)
    for u, v in edges:
        g = g.without_edge(u, v)
    return g


# name: (order, size, provenance, builder); the order and size are checked
_NAMED: dict[str, tuple[int, int, str, Callable[[], Graph]]] = {
    "K3,3": (6, 9, PROV_EXPLICIT, partial(complete_multipartite, 3, 3)),
    "K3,3,1,1": (8, 22, PROV_EXPLICIT, partial(complete_multipartite, 3, 3, 1, 1)),
    "K7^-": (7, 20, PROV_EXPLICIT, lambda: complete_graph(7).without_edge(0, 1)),
    "K8-3K2": (8, 25, PROV_EXPLICIT, partial(_k8_minus, _3K2)),
    "K8-P3": (8, 25, PROV_EXPLICIT, partial(_k8_minus, _P3)),
    "octahedron": (6, 12, PROV_EXPLICIT, partial(complete_multipartite, 2, 2, 2)),
    "G9,29": (9, 29, PROV_EXPLICIT, partial(_table_graph, "G9,29")),
    "E9": (9, 21, PROV_CLOSURE, partial(_table_graph, "E9")),
    "F9": (9, 21, PROV_CLOSURE, partial(_table_graph, "F9")),
    "E9+e": (9, 22, PROV_CLOSURE, partial(_table_graph, "E9+e")),
    **{name: (9, 30, PROV_DECOMPOSITION, partial(_table_graph, name))
       for name, _ in _ORDER9_JOINS},
}

# lookups ignore case; these three other spellings are the only aliases
_LOOKUP = {name.lower(): name for name in _NAMED} | {
    "k7-": "K7^-", "k8-3-disjoint-edges": "K8-3K2", "g9_29": "G9,29"}


@lru_cache(maxsize=None)
def named_graph(name: str) -> NamedGraph:
    """Look up a named graph, ignoring case, and build and check it on first use.

    Besides the names in ``_NAMED``, ``K<n>`` (or ``k<n>``) names the
    complete graph of order n, 1 <= n <= MAX_ORDER, where n is written in
    ASCII digits with no leading zero.
    """
    canonical_name = _LOOKUP.get(name.lower())
    if canonical_name is not None:
        n, m, provenance, build = _NAMED[canonical_name]
        g = build()
        if (g.n, g.m) != (n, m):
            raise ValidationError(
                f"{canonical_name}: got order {g.n} size {g.m}, want {n}/{m}")
        return NamedGraph(canonical_name, g, provenance)
    digits = name[1:]
    if (name[:1] in ("K", "k") and digits.isascii() and digits.isdigit()
            and digits[0] != "0" and int(digits) <= MAX_ORDER):
        return NamedGraph("K" + digits, complete_graph(int(digits)), PROV_EXPLICIT)
    raise KeyError(name)


# -- the obstruction library -------------------------------------------------


def _designated_e9_triangle_orbit(e9: Graph) -> tuple[tuple[int, int, int], ...]:
    """Least automorphism orbit of triangles with no common neighbor."""
    qualifying = []
    for orbit in orbits(e9, "triangle").orbits:
        a, b, c = orbit[0]
        if not e9.rows[a] & e9.rows[b] & e9.rows[c]:
            qualifying.append(orbit)
    if not qualifying:
        raise ValidationError("E9 has no common-neighbor-free triangle")
    return tuple(sorted(qualifying)[0])


@lru_cache(maxsize=None)
def mmik_library() -> ObstructionLibrary:
    """Read the patterns and knotless axioms from ``_LIBRARY_TABLE``, check that no
    pattern has under 21 edges or is isomorphic to an axiom of its order and size
    (no other can be), and build the disk axioms."""
    rows = [NamedGraph(name, _table_graph(name), prov) for name, _, prov in _LIBRARY_TABLE]
    patterns, axioms = tuple(rows[:-2]), tuple(rows[-2:])
    e9, g929 = axioms
    for ng in patterns:
        if ng.graph.m < 21:
            raise ValidationError(f"pattern {ng.name} has under 21 edges")
    e9_form, e9_labeling = canonical_labeling(e9.graph)
    axiom_keys = (e9_form.key, canonical_form(g929.graph).key)
    for ax, key in zip(axioms, axiom_keys):
        if any((p.graph.n, p.graph.m) == (ax.graph.n, ax.graph.m)
               and canonical_form(p.graph).key == key for p in patterns):
            raise ValidationError(f"knotless axiom {ax.name} collides with a pattern")
    tri_axioms = (
        TriangleDiskAxiom(
            "E9", e9_form.key,
            _designated_e9_triangle_orbit(e9.graph),
            "orbit choice among common-neighbor-free triangles is a recorded assumption",
            e9_labeling),
        TriangleDiskAxiom(
            "K4", canonical_form(complete_graph(4)).key, None,
            "any triangle of K4 bounds a face of the planar embedding"),
    )
    return ObstructionLibrary(
        mmik_patterns=patterns,
        nik_axioms=axioms,
        nik_axiom_keys=axiom_keys,
        triangle_disk_axioms=tri_axioms,
        unavailable={
            "G9,28": "order-9 pattern named in the source classification; adjacency not published there",
            "G26": "order-9 obstruction with 26 edges; adjacency not published there",
            "G27": "order-9 obstruction with 27 edges; adjacency not published there",
        },
    )


def library_dump() -> dict:
    """The full library as graph6 strings plus JSON metadata."""
    lib = mmik_library()
    return {
        "patterns": [{
            "name": p.name,
            "graph6": graph6_encode(p.graph),
            "order": p.graph.n,
            "size": p.graph.m,
            "provenance": p.provenance,
        } for p in lib.mmik_patterns],
        "knotless_axioms": [{
            "name": a.name,
            "graph6": graph6_encode(a.graph),
            "trust": "published knotless embedding; not re-verified here",
        } for a in lib.nik_axioms],
        "triangle_disk_axioms": [{
            "graph": ax.graph_name,
            "triangles": None if ax.triangle_orbit is None
            else [list(t) for t in ax.triangle_orbit],
            "note": ax.note,
        } for ax in lib.triangle_disk_axioms],
        "unavailable": dict(lib.unavailable),
    }


def disk_axiom_covers(g: Graph, triangle: tuple[int, int, int]) -> bool:
    """Is (g, triangle) matched by a disk-bounding triangle axiom of
    ``mmik_library()``?"""
    a, b, c = triangle
    if len({a, b, c}) != 3 or not (g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c)):
        return False
    form, lab = canonical_labeling(g)
    for ax in mmik_library().triangle_disk_axioms:
        if ax.key != form.key:
            continue
        if ax.triangle_orbit is None:
            return True
        # equal keys: vertex lab[i] of g is vertex ax.labeling[i] of the registry graph
        phi = dict(zip(lab, ax.labeling))
        image = tuple(sorted((phi[a], phi[b], phi[c])))
        if image in ax.triangle_orbit:
            return True
    return False
