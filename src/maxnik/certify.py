"""Machine-checkable IK / nIK / maxnik certificates.

Each certificate is an evidence tree with a stable JSON form
{verdict, rule, evidence, children}; every leaf re-validates
independently (witnesses re-check, bounds recompute, axioms resolve in
the registry). UNKNOWN is a first-class verdict: these rules certify
everything in scope, and silence beats an unsound claim elsewhere.

Inference rules used:
  - at order n >= 7, at least 5n-14 edges forces a K7 minor, hence IK
    (size-bound, Mader's theorem; below order 7 it proves nothing);
  - a registered IK pattern as a minor gives IK (minor-of);
  - a 2-apex graph is nIK (apex-pair);
  - E9 and G9,29 are nIK by trusted published embeddings (axiom);
  - an order <= 8 graph that is not 2-apex is IK, quoting the published
    equivalence for small orders (not-2apex-small-order);
  - clique sums over K1/K2 of nIK graphs are nIK; edge sums of maxnik
    graphs with a glue edge non-triangular on one side are maxnik;
    triangle sums under registered disk axioms are nIK, and maxnik when
    the triangle avoids a K4 on one side (construction);
  - maxnik itself: nIK plus every non-edge orbit representative whose
    addition certifies IK (per-non-edge), vacuous for complete graphs.
    When the host is 2-apex through a pair P, an added edge that touches P
    or leaves the graph minus P planar keeps it 2-apex, so that addition
    goes straight to augmentation-nik without an IK search. The least
    non-edge is gated first, before the maxnik cutset construction and the
    orbit computation: it leads the first non-edge orbit, and a host it
    keeps 2-apex is not maxnik, so nothing before it could have certified
    the host and the orbit loop would return the same certificate.

Within one top-level ``certify_nik`` or ``certify_maxnik`` call each graph
gets one nIK certificate: the call owns a dict from graph to certificate,
so a clique-sum piece met again (in the nIK and then the maxnik split, or
at a second cutset) reuses its certificate instead of repeating the 2-apex
search. The call also opens ``canon._generator_memo``, so a graph whose
automorphism generators ``is_k_apex`` fetched reuses them in
``orbits(g, "non-edge")``. Likewise one ``validate_certificate`` call
decodes each graph6 string once and looks up its non-edge orbits and its
axiom at most once. Nothing is kept between calls.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable

from .canon import _generator_memo, orbits
from .catalog import ObstructionLibrary, disk_axiom_covers, mmik_library
from .graphs import Graph, _bits, graph6_decode, graph6_encode
from .minors import MinorWitness, has_minor
from .planarity import _blocks, is_k_apex, is_planar

VERDICT_IK = "IK"
VERDICT_NIK = "NIK"
VERDICT_MAXNIK = "MAXNIK"
VERDICT_NOT_MAXNIK = "NOT_MAXNIK"
VERDICT_UNKNOWN = "UNKNOWN"

LEMMA_VERTEX_SUM = "NPP7-v"
LEMMA_EDGE_SUM = "NPP7-e"
LEMMA_EDGE_SUM_MAXNIK = "NPP10"
LEMMA_TRIANGLE_SUM = "New"


@dataclass(frozen=True)
class Certificate:
    verdict: str
    rule: str
    evidence: dict
    children: tuple["Certificate", ...] = ()

    @property
    def graph(self) -> Graph:
        return graph6_decode(self.evidence["graph"])

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "rule": self.rule,
            "evidence": self.evidence,
            "children": [c.to_json() for c in self.children],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)

    @staticmethod
    def from_json(data: dict) -> "Certificate":
        return Certificate(
            data["verdict"], data["rule"], data["evidence"],
            tuple(Certificate.from_json(c) for c in data["children"]))


def _cert(verdict: str, rule: str, g: Graph, children: Iterable[Certificate] = (),
          **evidence) -> Certificate:
    ev = {"graph": graph6_encode(g)}
    ev.update(evidence)
    return Certificate(verdict, rule, ev, tuple(children))


# -- IK ------------------------------------------------------------------


def certify_ik(g: Graph, lib: ObstructionLibrary | None = None) -> Certificate:
    """IK via an obstruction minor or the edge-count bound; never claims nIK."""
    lib = lib or mmik_library()
    for pattern in lib.mmik_patterns:
        if pattern.graph.n > g.n or pattern.graph.m > g.m:
            continue
        found = has_minor(g, pattern.graph)
        if found.found:
            assert found.witness is not None
            return _cert(VERDICT_IK, "minor-of", g,
                         pattern=pattern.name,
                         branch_sets=[list(b) for b in found.witness.branch_sets])
    if g.n >= 7 and g.m >= 5 * g.n - 14:
        return _cert(VERDICT_IK, "size-bound", g, n=g.n, m=g.m,
                     threshold=5 * g.n - 14)
    return _cert(VERDICT_UNKNOWN, "no-ik-evidence", g)


# -- nIK -----------------------------------------------------------------


def certify_nik(g: Graph, lib: ObstructionLibrary | None = None) -> Certificate:
    """nIK via 2-apex, a knotless axiom, or a clique-sum construction.

    For order at most 8 a graph that is not 2-apex is IK, so this
    operation may return an IK verdict there.
    """
    lib = lib or mmik_library()
    with _generator_memo():
        return _certify_nik(g, lib, {})


def _certify_nik(g: Graph, lib: ObstructionLibrary,
                 nik_certs: dict[Graph, Certificate]) -> Certificate:
    """``certify_nik`` that reuses the certificate ``nik_certs`` holds for ``g``.

    ``nik_certs`` belongs to one top-level call, so each graph that call
    meets is settled once however many clique sums it appears in.
    """
    cert = nik_certs.get(g)
    if cert is None:
        cert = nik_certs[g] = _prove_nik(g, lib, nik_certs)
    return cert


def _prove_nik(g: Graph, lib: ObstructionLibrary,
               nik_certs: dict[Graph, Certificate]) -> Certificate:
    apex = is_k_apex(g, 2)
    if apex.found:
        return _cert(VERDICT_NIK, "apex-pair", g, witness=list(apex.witness or ()))
    axiom = lib.axiom_for(g)
    if axiom is not None:
        return _cert(VERDICT_NIK, "axiom", g, name=axiom.name,
                     trust="published knotless embedding; not re-verified here")
    if g.n <= 8:
        return _cert(VERDICT_IK, "not-2apex-small-order", g, n=g.n,
                     trust="published equivalence: low-order nIK graphs are 2-apex")
    built = _certify_by_cutsets(g, lib, nik_certs, want_maxnik=False)
    if built is not None:
        return built
    return _cert(VERDICT_UNKNOWN, "no-nik-evidence", g)


def _cutset_decomposition(g: Graph, max_size: int = 3):
    """(cutset, pieces) for minimal clique cutsets of size <= max_size.

    Pieces come back as (vertex list in g, induced subgraph) with the
    vertex list sorted, so piece labels are reproducible.
    """
    from .primality import _minimal_clique_cutsets, _pieces

    if not g.is_connected():
        return
    for cut in _minimal_clique_cutsets(g):
        if len(cut) > max_size:
            return  # cutsets come smallest first
        yield cut, [(list(_bits(m)), g._induced(m)) for m in _pieces(g, cut)]


def _edge_triangular_in(piece: Graph, verts: list[int], cut: tuple[int, ...]) -> bool:
    x, y = (verts.index(c) for c in cut)
    return bool(piece.rows[x] & piece.rows[y])


def _triangle_in_k4(piece: Graph, verts: list[int], cut: tuple[int, ...]) -> bool:
    a, b, c = (verts.index(v) for v in cut)
    return bool(piece.rows[a] & piece.rows[b] & piece.rows[c])


def _certify_by_cutsets(g: Graph, lib: ObstructionLibrary,
                        nik_certs: dict[Graph, Certificate],
                        want_maxnik: bool) -> Certificate | None:
    """Certify via a clique-sum split at a small clique cutset, if any works."""
    want = VERDICT_MAXNIK if want_maxnik else VERDICT_NIK
    for cut, pieces in _cutset_decomposition(g):
        t = len(cut)
        if t == 3 and len(pieces) != 2:
            continue
        if t == 1 and want_maxnik:
            continue  # a vertex sum never certifies maximality
        sub_certs = []
        ok = True
        for verts, piece in pieces:
            sub = (_certify_maxnik(piece, lib, nik_certs) if want_maxnik
                   else _certify_nik(piece, lib, nik_certs))
            if sub.verdict != want:
                ok = False
                break
            sub_certs.append(sub)
        if not ok:
            continue
        if t == 2:
            flags = [_edge_triangular_in(piece, verts, cut) for verts, piece in pieces]
            if want_maxnik and sum(flags) > 1:
                continue  # glue edge must be non-triangular in all sides but one
            lemma = LEMMA_EDGE_SUM_MAXNIK if want_maxnik else LEMMA_EDGE_SUM
        elif t == 3:
            if not all(disk_axiom_covers(lib, piece, tuple(verts.index(v) for v in cut))
                       for verts, piece in pieces):
                continue
            if want_maxnik and all(_triangle_in_k4(piece, verts, cut)
                                   for verts, piece in pieces):
                continue
            lemma = LEMMA_TRIANGLE_SUM
        else:
            lemma = LEMMA_VERTEX_SUM
        return _cert(want, "construction", g,
                     children=sub_certs,
                     lemma=lemma,
                     cutset=list(cut),
                     parts=[verts for verts, _ in pieces])
    return None


# -- maxnik --------------------------------------------------------------


def certify_maxnik(g: Graph, lib: ObstructionLibrary | None = None) -> Certificate:
    """Edge-maximality: nIK now, IK after every orbit-distinct edge addition."""
    lib = lib or mmik_library()
    with _generator_memo():
        return _certify_maxnik(g, lib, {})


def _certify_maxnik(g: Graph, lib: ObstructionLibrary,
                    nik_certs: dict[Graph, Certificate]) -> Certificate:
    nik = _certify_nik(g, lib, nik_certs)
    if nik.verdict == VERDICT_IK:
        return _cert(VERDICT_NOT_MAXNIK, "is-ik", g, children=[nik])
    if nik.verdict != VERDICT_NIK:
        ik = certify_ik(g, lib)
        if ik.verdict == VERDICT_IK:
            return _cert(VERDICT_NOT_MAXNIK, "is-ik", g, children=[ik])
    if g.is_complete() and nik.verdict == VERDICT_NIK:
        return _cert(VERDICT_MAXNIK, "complete-nik", g, children=[nik], n=g.n)
    apex = nik.evidence["witness"] if nik.rule == "apex-pair" else None
    least = None
    if apex is not None:
        # The least non-edge leads the first non-edge orbit, so the loop below
        # would try it first. If it keeps g 2-apex, g is not maxnik, no sound
        # construction certifies g, and the loop would return this certificate.
        least = g.non_edges()[0]
        gate = _apex_augmentation(g, least, apex, nik, lib, nik_certs)
        if gate is not None:
            return gate
    built = _certify_by_cutsets(g, lib, nik_certs, want_maxnik=True)
    if built is not None:
        return built
    if nik.verdict != VERDICT_NIK:
        return _cert(VERDICT_UNKNOWN, "nik-undecided", g, children=[nik])
    reps = [tuple(o[0]) for o in orbits(g, "non-edge").orbits]
    children = [nik]
    undecided = []
    for u, v in reps:
        if apex is not None and (u, v) != least:
            gate = _apex_augmentation(g, (u, v), apex, nik, lib, nik_certs)
            if gate is not None:
                return gate
        added = g.with_edge(u, v)
        ik = certify_ik(added, lib)
        if ik.verdict == VERDICT_IK:
            children.append(ik)
            continue
        back = _certify_nik(added, lib, nik_certs)
        if back.verdict == VERDICT_NIK:
            return _cert(VERDICT_NOT_MAXNIK, "augmentation-nik", g,
                         children=[nik, back], edge=[u, v])
        undecided.append([u, v])
    if undecided:
        return _cert(VERDICT_UNKNOWN, "augmentation-undecided", g,
                     children=children, edges=undecided)
    return _cert(VERDICT_MAXNIK, "per-non-edge", g, children=children,
                 orbit_representatives=[list(r) for r in reps])


def _apex_augmentation(g: Graph, edge: tuple[int, int], apex: list[int],
                       nik: Certificate, lib: ObstructionLibrary,
                       nik_certs: dict[Graph, Certificate]) -> Certificate | None:
    """augmentation-nik when g + edge is still 2-apex through g's pair ``apex``.

    An added edge that touches the pair, or leaves the graph minus the pair
    planar, keeps it 2-apex, so the augmented graph is never IK.
    """
    u, v = edge
    added = g.with_edge(u, v)
    if u in apex or v in apex or is_planar(added.delete_vertices(apex)):
        return _cert(VERDICT_NOT_MAXNIK, "augmentation-nik", g,
                     children=[nik, _certify_nik(added, lib, nik_certs)],
                     edge=[u, v])
    return None


def relabel_certificate(cert: Certificate, perm: tuple[int, ...]) -> Certificate:
    """The same evidence tree under a vertex relabeling of its subject."""
    g = cert.graph
    ev = dict(cert.evidence)
    ev["graph"] = graph6_encode(g.relabel(perm))
    children = cert.children
    if cert.rule == "minor-of":
        ev["branch_sets"] = [sorted(perm[v] for v in b) for b in ev["branch_sets"]]
    elif cert.rule == "apex-pair":
        ev["witness"] = sorted(perm[v] for v in ev["witness"])
    elif cert.rule == "per-non-edge":
        ev["orbit_representatives"] = [sorted(perm[v] for v in r)
                                       for r in ev["orbit_representatives"]]
        children = tuple(relabel_certificate(c, perm) for c in children)
    elif cert.rule in ("augmentation-nik",):
        ev["edge"] = sorted(perm[v] for v in ev["edge"])
        children = tuple(relabel_certificate(c, perm) for c in children)
    elif cert.rule == "augmentation-undecided":
        ev["edges"] = [sorted(perm[v] for v in e) for e in ev["edges"]]
        children = tuple(relabel_certificate(c, perm) for c in children)
    elif cert.rule == "construction":
        old_parts = [list(p) for p in ev["parts"]]
        ev["cutset"] = [perm[v] for v in ev["cutset"]]
        ev["parts"] = [sorted(perm[v] for v in p) for p in old_parts]
        new_children = []
        for old_verts, child in zip(old_parts, children):
            old_sorted = sorted(old_verts)
            new_sorted = sorted(perm[v] for v in old_verts)
            piece_perm = [0] * len(old_sorted)
            for v in old_verts:
                piece_perm[old_sorted.index(v)] = new_sorted.index(perm[v])
            new_children.append(relabel_certificate(child, tuple(piece_perm)))
        children = tuple(new_children)
    else:
        children = tuple(relabel_certificate(c, perm) for c in children)
    return Certificate(cert.verdict, cert.rule, ev, children)


# -- necessary conditions ------------------------------------------------


@dataclass(frozen=True)
class NecessaryCheck:
    name: str
    applicable: bool
    ok: bool
    detail: str


@dataclass(frozen=True)
class NecessaryReport:
    graph6: str
    checks: tuple[NecessaryCheck, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.ok for c in self.checks if c.applicable)

    @property
    def verdict(self) -> str | None:
        return None if self.all_pass else VERDICT_NOT_MAXNIK

    def failures(self) -> list[str]:
        return [c.name for c in self.checks if c.applicable and not c.ok]


def check_necessary(g: Graph) -> NecessaryReport:
    """Structural conditions every maximal knotless graph satisfies."""
    n, m = g.n, g.m
    degs = g.degrees()
    checks = []

    conn_ok = True
    if n == 2:
        conn_ok = g.is_connected()
    elif n >= 3:
        # no cut vertex: the one block is the whole graph
        full = (1 << n) - 1
        conn_ok = g.is_connected() and _blocks(g.rows, full) == [full]
    checks.append(NecessaryCheck(
        "two-connected", n >= 2, conn_ok,
        "connected with no cut vertex"))

    checks.append(NecessaryCheck(
        "min-degree-two", n >= 3, min(degs) >= 2 if n >= 3 else True,
        f"minimum degree {min(degs)}"))

    checks.append(NecessaryCheck(
        "size-window", n >= 7, 20 <= m <= 5 * n - 15 if n >= 7 else True,
        f"size {m}, window [20, {5 * n - 15}]"))

    bound = math.ceil(7 * n / 4)
    checks.append(NecessaryCheck(
        "size-at-least-7n-over-4", n >= 5, m >= bound if n >= 5 else True,
        f"size {m}, bound {bound}"))

    deg3_ok = True
    for v in range(n):
        if degs[v] == 3:
            x, y, z = g.neighbors(v)
            if not (g.has_edge(x, y) and g.has_edge(x, z) and g.has_edge(y, z)):
                deg3_ok = False
                break
    has_deg3 = any(d == 3 for d in degs)
    checks.append(NecessaryCheck(
        "degree-three-neighbors-adjacent", has_deg3, deg3_ok,
        "every degree-3 vertex has pairwise-adjacent neighbors"))

    maxdeg = max(degs)
    checks.append(NecessaryCheck(
        "max-degree-two-only-triangle", maxdeg == 2,
        n == 3 and m == 3 if maxdeg == 2 else True,
        "max degree 2 admits only the triangle"))

    checks.append(NecessaryCheck(
        "max-degree-three-only-K4", maxdeg == 3,
        n == 4 and m == 6 if maxdeg == 3 else True,
        "max degree 3 admits only K4"))

    return NecessaryReport(graph6_encode(g), tuple(checks))


# -- certificate re-validation --------------------------------------------


def validate_certificate(cert: Certificate, lib: ObstructionLibrary | None = None) -> list[str]:
    """Re-check every node of an evidence tree; returns human-readable problems."""
    lib = lib or mmik_library()
    problems: list[str] = []
    _validate(cert, lib, problems, path="root", memo={})
    return problems


def _memo(memo: dict, what: str, g6: str, compute: Callable[[], object]):
    """``compute()`` for the graph ``g6``, run once per ``what`` in ``memo``."""
    key = (what, g6)
    if key not in memo:
        memo[key] = compute()
    return memo[key]


def _graph_of(cert: Certificate, memo: dict) -> Graph:
    """``cert.graph``, decoded once per graph6 string in ``memo``."""
    g6 = cert.evidence["graph"]
    return _memo(memo, "graph", g6, lambda: graph6_decode(g6))


def _validate(cert: Certificate, lib: ObstructionLibrary, problems: list[str], path: str,
              memo: dict) -> None:
    g = _graph_of(cert, memo)
    rule = cert.rule
    ev = cert.evidence

    def bad(msg: str) -> None:
        problems.append(f"{path}: {msg}")

    if rule == "minor-of":
        try:
            pattern = lib.pattern_by_name(ev["pattern"]).graph
        except KeyError:
            bad(f"pattern {ev['pattern']!r} not in library")
            return
        witness = MinorWitness(tuple(tuple(b) for b in ev["branch_sets"]))
        if not witness.validate(g, pattern):
            bad("minor witness fails re-validation")
    elif rule == "size-bound":
        if not (g.n >= 7 and g.m >= 5 * g.n - 14):
            bad("size bound does not hold")
    elif rule == "apex-pair":
        witness = tuple(ev["witness"])
        rest = g.delete_vertices(witness) if witness else g
        if not is_planar(rest):
            bad("apex witness does not leave a planar graph")
    elif rule == "axiom":
        axiom = _memo(memo, "axiom", ev["graph"], lambda: lib.axiom_for(g))
        if axiom is None or axiom.name != ev["name"]:
            bad("axiom lookup fails")
    elif rule == "not-2apex-small-order":
        if g.n > 8 or is_k_apex(g, 2).found:
            bad("small-order rule misapplied")
    elif rule == "complete-nik":
        if not g.is_complete():
            bad("graph is not complete")
        if not (cert.children and cert.children[0].verdict == VERDICT_NIK):
            bad("missing nIK child")
    elif rule == "construction":
        _validate_construction(cert, lib, problems, path, memo)
    elif rule == "per-non-edge":
        reps = [tuple(r) for r in ev["orbit_representatives"]]
        orbit_list = _memo(memo, "non-edge orbits", ev["graph"],
                           lambda: orbits(g, "non-edge").orbits)
        if len(reps) != len(orbit_list):
            bad("representative count differs from orbit count")
        elif not all(any(tuple(r) in orbit for r in reps) for orbit in orbit_list):
            bad("orbit representatives do not cover every non-edge orbit")
        ik_children = [c for c in cert.children if c.verdict == VERDICT_IK]
        if len(ik_children) != len(reps):
            bad("per-non-edge children do not match representatives")
        for rep, child in zip(reps, ik_children):
            if _graph_of(child, memo) != g.with_edge(*rep):
                bad(f"child for edge {rep} certifies a different graph")
    elif rule == "is-ik":
        if not (cert.children and cert.children[0].verdict == VERDICT_IK):
            bad("missing IK child")
    elif rule == "augmentation-nik":
        u, v = ev["edge"]
        if g.has_edge(u, v):
            bad("augmentation edge already present")
        kids = [c for c in cert.children
                if c.verdict == VERDICT_NIK and _graph_of(c, memo) == g.with_edge(u, v)]
        if not kids:
            bad("missing nIK child for the augmented graph")
    elif rule in ("no-ik-evidence", "no-nik-evidence", "nik-undecided",
                  "augmentation-undecided"):
        pass
    else:
        bad(f"unknown rule {rule!r}")
    for i, child in enumerate(cert.children):
        _validate(child, lib, problems, f"{path}.{i}", memo)


def _validate_construction(cert: Certificate, lib: ObstructionLibrary,
                           problems: list[str], path: str,
                           memo: dict) -> None:
    g = _graph_of(cert, memo)
    ev = cert.evidence

    def bad(msg: str) -> None:
        problems.append(f"{path}: {msg}")

    lemma = ev["lemma"]
    cut = tuple(ev["cutset"])
    parts = [list(p) for p in ev["parts"]]
    for i, u in enumerate(cut):
        for v in cut[i + 1:]:
            if not g.has_edge(u, v):
                bad("cutset is not a clique")
                return
    seen: set[int] = set(cut)
    for verts in parts:
        body = [v for v in verts if v not in cut]
        if not body:
            bad("empty part")
            return
        if seen.intersection(body):
            bad("parts overlap")
            return
        seen.update(body)
    if seen != set(range(g.n)):
        bad("parts plus cutset do not cover the graph")
        return
    body_masks = []
    for verts in parts:
        mask = 0
        for v in verts:
            if v not in cut:
                mask |= 1 << v
        body_masks.append(mask)
    for i, mi in enumerate(body_masks):
        reach = 0
        for v in _bits(mi):
            reach |= g.rows[v]
        for j, mj in enumerate(body_masks):
            if i != j and reach & mj:
                bad("edge crosses between parts")
                return
    pieces = [g.subgraph(verts) for verts in parts]
    kids = list(cert.children)
    if len(kids) != len(pieces):
        bad("child count differs from part count")
        return
    want = cert.verdict
    for verts, piece, kid in zip(parts, pieces, kids):
        if _graph_of(kid, memo) != piece:
            bad("child certifies something other than its part")
        if kid.verdict not in (want, VERDICT_MAXNIK):
            bad(f"child verdict {kid.verdict} does not support {want}")
    svparts = [sorted(p) for p in parts]
    if lemma in (LEMMA_EDGE_SUM, LEMMA_EDGE_SUM_MAXNIK):
        if len(cut) != 2:
            bad("edge-sum lemma needs a 2-clique")
        flags = [_edge_triangular_in(piece, verts, cut)
                 for verts, piece in zip(svparts, pieces)]
        if want == VERDICT_MAXNIK and sum(flags) > 1:
            bad("glue edge triangular on more than one side")
    elif lemma == LEMMA_TRIANGLE_SUM:
        if len(cut) != 3 or len(pieces) != 2:
            bad("triangle sum needs a 3-clique and exactly two parts")
            return
        for verts, piece in zip(svparts, pieces):
            tri = tuple(verts.index(v) for v in cut)
            if not disk_axiom_covers(lib, piece, tri):
                bad("triangle not covered by a disk axiom")
        if want == VERDICT_MAXNIK and all(
                _triangle_in_k4(piece, verts, cut)
                for verts, piece in zip(svparts, pieces)):
            bad("triangle lies in a K4 on every side")
    elif lemma == LEMMA_VERTEX_SUM:
        if len(cut) != 1:
            bad("vertex-sum lemma needs a single vertex")
        if want == VERDICT_MAXNIK:
            bad("vertex sums cannot certify maximality")
    else:
        bad(f"unknown lemma {lemma!r}")
