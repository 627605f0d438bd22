"""Machine-checkable IK / nIK / maxnik certificates.

Each certificate is an evidence tree with a stable JSON form
{verdict, rule, evidence, children}; every leaf re-validates
independently (witnesses re-check, bounds recompute, axioms resolve in
the registry). UNKNOWN is a first-class verdict: these rules certify
everything in scope, and silence beats an unsound claim elsewhere.

``RULES`` holds one record per inference rule and ``LEMMAS`` one per
clique-sum lemma, each entry with the result it rests on. The provers,
``validate_certificate``, ``relabel_certificate`` and
``construct.clique_sum`` all read them. The provers, the validator and
``clique_sum`` also read the one obstruction library (IK patterns, knotless
axioms, disk axioms) from ``catalog.mmik_library()`` where they use it; none
takes another, so a certificate is built and replayed against one trusted
base.

When the host is 2-apex, each edge addition is walked for a 2-apex pair
before any IK search. A 2-apex addition goes straight to augmentation-nik
with the certificate the IK-first order would build: a 2-apex graph is nIK,
so no IK pattern is a minor of it, and that order would find no IK
evidence and then the same apex-pair child. A host that is not 2-apex has
no 2-apex addition (a pair that works for g + e works for g), so only
2-apex hosts are asked. An addition with 5n - 14 edges is not 2-apex and is
not walked; that covers every addition of a 2-apex maxnik host, which is
maximal 2-apex with 5n - 15 edges. The least non-edge is gated first,
before the maxnik cutset construction and the orbit computation: it leads
the first non-edge orbit, and a host with a 2-apex addition is not maxnik,
so the sound cutset construction could not have certified it and the orbit
loop would return the same certificate. The loop asks every addition, the
least one included, the same question, and each augmentation-nik is built
there.

Two facts about subgraphs shorten these walks without changing an answer.
If H - S is not planar for a subgraph H of G on the same vertices, then
neither is G - S. So each addition's walk starts at the host's first
2-apex pair: every pair before it failed for the host. And each piece at a
clique cutset is an induced subgraph of g, so a piece that is not 2-apex
makes g not 2-apex either. Once three pairs of g have failed, its walk
asks the pieces of g's first split, and ends with no witness at one that is
not 2-apex; so a clique sum of any depth is settled from its pieces after
three planarity runs per level, not n. Those piece walks are kept in the
call's memo, where the clique-sum construction finds them. Additions are
not asked about pieces: on the random hosts that cost more planarity runs
than it saved. Both facts reach the walk as the ``start`` and ``doomed``
hints of ``planarity.is_k_apex``, the one 2-apex walk; certify imports no
private name from ``planarity``.

A graph isomorphic to a knotless axiom (E9 or G9,29) is not walked at all:
no axiom is 2-apex, so its walk would fail, and ``_prove_nik`` goes on to
the axiom rule as before. The paper's infinite families are clique sums of
E9 copies, so this settles many of their pieces with no planarity run. The
check sits behind the memo, so a graph pays for it once per call.

Within one top-level ``certify_nik`` or ``certify_maxnik`` call each graph
gets one nIK certificate, at most one 2-apex walk (none when it is
isomorphic to an axiom) and at most one clique cutset search: the call owns
a memo of all three, so a clique-sum piece met again (in the nIK and then
the maxnik split, or at a second cutset) reuses its certificate, an
addition the gate walked in vain is not walked again when the orbit loop
asks for its nIK certificate, and the split that the ``doomed`` hint, the
nIK construction and the maxnik construction each read is searched once.
These memos are dropped when the call ends. The validator keeps no memo of
its own. Two bounded caches serve every call in the process instead: each
graph6 string is decoded once (``Certificate.graph`` reads the same cache),
and each node's replay runs once for each exact set of inputs it reads
(``validate_certificate`` argues that this is exact). So the E9, K7 and
minor-of facts that recur across a size plan's certificates are proven
once. The canonical searches behind generators, orbits and
axioms are shared across calls too: ``canon`` runs one per labelled graph.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, takewhile
from typing import Callable, Iterable, NamedTuple

from .canon import orbits
from .catalog import disk_axiom_covers, mmik_library
from .errors import ParseError, ValidationError
from .graphs import Graph, _blocks, graph6_decode, graph6_encode
from .minors import MinorWitness, has_minor
from .planarity import KApexResult, is_k_apex, is_planar
from .primality import _splits

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
        return _graph6(self.evidence["graph"])

    def to_json(self) -> dict:
        """The JSON form, in containers of its own: a caller that edits it
        leaves this certificate, and any cache that holds it, unchanged."""
        return {
            "verdict": self.verdict,
            "rule": self.rule,
            "evidence": copy.deepcopy(self.evidence),
            "children": [c.to_json() for c in self.children],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)

    @staticmethod
    def from_json(data: dict) -> "Certificate":
        """Rebuild ``to_json`` output into containers of its own, so editing
        ``data`` afterwards leaves the certificate unchanged; a node that is not
        an object with the four keys and a ``children`` list raises
        ``ValidationError``."""
        if not isinstance(data, dict):
            raise ValidationError(f"certificate node {data!r} is not an object")
        for key in ("verdict", "rule", "evidence", "children"):
            if key not in data:
                raise ValidationError(f"certificate node has no {key!r}")
        if not isinstance(data["children"], (list, tuple)):
            raise ValidationError("certificate node's 'children' is not a list")
        return Certificate(
            data["verdict"], data["rule"], copy.deepcopy(data["evidence"]),
            tuple(Certificate.from_json(c) for c in data["children"]))


def _cert(verdict: str, rule: str, g: Graph, children: Iterable[Certificate] = (),
          **evidence) -> Certificate:
    ev = {"graph": graph6_encode(g)}
    ev.update(evidence)
    return Certificate(verdict, rule, ev, tuple(children))


def construction_certificate(verdict: str, g: Graph, children: Iterable[Certificate],
                             lemma: str, cutset: Iterable[int],
                             parts: Iterable[Iterable[int]]) -> Certificate:
    """The ``construction`` node: g is the clique sum of ``parts`` at ``cutset``
    under ``lemma``, and each child certifies one part, in order."""
    return _cert(verdict, "construction", g, children, lemma=lemma, cutset=list(cutset),
                 parts=[list(part) for part in parts])


# -- clique-sum lemmas -----------------------------------------------------

Sides = list[tuple[Graph, tuple[int, ...]]]  # each piece, with the glued clique's positions in it

_STRENGTH = {VERDICT_NIK: 1, VERDICT_MAXNIK: 2}  # a maxnik certificate also certifies nIK


class Lemma(NamedTuple):
    """Gluing over a ``clique``-clique gives each result in ``needs``.

    Results come strongest first, each when every operand certifies at least
    the verdict it maps to. ``side``, if set, returns the strongest result
    the pieces allow, or None and the reason they allow none.
    """

    clique: int
    needs: dict[str, str]
    side: Callable[[Sides], tuple[str | None, str]] | None = None


def _glue_edge_side(sides: Sides) -> tuple[str | None, str]:
    if sum(bool(p.rows[x] & p.rows[y]) for p, (x, y) in sides) > 1:
        return None, "glue edge is triangular in more than one piece"
    return VERDICT_MAXNIK, ""


def _triangle_side(sides: Sides) -> tuple[str | None, str]:
    if len(sides) != 2:
        return None, "triangle sum needs exactly two pieces"
    if not all(disk_axiom_covers(p, tri) for p, tri in sides):
        return None, "triangle not covered by a disk axiom"
    if all(p.rows[a] & p.rows[b] & p.rows[c] for p, (a, b, c) in sides):
        return VERDICT_NIK, ""  # the triangle lies in a K4 on every side
    return VERDICT_MAXNIK, ""


LEMMAS: dict[str, Lemma] = {
    # clique sums of nIK graphs over K1 and K2 are nIK
    LEMMA_VERTEX_SUM: Lemma(1, {VERDICT_NIK: VERDICT_NIK}),
    LEMMA_EDGE_SUM: Lemma(2, {VERDICT_NIK: VERDICT_NIK}),
    # an edge sum of maxnik graphs whose glue edge is non-triangular on all
    # sides but one is maxnik
    LEMMA_EDGE_SUM_MAXNIK: Lemma(2, {VERDICT_MAXNIK: VERDICT_MAXNIK}, _glue_edge_side),
    # a triangle sum under registered disk axioms is nIK, and maxnik when the
    # triangle avoids a K4 on one side
    LEMMA_TRIANGLE_SUM: Lemma(3, {VERDICT_MAXNIK: VERDICT_MAXNIK, VERDICT_NIK: VERDICT_NIK},
                              _triangle_side),
}


def lemma_conclusion(name: str, sides: Sides, verdicts: list[str]) -> tuple[str | None, str]:
    """The strongest verdict lemma ``name`` gives the clique sum of ``sides``.

    ``verdicts`` are the operands' verdicts. A triangle sum's disk axioms
    come from ``mmik_library()``. Returns that verdict and "", or None and
    the reason no verdict follows.
    """
    lemma = LEMMAS.get(name)
    if lemma is None:
        return None, f"unknown lemma {name!r}"
    if any(len(c) != lemma.clique or not all(p.has_edge(u, v) for u, v in combinations(c, 2))
           for p, c in sides):
        return None, f"lemma {name} glues over a {lemma.clique}-clique"
    cap, reason = lemma.side(sides) if lemma.side else (VERDICT_MAXNIK, "")
    for result, need in lemma.needs.items():
        if cap is None or _STRENGTH[result] > _STRENGTH[cap]:
            continue
        if all(_STRENGTH.get(v, 0) >= _STRENGTH[need] for v in verdicts):
            return result, ""
        reason = f"an operand is not certified {need}"
    return None, reason


# -- IK ------------------------------------------------------------------


def certify_ik(g: Graph) -> Certificate:
    """IK via an obstruction minor; never claims nIK."""
    for pattern in mmik_library().mmik_patterns:
        if pattern.graph.n > g.n or pattern.graph.m > g.m:
            continue
        found = has_minor(g, pattern.graph)
        if found.found:
            assert found.witness is not None
            return _cert(VERDICT_IK, "minor-of", g,
                         pattern=pattern.name,
                         branch_sets=[list(b) for b in found.witness.branch_sets])
    return _cert(VERDICT_UNKNOWN, "no-ik-evidence", g)


# -- nIK -----------------------------------------------------------------


def certify_nik(g: Graph) -> Certificate:
    """nIK via 2-apex, a knotless axiom, or a clique-sum construction."""
    return _certify_nik(g, {})


def _certify_nik(g: Graph, memo: dict) -> Certificate:
    """``certify_nik`` that reuses the certificate ``memo`` holds for ``g``.

    ``memo`` belongs to one top-level call, so each graph that call
    meets is settled once however many clique sums it appears in, and its
    2-apex walk is the one ``_two_apex`` kept.
    """
    return _memo(memo, "nik", g, lambda: _prove_nik(g, memo))


def _two_apex(g: Graph, memo: dict, start: tuple[int, ...] | None = None) -> KApexResult:
    """``is_k_apex(g, 2)``, walked at most once per graph in ``memo``.

    From order 7 on a 2-apex graph has at most 3(n - 2) - 6 + 2(n - 2) + 1
    = 5n - 15 edges, so a graph with 5n - 14 is not walked. ``start`` is the
    first witness of a host that g adds one edge to, passed on as the walk's
    ``start``: it skips the pairs before it. Without one, a graph isomorphic
    to a knotless axiom is not walked, since no axiom is 2-apex
    (``catalog._LIBRARY_TABLE``), and any other walk gets
    ``_piece_not_two_apex`` as its ``doomed`` hint, asked once three pairs
    have failed.
    """
    if g.n >= 7 and g.m >= 5 * g.n - 14:
        return KApexResult(False, None)
    if start is not None:
        return _memo(memo, "2-apex", g, lambda: is_k_apex(g, 2, start))
    return _memo(memo, "2-apex", g, lambda: (
        KApexResult(False, None) if mmik_library().axiom_for(g) is not None
        else is_k_apex(g, 2, doomed=lambda: _piece_not_two_apex(g, memo))))


def _piece_not_two_apex(g: Graph, memo: dict) -> bool:
    """Is a piece of g's first clique-cutset split not 2-apex?

    Each piece is an induced subgraph of g, so then g is not 2-apex either.
    The split is the first of ``_small_splits``, and the pieces' walks go
    into ``memo``: ``_certify_by_cutsets`` finds both there.
    """
    splits = _small_splits(g, memo)
    return bool(splits) and any(not _two_apex(piece, memo).found for _, piece in splits[0][1])


def _small_splits(g: Graph, memo: dict) -> list:
    """g's splits at cutsets of at most 3 vertices, in ``_splits`` order,
    searched once per graph in ``memo``; none when g is disconnected.

    3 is the largest clique a ``LEMMAS`` entry glues over, and cutsets come
    smallest first, so the search stops at the first larger one.
    """
    return _memo(memo, "splits", g, lambda: (
        list(takewhile(lambda split: len(split[0]) <= 3, _splits(g)))
        if g.is_connected() else []))


def _prove_nik(g: Graph, memo: dict) -> Certificate:
    apex = _two_apex(g, memo)
    if apex.found:
        return _cert(VERDICT_NIK, "apex-pair", g, witness=list(apex.witness or ()))
    axiom = mmik_library().axiom_for(g)
    if axiom is not None:
        return _cert(VERDICT_NIK, "axiom", g, name=axiom.name,
                     trust="published knotless embedding; not re-verified here")
    built = _certify_by_cutsets(g, memo, want_maxnik=False)
    if built is not None:
        return built
    return _cert(VERDICT_UNKNOWN, "no-nik-evidence", g)


def _certify_by_cutsets(g: Graph, memo: dict, want_maxnik: bool) -> Certificate | None:
    """Certify via a clique-sum split at a small clique cutset, if any works."""
    want = VERDICT_MAXNIK if want_maxnik else VERDICT_NIK
    for cut, pieces in _small_splits(g, memo):
        lemma = next((name for name, lem in LEMMAS.items()
                      if lem.clique == len(cut) and want in lem.needs), None)
        # the side conditions first, as if every piece certified ``want``
        sides = [(piece, tuple(verts.index(v) for v in cut)) for verts, piece in pieces]
        if lemma_conclusion(lemma, sides, [want] * len(sides))[0] != want:
            continue
        sub_certs = []
        for _, piece in pieces:
            sub = _certify_maxnik(piece, memo) if want_maxnik else _certify_nik(piece, memo)
            if sub.verdict != want:
                break
            sub_certs.append(sub)
        else:
            return construction_certificate(want, g, sub_certs, lemma, cut,
                                            [verts for verts, _ in pieces])
    return None


# -- maxnik --------------------------------------------------------------


def certify_maxnik(g: Graph) -> Certificate:
    """Edge-maximality: nIK now, IK after every orbit-distinct edge addition."""
    return _certify_maxnik(g, {})


def _certify_maxnik(g: Graph, memo: dict) -> Certificate:
    nik = _certify_nik(g, memo)
    if nik.verdict != VERDICT_NIK:
        ik = certify_ik(g)
        if ik.verdict == VERDICT_IK:
            return _cert(VERDICT_NOT_MAXNIK, "is-ik", g, children=[ik])
    if g.is_complete() and nik.verdict == VERDICT_NIK:
        return _cert(VERDICT_MAXNIK, "complete-nik", g, children=[nik], n=g.n)
    two_apex = nik.rule == "apex-pair"
    if two_apex:
        start = tuple(nik.evidence["witness"])  # every pair before it fails for each addition
        least = g.non_edges()[0]
    if two_apex and _two_apex(g.with_edge(*least), memo, start).found:
        reps = [least]  # the least non-edge gate of the module docstring
    else:
        built = _certify_by_cutsets(g, memo, want_maxnik=True)
        if built is not None:
            return built
        if nik.verdict != VERDICT_NIK:
            return _cert(VERDICT_UNKNOWN, "nik-undecided", g, children=[nik])
        reps = [tuple(o[0]) for o in orbits(g, "non-edge").orbits]
    children = [nik]
    undecided = []
    for u, v in reps:
        added = g.with_edge(u, v)
        # a 2-apex addition is nIK, so no IK pattern is a minor of it: no IK search
        if not (two_apex and _two_apex(added, memo, start).found):
            ik = certify_ik(added)
            if ik.verdict == VERDICT_IK:
                children.append(ik)
                continue
        back = _certify_nik(added, memo)
        if back.verdict == VERDICT_NIK:
            return _cert(VERDICT_NOT_MAXNIK, "augmentation-nik", g,
                         children=[nik, back], edge=[u, v])
        undecided.append([u, v])
    if undecided:
        return _cert(VERDICT_UNKNOWN, "augmentation-undecided", g,
                     children=children, edges=undecided)
    return _cert(VERDICT_MAXNIK, "per-non-edge", g, children=children,
                 orbit_representatives=[list(r) for r in reps])


def relabel_certificate(cert: Certificate, perm: tuple[int, ...]) -> Certificate:
    """The same evidence tree under a vertex relabeling of its subject."""
    ev = dict(cert.evidence)
    ev["graph"] = graph6_encode(cert.graph.relabel(perm))
    for name, shape in RULES[cert.rule].fields.items():
        if shape == SETS:
            ev[name] = [sorted(map(perm.__getitem__, s)) for s in ev[name]]
        else:
            moved = list(map(perm.__getitem__, ev[name]))
            ev[name] = sorted(moved) if shape == SET else moved
    if cert.rule == "construction":  # each child certifies its part, in sorted order
        parts = [sorted(part) for part in cert.evidence["parts"]]
        ranks = [{x: i for i, x in enumerate(sorted(perm[v] for v in part))} for part in parts]
        perms = [tuple(rank[perm[v]] for v in part) for rank, part in zip(ranks, parts)]
    else:
        perms = [perm] * len(cert.children)
    children = tuple(relabel_certificate(c, p) for c, p in zip(cert.children, perms))
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

    full = (1 << n) - 1
    checks.append(NecessaryCheck(
        "two-connected", n >= 2, n < 2 or _blocks(g.rows, full) == [full],
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


# -- inference rules and certificate re-validation -------------------------

SET, SETS, TUPLE = "vertex set", "list of vertex sets", "vertex tuple"  # evidence shapes


class Rule(NamedTuple):
    """A node citing the rule may carry a verdict in ``concludes``.

    ``fields`` maps each vertex-valued evidence field to its shape: a sorted
    vertex set, a list of sorted sets, or an ordered tuple. The first child
    must certify the node's own graph with verdict ``first_child``, if set.
    ``replay`` returns the first problem with the rule's own evidence, if any.
    """

    concludes: set[str]
    fields: dict[str, str] = {}
    first_child: str | None = None
    replay: Callable[[Certificate, Graph], str | None] | None = None


def _memo(memo: dict, what: str, graph, compute: Callable[[], object]):
    """``compute()`` for ``graph``, run once per ``what`` in ``memo``."""
    key = (what, graph)
    if key not in memo:
        memo[key] = compute()
    return memo[key]


_GRAPHS = 512  # a size-planner pass decodes 167 distinct strings


def _graph6(text) -> Graph:
    """``graph6_decode(text)``, kept for reuse when ``text`` is a ``str``; a bad
    string raises ``ParseError`` on every call, since an exception is not kept."""
    return _decoded(text) if type(text) is str else graph6_decode(text)


@lru_cache(maxsize=_GRAPHS)
def _decoded(text: str) -> Graph:
    return graph6_decode(text)


def _graph6_of(cert: Certificate):
    return cert.evidence.get("graph") if isinstance(cert.evidence, dict) else None


def _graph_of(cert: Certificate) -> Graph | None:
    """``cert.graph``, or None when the node's evidence holds no valid graph6 string."""
    try:
        return _graph6(g6) if isinstance(g6 := _graph6_of(cert), str) else None
    except ParseError:
        return None


def _replay_minor(cert, g):
    try:
        pattern = mmik_library().pattern_by_name(cert.evidence.get("pattern")).graph
    except KeyError:
        return f"pattern {cert.evidence.get('pattern')!r} not in library"
    if not MinorWitness(tuple(map(tuple, cert.evidence["branch_sets"]))).validate(g, pattern):
        return "minor witness fails re-validation"


def _replay_axiom(cert, g):
    axiom = mmik_library().axiom_for(g)
    if axiom is None or axiom.name != cert.evidence.get("name"):
        return "axiom lookup fails"


def _replay_per_non_edge(cert, g):
    reps = [tuple(r) for r in cert.evidence["orbit_representatives"]]
    try:
        orbit_list = orbits(g, "non-edge").orbits
    except AssertionError as exc:  # a generator that is no automorphism
        return str(exc)
    if len(reps) != len(orbit_list):
        return "representative count differs from orbit count"
    if not all(any(r in orbit for r in reps) for orbit in orbit_list):
        return "orbit representatives do not cover every non-edge orbit"
    if [_graph_of(c) for c in cert.children if c.verdict == VERDICT_IK] != [
            g.with_edge(*r) for r in reps]:
        return "the IK children do not certify the representatives' additions"


def _replay_augmentation(cert, g):
    edge = cert.evidence["edge"]
    if len(set(edge)) != 2 or len(edge) != 2 or g.has_edge(*edge):
        return "augmentation edge is not a non-edge"
    added = g.with_edge(*edge)
    if not any(c.verdict == VERDICT_NIK and _graph_of(c) == added for c in cert.children):
        return "missing nIK child for the augmented graph"


def _replay_construction(cert, g):
    cut = cert.evidence["cutset"]
    parts = [sorted(p) for p in cert.evidence["parts"]]
    # each part is the cutset plus a body, and the bodies partition the rest
    if (not all(set(cut) < set(p) for p in parts) or set().union(*parts) != set(range(g.n))
            or sum(map(len, parts)) - (len(parts) - 1) * len(cut) != g.n):
        return "parts are not the cutset plus disjoint bodies covering the graph"
    pieces = [g.subgraph(part) for part in parts]
    # every piece holds the cutset's clique (lemma_conclusion checks it is one)
    if g.m != sum(p.m for p in pieces) - (len(parts) - 1) * len(cut) * (len(cut) - 1) // 2:
        return "edge crosses between parts"
    if [_graph_of(kid) for kid in cert.children] != pieces:
        return "children do not certify the parts, one each"
    lemma = str(cert.evidence.get("lemma"))
    sides = [(piece, tuple(part.index(v) for v in cut)) for part, piece in zip(parts, pieces)]
    verdicts = [str(c.verdict) for c in cert.children]  # a malformed verdict certifies nothing
    conclusion, reason = lemma_conclusion(lemma, sides, verdicts)
    if conclusion is None:
        return reason
    if cert.verdict not in LEMMAS[lemma].needs or _STRENGTH[cert.verdict] > _STRENGTH[conclusion]:
        return f"lemma {lemma} concludes {conclusion} here, not {cert.verdict}"


RULES: dict[str, Rule] = {
    # a registered IK pattern as a minor
    "minor-of": Rule({VERDICT_IK}, {"branch_sets": SETS}, replay=_replay_minor),
    "no-ik-evidence": Rule({VERDICT_UNKNOWN}),
    # deleting at most two vertices leaves a planar graph, so it is nIK
    # (a witness of every vertex leaves the empty graph, which is planar)
    "apex-pair": Rule({VERDICT_NIK}, {"witness": SET}, replay=lambda c, g: (
        None if len(w := c.evidence["witness"]) <= 2
        and (len(set(w)) == g.n or is_planar(g.delete_vertices(w)))
        else "apex witness is not at most two vertices leaving a planar graph")),
    # E9 and G9,29 are nIK by trusted published embeddings
    "axiom": Rule({VERDICT_NIK}, replay=_replay_axiom),
    "no-nik-evidence": Rule({VERDICT_UNKNOWN}),
    # a clique sum under one of LEMMAS, one child per part
    "construction": Rule({VERDICT_NIK, VERDICT_MAXNIK}, {"cutset": TUPLE, "parts": SETS},
                         replay=_replay_construction),
    "is-ik": Rule({VERDICT_NOT_MAXNIK}, first_child=VERDICT_IK),
    # a complete nIK graph has no edge left to add
    "complete-nik": Rule({VERDICT_MAXNIK}, {}, VERDICT_NIK, lambda c, g: (
        None if g.is_complete() else "graph is not complete")),
    # nIK, and adding one non-edge from every orbit gives IK
    "per-non-edge": Rule({VERDICT_MAXNIK}, {"orbit_representatives": SETS}, VERDICT_NIK,
                         _replay_per_non_edge),
    # adding the edge leaves an nIK graph
    "augmentation-nik": Rule({VERDICT_NOT_MAXNIK}, {"edge": SET}, replay=_replay_augmentation),
    "augmentation-undecided": Rule({VERDICT_UNKNOWN}, {"edges": SETS}),
    "nik-undecided": Rule({VERDICT_UNKNOWN}),
}


def validate_certificate(cert: Certificate) -> list[str]:
    """Re-check every node of an evidence tree; returns human-readable problems.

    Each call checks every node's graph, rule, verdict, vertex fields and
    first child. A node's replay is read back from the bounded, process-wide
    ``_replayed`` when its key was replayed before, and this is exact. A
    replay reads the node's verdict, evidence (its graph decoded from
    ``graph``) and each child's verdict and graph; all else it reads (the
    library, ``canon``'s searches) is fixed in the process. The key holds
    each of these: values of type exactly ``str``, ``int`` or ``None``, equal
    only when they are the same, and each checked vertex field, when it is a
    plain list or tuple (of them), as its tuple of ints, since a replay reads
    only its items in order and their number. A node holding any other value
    (a bool, float, subclass or other container) is replayed uncached. So the
    node that ``_replayed`` rebuilds from the key gets this node's answer.
    """
    return list(_problems(cert, "root"))


def _vertices(value, shape: str, n: int) -> tuple | None:
    """``value`` as a tuple of ints (of such tuples, for SETS) if it is a ``shape``
    of vertices of an n-vertex graph, else None: one pass checks and freezes it."""
    try:
        frozen = tuple(map(tuple, value)) if shape == SETS else tuple(value)
    except TypeError:
        return None
    flat = (v for vs in frozen for v in vs) if shape == SETS else frozen
    return frozen if all(type(v) is int and 0 <= v < n for v in flat) else None


_EXACT, _PLAIN = (str, int, type(None)), (list, tuple)


def _exact(value, shape: str | None = None) -> bool:
    """Can ``value`` be keyed exactly? A vertex field of ``shape`` must be a
    plain list or tuple (of them, for SETS), and any other value of a type
    in ``_EXACT``."""
    if shape is None:
        return type(value) in _EXACT
    return type(value) in _PLAIN and (shape != SETS or all(type(vs) in _PLAIN for vs in value))


def _replay_key(cert: Certificate, fields: dict[str, str], vertices: dict) -> tuple | None:
    """The inputs of ``cert``'s replay, frozen, or None when one cannot be
    keyed exactly; ``vertices`` holds its ``fields`` as ``_vertices`` froze them."""
    ev, kids = cert.evidence, tuple((c.verdict, _graph6_of(c)) for c in cert.children)
    if (type(ev) is dict and all(map(_exact, (cert.rule, cert.verdict, *chain(*kids))))
            and all(type(name) is str and _exact(v, fields.get(name)) for name, v in ev.items())):
        return cert.rule, cert.verdict, frozenset((k, vertices.get(k, v)) for k, v in ev.items()), kids
    return None


_REPLAYS = 512  # a size-planner pass replays 174 distinct nodes


@lru_cache(maxsize=_REPLAYS)
def _replayed(key: tuple) -> str | None:
    """Replay the node ``key`` freezes, rebuilt from the key alone: each child
    stands in with only what a replay reads of it, its verdict and graph."""
    rule, verdict, evidence, kids = key
    kids = tuple(Certificate(verdict=v, rule="", evidence={"graph": g6}) for v, g6 in kids)
    node = Certificate(verdict, rule, dict(evidence), kids)
    return RULES[rule].replay(node, _graph6(node.evidence["graph"]))


def _problems(cert: Certificate, path: str):
    g = _graph_of(cert)
    rule = RULES.get(cert.rule) if isinstance(cert.rule, str) else None
    if g is None:
        found = ["evidence 'graph' is missing or not a graph6 string"]
    elif rule is None:
        found = [f"unknown rule {cert.rule!r}"]
    else:
        vertices = {name: _vertices(cert.evidence.get(name), shape, g.n)
                    for name, shape in rule.fields.items()}
        found = [f"evidence {name!r} is missing or not a {shape} in range({g.n})"
                 for name, shape in rule.fields.items() if vertices[name] is None]
        if not isinstance(cert.verdict, str) or cert.verdict not in rule.concludes:
            found.append(f"rule {cert.rule} does not conclude {cert.verdict}")
        first = cert.children[0] if cert.children else None
        if rule.first_child and (first is None or first.verdict != rule.first_child
                                 or _graph_of(first) != g):
            found.append(f"first child is not a {rule.first_child} certificate of this graph")
        if rule.replay and not found:
            key = _replay_key(cert, rule.fields, vertices)
            if problem := rule.replay(cert, g) if key is None else _replayed(key):
                found.append(problem)
    yield from (f"{path}: {p}" for p in found)
    for i, child in enumerate(cert.children):
        yield from _problems(child, f"{path}.{i}")
