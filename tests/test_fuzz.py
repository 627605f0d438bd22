"""Property tests over arbitrary inputs (needs hypothesis)."""

from __future__ import annotations

import copy
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from itertools import combinations
from unittest.mock import patch

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from maxnik import certify, primality  # noqa: E402
from maxnik.certify import (LEMMAS, RULES, SETS, VERDICT_IK,  # noqa: E402
                            VERDICT_MAXNIK, VERDICT_NIK, VERDICT_NOT_MAXNIK,
                            VERDICT_UNKNOWN, Certificate, validate_certificate)
from maxnik.cli import main  # noqa: E402
from maxnik.errors import MaxnikError  # noqa: E402
from maxnik.graphs import (Graph, from_edges, graph6_decode,  # noqa: E402
                           graph6_encode, identified_union)
from maxnik.minors import has_minor  # noqa: E402
from maxnik.planarity import _planar_within  # noqa: E402
from maxnik.primality import decompose  # noqa: E402

from conftest import (brute_force_minor, leaves, outcome,  # noqa: E402
                      re_glue, reference_clique_cutsets, reference_cycle_rank,
                      reference_graph6_decode, reference_is_planar)

VERDICTS = (VERDICT_IK, VERDICT_NIK, VERDICT_MAXNIK, VERDICT_NOT_MAXNIK, VERDICT_UNKNOWN)

GRAPH6_CHARS = st.characters(min_codepoint=63, max_codepoint=126)


@st.composite
def _sized_graph6(draw) -> str:
    """A header byte and exactly as many data bytes as its order needs."""
    n = draw(st.integers(1, 62))
    body = draw(st.text(GRAPH6_CHARS, min_size=-(-n * (n - 1) // 12),
                        max_size=-(-n * (n - 1) // 12)))
    return chr(n + 63) + body


TEXT = st.one_of(
    st.text(),
    st.text(GRAPH6_CHARS),
    _sized_graph6(),
    st.builds(lambda s: " >>graph6<<" + s + "\n", _sized_graph6()),
)


@settings(max_examples=2000, deadline=None, database=None, derandomize=True)
@given(TEXT)
def test_graph6_decode_raises_or_round_trips(text):
    try:
        g = graph6_decode(text)
    except MaxnikError:
        return
    assert graph6_decode(graph6_encode(g)) == g


@settings(max_examples=2000, deadline=None, database=None, derandomize=True)
@given(TEXT)
def test_graph6_decode_matches_the_bit_list_codec(text):
    # the same graph, or the same exception class and message
    got, want = outcome(graph6_decode, text), outcome(reference_graph6_decode, text)
    assert got == want
    if got[0] == "ok":
        assert got[1].rows == want[1].rows


_NAMES = st.sampled_from(sorted(RULES) + sorted(LEMMAS) + sorted(VERDICTS) + [
    "E9", "G9,29", "K7", "K3,3,1,1", "K4", ""])
# ints in and out of range, bools, floats, strings, rule, lemma, verdict and
# library names, and lists of them, nested: hashable and unhashable alike
_LEAF = st.one_of(st.integers(-2, 9), st.booleans(), st.floats(), st.text(max_size=3), _NAMES,
                  st.none())
_VALUE = st.one_of(_LEAF, st.lists(_LEAF, max_size=4),
                   st.lists(st.lists(_LEAF, max_size=3), max_size=3))


def _vertex_field(shape: str, n: int):
    """A ``shape`` of distinct vertices of an n-vertex graph, which the
    validator's vertex-field check accepts."""
    vertices = st.lists(st.integers(0, n - 1), max_size=3, unique=True)
    return st.lists(vertices, max_size=4) if shape == SETS else vertices


@st.composite
def _rule_node(draw, depth: int = 2, near=None) -> Certificate:
    """A node citing any ``RULES`` entry (or none), with random evidence
    values and up to ``depth`` levels of random children. Its graph has
    order 1-7; a child's graph is often its parent's, or that plus an edge.

    Each vertex-valued field of the rule is a list, or a list of lists, of
    small ints two times in three, so that replays run; anything in
    ``_VALUE`` otherwise. One node in two is repaired instead: its graph
    string, verdict, vertex fields and first child pass the validator's
    own checks, so its replay runs (unless a random extra value or the
    rule's first child still fails them).
    """
    repaired = draw(st.booleans())
    if near is not None and draw(st.integers(0, 3)):
        g = near if not near.non_edges() or draw(st.booleans()) else near.with_edge(
            *draw(st.sampled_from(near.non_edges())))
    else:
        n = draw(st.integers(1, 7))
        pairs = [(u, v) for v in range(n) for u in range(v)]
        bits = draw(st.integers(0, (1 << len(pairs)) - 1))
        g = from_edges(n, [e for i, e in enumerate(pairs) if bits >> i & 1])
    rule = draw(st.sampled_from(sorted(RULES) + ["no-such-rule"]))
    concludes = sorted(RULES[rule].concludes) if rule in RULES else [VERDICT_NIK]
    verdict = draw(st.sampled_from(concludes) if repaired or draw(st.integers(0, 3))
                   else st.one_of(st.sampled_from(VERDICTS), _VALUE))
    vertices = st.lists(st.integers(0, g.n), max_size=3)
    evidence = {"graph": graph6_encode(g) if repaired or draw(st.integers(0, 9))
                else draw(_VALUE)}
    for name, shape in RULES[rule].fields.items() if rule in RULES else ():
        evidence[name] = draw(_vertex_field(shape, g.n) if repaired else
                              st.one_of(vertices, st.lists(vertices, max_size=4), _VALUE))
    for name in draw(st.lists(st.sampled_from(("pattern", "name", "lemma", "trust")),
                              unique=True)):
        evidence[name] = draw(_VALUE)
    children = draw(st.lists(_rule_node(depth - 1, g), max_size=2)) if depth else []
    first = RULES[rule].first_child if rule in RULES else None
    if first and children and (repaired or draw(st.booleans())):  # a first child the rule accepts
        children[0] = replace(children[0], verdict=first,
                              evidence={**children[0].evidence, "graph": graph6_encode(g)})
    return Certificate(verdict, rule, evidence, tuple(children))


@settings(max_examples=1000, deadline=None, database=None, derandomize=True)
@given(_rule_node())
def test_validate_certificate_never_raises(cert):
    assert isinstance(validate_certificate(cert), list)


def _leaves(key):
    """Every value a replay key holds, through its tuples and frozensets."""
    for part in key:
        if isinstance(part, (tuple, frozenset)):
            yield from _leaves(part)
        else:
            yield part


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(_rule_node())
def test_the_replay_cache_answers_as_the_replay_does(cert):
    real, asked = certify._replayed, []
    with patch.object(certify, "_replayed", lambda key: asked.append(key) or real(key)):
        warm = validate_certificate(cert)  # the cache holds earlier examples' replays
    certify._replayed.cache_clear()
    assert validate_certificate(cert) == warm  # cold
    assert validate_certificate(cert) == warm  # warm with its own replays
    with patch.object(certify, "_replayed", real.__wrapped__):
        assert validate_certificate(cert) == warm
    # a key holds no value that ``==`` confuses with another: no bool, float or subclass
    assert {type(x) for key in asked for x in _leaves(key)} <= {str, int, type(None)}


class _Int(int):
    """Equal to the int it holds, but not of type ``int``."""


def _spots(node: Certificate) -> list[tuple[str, int, int | None]]:
    """Each vertex in a checked node's vertex fields: (field, index, index in the set)."""
    return [(name, i, j) for name, shape in RULES[node.rule].fields.items()
            for i, x in enumerate(node.evidence[name])
            for j in (range(len(x)) if shape == SETS else [None])]


@settings(max_examples=500, deadline=None, database=None, derandomize=True)
@given(_rule_node(), st.data())
def test_a_look_alike_vertex_is_never_answered_from_the_cache(cert, data):
    """Take a node whose replay the cache now holds and change one of its
    vertices to a value equal to it (True, 1.0, an int subclass): the changed
    node is never looked up under the first node's key."""
    real, keyed = certify._replay_key, []

    def spy(node, fields, vertices):
        keyed.append((node, key := real(node, fields, vertices)))
        return key

    with patch.object(certify, "_replay_key", spy):
        validate_certificate(cert)
        replayed = [(node, key) for node, key in keyed if key is not None and _spots(node)]
        if not replayed:
            return
        node, first = data.draw(st.sampled_from(replayed))
        name, i, j = data.draw(st.sampled_from(_spots(node)))
        v = node.evidence[name][i] if j is None else node.evidence[name][i][j]
        for twin in [float(v), _Int(v)] + ([bool(v)] if v in (0, 1) else []):
            value = copy.deepcopy(node.evidence[name])
            if j is None:
                value[i] = twin
            else:
                value[i][j] = twin
            changed = replace(node, evidence={**node.evidence, name: value})
            got = validate_certificate(changed)
            assert not any(key == first for n, key in keyed if n is changed)
            with patch.object(certify, "_replayed", certify._replayed.__wrapped__):
                assert validate_certificate(changed) == got


@st.composite
def _host_and_mask(draw) -> tuple[Graph, int]:
    """A host of order at most 12 made of pieces of mixed density, each set
    beside the last one or sharing a vertex with it (a cut vertex), and a
    non-empty vertex mask of it.

    So the remainders include disconnected ones, cut vertices, blocks of
    under five vertices, and a dense block such as K5 or K6 beside sparse
    pieces, where the whole mask meets the 3n - 6 bound and that block does
    not.
    """
    rng = draw(st.randoms(use_true_random=False))
    n, edges = 0, set()
    while n < 12 and (n == 0 or rng.random() < 0.7):
        glue = n > 0 and rng.random() < 0.5
        size = rng.randint(1, 12 - n)
        p = rng.choice((0.2, 0.5, 0.8, 1.0))
        edges.update(e for e in combinations(range(n - glue, n + size), 2) if rng.random() < p)
        n += size
    q = rng.choice((0.5, 0.8, 1.0))
    keep = sum(1 << v for v in range(n) if rng.random() < q) or 1 << rng.randrange(n)
    return from_edges(n, sorted(edges)), keep


@settings(max_examples=600, deadline=None, database=None, derandomize=True)
@given(_host_and_mask())
def test_planar_within_matches_the_reference_on_any_mask(host_and_mask):
    g, keep = host_and_mask
    want = reference_is_planar(g.subgraph(v for v in range(g.n) if keep >> v & 1))
    assert _planar_within(g.rows, keep) == want


@st.composite
def _connected_with_clique(draw, k: int):
    """A connected graph of order max(2, k)-8 and k of its vertices made a clique."""
    n = draw(st.integers(max(2, k), 8))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}  # a spanning tree
    pairs = [(u, v) for v in range(n) for u in range(v)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), unique=True)))
    sites = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True))
    edges |= {(min(u, v), max(u, v)) for u in sites for v in sites if u != v}
    return from_edges(n, sorted(edges)), sites


@st.composite
def _clique_sum(draw):
    """Two random connected graphs of order 2-8 glued along a clique of size 1-3."""
    k = draw(st.integers(1, 3))
    g, g_sites = draw(_connected_with_clique(k))
    h, h_sites = draw(_connected_with_clique(k))
    return identified_union(g, g_sites, h, h_sites)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(_clique_sum())
def test_decompose_re_glues_random_clique_sums(g):
    primality._decompose.cache_clear()
    d = decompose(g)
    assert re_glue(d) == g
    assert all(reference_clique_cutsets(leaf) == [] for leaf in leaves(d))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(primality, "_minimal_clique_cutsets",
                   lambda h: iter(reference_clique_cutsets(h)))
        primality._decompose.cache_clear()
        assert decompose(g) == d
    primality._decompose.cache_clear()


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(_clique_sum())
def test_decompose_reads_the_same_tree_from_a_warm_cache(g):
    """A tree built over pieces decomposed earlier equals one built cold, and
    a split that does not re-glue raises again once the cache is cleared."""
    primality._decompose.cache_clear()
    cut, pieces = next(primality._splits(g), (None, []))
    for _, piece in reversed(pieces):
        decompose(piece)
    warm = decompose(g)
    primality._decompose.cache_clear()
    cold = decompose(g)
    assert cold.to_json() == warm.to_json()

    glued = primality._glued
    with pytest.MonkeyPatch.context() as mp:  # the re-glue loses the last row
        mp.setattr(primality, "_glued", lambda *args: glued(*args)[:-1] + (0,))
        assert decompose(g) is cold  # a hit checks nothing
        primality._decompose.cache_clear()
        if cut is None:
            assert decompose(g) == cold
        else:
            with pytest.raises(AssertionError, match="does not re-glue"):
                decompose(g)
    primality._decompose.cache_clear()


@st.composite
def _small_graph(draw, max_n: int):
    """A graph of order 1..max_n with any edge set, so disconnected graphs
    and isolated vertices are drawn too."""
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for v in range(n) for u in range(v)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return from_edges(n, edges)


@settings(max_examples=1000, deadline=None, database=None, derandomize=True)
@given(_small_graph(7), _small_graph(5))
def test_has_minor_matches_brute_force_around_the_rank_gate(host, pattern):
    want = brute_force_minor(host, pattern)
    assert has_minor(host, pattern).found == want
    if reference_cycle_rank(pattern) > reference_cycle_rank(host):
        assert not want


# a batch line: the graph6 of a graph of order at most 7, or junk that short
# (at most 8 characters decode to order 9 at most, so every line is quick)
_BATCH_LINE = st.one_of(_small_graph(7).map(graph6_encode),
                        st.text(st.characters(blacklist_characters="\n"), max_size=8))


@pytest.mark.parametrize("command", ["classify", "certify", "prime"])
@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(lines=st.lists(_BATCH_LINE, max_size=4))
def test_stdin_batch_gives_one_record_per_line(command, lines):
    with patch.dict(os.environ), patch.object(sys, "stdin", io.StringIO("\n".join(lines))), \
            redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()):
        os.environ.pop("MAXNIK_WORKERS", None)
        code = main([command, "-"])
    assert code in (0, 1, 2)
    records = [json.loads(line) for line in out.getvalue().splitlines()]
    assert [r["graph6"] for r in records] == [line.strip() for line in lines if line.strip()]
