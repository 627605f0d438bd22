"""Property tests over arbitrary inputs (needs hypothesis)."""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from maxnik import primality  # noqa: E402
from maxnik.certify import VERDICT_NIK, Certificate, validate_certificate  # noqa: E402
from maxnik.errors import MaxnikError  # noqa: E402
from maxnik.graphs import (from_edges, graph6_decode, graph6_encode,  # noqa: E402
                           identified_union)
from maxnik.minors import has_minor  # noqa: E402
from maxnik.primality import decompose  # noqa: E402

from conftest import (brute_force_minor, outcome,  # noqa: E402
                      reference_clique_cutsets, reference_cycle_rank,
                      reference_graph6_decode)

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


@st.composite
def _apex_pair_node(draw) -> Certificate:
    """An ``apex-pair`` node on a graph of order 1-6 with a witness list of
    0-2 vertices of that graph, repeats allowed."""
    n = draw(st.integers(1, 6))
    pairs = [(u, v) for v in range(n) for u in range(v)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    witness = draw(st.lists(st.integers(0, n - 1), max_size=2))
    return Certificate(VERDICT_NIK, "apex-pair",
                       {"graph": graph6_encode(from_edges(n, edges)), "witness": witness})


@settings(max_examples=500, deadline=None, database=None, derandomize=True)
@given(_apex_pair_node())
def test_validate_apex_pair_never_raises(cert):
    assert isinstance(validate_certificate(cert), list)


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
    d = decompose(g)
    assert d.re_glue() == g
    assert all(reference_clique_cutsets(leaf) == [] for leaf in d.leaves())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(primality, "_minimal_clique_cutsets",
                   lambda h: iter(reference_clique_cutsets(h)))
        assert decompose(g) == d


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
