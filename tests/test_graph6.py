"""graph6 codec against an independently written reference encoder."""

from __future__ import annotations

import pytest

from maxnik.errors import ParseError
from maxnik.graphs import (Graph, complete_graph, from_edges, graph6_decode,
                           graph6_encode)

from conftest import all_labeled_graphs, cycle_graph, path_graph


def reference_encode(g: Graph) -> str:
    """Second opinion built straight from the format definition via strings."""
    edge_set = {(min(u, v), max(u, v)) for u, v in g.edges()}
    bits = "".join(
        "1" if (i, j) in edge_set else "0"
        for j in range(1, g.n) for i in range(j))
    bits += "0" * (-len(bits) % 6)
    if g.n <= 62:
        head = chr(g.n + 63)
    else:
        packed = format(g.n, "018b")
        head = "~" + "".join(chr(int(packed[i:i + 6], 2) + 63) for i in (0, 6, 12))
    return head + "".join(
        chr(int(bits[i:i + 6], 2) + 63) for i in range(0, len(bits), 6))


def test_smallest_encoding():
    assert graph6_encode(complete_graph(1)) == "@"
    assert graph6_decode("@") == complete_graph(1)


@pytest.mark.parametrize("g,expected", [
    (complete_graph(4), "C~"),
    (complete_graph(5), "D~{"),
])
def test_known_encodings_cross_checked(g, expected):
    assert reference_encode(g) == expected
    assert graph6_encode(g) == expected
    assert graph6_decode(expected) == g


def test_reference_agreement_assorted():
    for g in [path_graph(7), cycle_graph(9), complete_graph(10),
              from_edges(6, [(0, 3), (1, 4), (2, 5)]),
              from_edges(3, [])]:
        assert graph6_encode(g) == reference_encode(g)


def test_round_trip_exhaustive_small_orders():
    for n in range(1, 6):
        for g in all_labeled_graphs(n):
            assert graph6_decode(graph6_encode(g)) == g


def test_round_trip_all_order6():
    count = 0
    for g in all_labeled_graphs(6):
        enc = graph6_encode(g)
        assert enc == reference_encode(g)
        assert graph6_decode(enc) == g
        count += 1
    assert count == 2 ** 15


def test_long_form_orders():
    for n in (63, 64):
        g = cycle_graph(n)
        enc = graph6_encode(g)
        assert enc.startswith("~")
        assert graph6_decode(enc) == g
        assert enc == reference_encode(g)


def test_header_stripping():
    assert graph6_decode(">>graph6<<C~") == complete_graph(4)


@pytest.mark.parametrize("text", [
    "",            # empty
    "C~~",         # trailing data
    "C",           # truncated
    "C\x1c",       # byte below 63
    "B~",          # nonzero padding bits for n=3
    "~~~~~~~~",    # order far above the cap
])
def test_malformed_inputs_raise(text):
    with pytest.raises(ParseError):
        graph6_decode(text)


def test_order_above_cap_rejected():
    with pytest.raises(ParseError):
        # long form declaring n = 65
        graph6_decode("~" + chr(63) + chr(64) + chr(64) + "?")
