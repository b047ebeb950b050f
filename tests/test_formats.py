import re

import pytest

from sierpack.errors import InputFormatError
from sierpack.formats import (emit_dot, emit_graph_text, parse_graph6,
                              parse_graph_text, sniff_parse)
from sierpack.graphs import complete, path, star


def test_roundtrip_is_identity_on_canonical_text():
    text = "2 1\n0 1\n"
    g = parse_graph_text(text)
    assert emit_graph_text(g) == text
    for graph in (path(5), star(4), complete(4)):
        assert parse_graph_text(emit_graph_text(graph)).adj == graph.adj


def test_emit_parse_idempotent():
    messy = "4 3\n2 3\n0 1\n1 2\n"
    once = emit_graph_text(parse_graph_text(messy))
    assert emit_graph_text(parse_graph_text(once)) == once


@pytest.mark.parametrize("text", [
    "",
    "3\n",
    "3 1\n0 3\n",          # endpoint out of range
    "3 2\n0 1\n0 1\n",     # duplicate edge
    "3 1\n1 0\n",          # violates u < v
    "3 2\n0 1\n",          # wrong edge count
])
def test_parse_errors(text):
    with pytest.raises(InputFormatError):
        parse_graph_text(text)


@pytest.mark.parametrize("text, message", [
    ("", "empty graph text"),
    ("3\n", "malformed header '3', want 'n m'"),
    ("3 x\n", "malformed header '3 x'"),
    ("0 0\n", "bad counts in header '0 0'"),
    ("3 2\n0 1\n", "header promises 2 edges, found 1"),
    ("3 1\n0 1 2\n", "malformed edge line '0 1 2'"),
    ("3 1\n0 a\n", "malformed edge line '0 a'"),
    ("3 1\n1 0\n", "edge 1 0 violates 0 <= u < v < 3"),
    ("3 2\n0 1\n0 1\n", "duplicate edge in graph text"),
    # edge lines are checked in order, so the first bad line speaks
    ("3 2\n0 5\n0 x\n", "edge 0 5 violates 0 <= u < v < 3"),
    # duplicates are looked for only after every line has been checked
    ("3 3\n0 1\n0 1\n1 9\n", "edge 1 9 violates 0 <= u < v < 3"),
])
def test_parse_error_messages(text, message):
    with pytest.raises(InputFormatError, match=f"^{re.escape(message)}$"):
        parse_graph_text(text)


def test_graph6_example():
    # 'D?{': 'D' encodes order 5; bits 000000 111100 fill the column-major
    # upper triangle, giving edges (0,4),(1,4),(2,4),(3,4): the 4-leaf star
    g = parse_graph6("D?{")
    assert g.order == 5 and g.size == 4
    assert sorted(g.edges()) == [(0, 4), (1, 4), (2, 4), (3, 4)]
    emitted = emit_graph_text(g)
    assert emitted.splitlines()[0] == "5 4"


def test_graph6_header_and_errors():
    assert parse_graph6(">>graph6<<D?{").order == 5
    with pytest.raises(InputFormatError):
        parse_graph6("")
    with pytest.raises(InputFormatError):
        parse_graph6("D")  # too short for order 5


@pytest.mark.parametrize("text", [
    "Bw??????",  # K3 followed by six extra characters
    "C~~",       # K4 followed by one extra character
    "B~",        # K3 with its three padding bits set
    "D?",        # one data character short for order 5
])
def test_graph6_needs_exact_length_and_zero_padding(text):
    with pytest.raises(InputFormatError):
        parse_graph6(text)


def test_graph6_exact_strings_still_parse():
    assert sorted(parse_graph6("Bw").edges()) == [(0, 1), (0, 2), (1, 2)]
    assert parse_graph6("C~").size == 6
    assert parse_graph6("@").order == 1  # order 1 has no data characters


def test_sniff():
    assert sniff_parse("2 1\n0 1\n").order == 2
    assert sniff_parse("D?{").order == 5


def test_dot_output():
    dot = emit_dot(path(3))
    assert "0 -- 1;" in dot and "1 -- 2;" in dot and dot.startswith("graph")
