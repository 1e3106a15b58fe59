import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import concentrators as C
from concentrators.fileio import (
    FormatError,
    format_design,
    format_graph,
    load_design,
    load_graph,
    load_group,
    load_multiset,
    parse_design_text,
    parse_graph_text,
    parse_group_text,
    parse_permutation,
    save_design,
    save_graph,
)
from concentrators.permgroup import from_cycles

import oracles


def test_parse_image_line():
    p = parse_permutation("1 0 2")
    assert p.images == (1, 0, 2)


def test_parse_cycles_need_degree():
    assert parse_permutation("(0 1)(2 3)", degree=5) == from_cycles([(0, 1), (2, 3)], 5)
    with pytest.raises(FormatError):
        parse_permutation("(0 1)")


def test_parse_cycles_with_commas():
    assert parse_permutation("(0, 2)", degree=3) == from_cycles([(0, 2)], 3)


def test_parse_rejects_garbage():
    with pytest.raises(FormatError):
        parse_permutation("")
    with pytest.raises(FormatError):
        parse_permutation("(0 1", degree=3)
    with pytest.raises(FormatError):
        parse_permutation("(0 7)", degree=3)


def test_group_text_roundtrip(s3):
    text = "degree 3\n1 0 2\n1 2 0\n"
    g = parse_group_text(text)
    assert len(g) == 6
    assert set(g.elements) == set(s3.elements)


def test_group_text_accepts_cycles():
    text = "degree 4\n(0 1)\n(0 1 2 3)\n"
    g = parse_group_text(text)
    assert len(g) == 24


def test_group_header_required():
    with pytest.raises(FormatError):
        parse_group_text("0 1 2\n")


def test_graph_roundtrip_bit_exact(tmp_path):
    adj = np.array([[0, 2, 0], [2, 1, 1], [0, 1, 0]])
    adj = (adj + adj.T) // 2 * 2 // 2  # keep symmetric ints
    g = C.Graph(np.array([[0, 2, 0], [2, 2, 1], [0, 1, 0]]))
    text = format_graph(g)
    again = parse_graph_text(text)
    assert format_graph(again) == text
    p = tmp_path / "g.txt"
    save_graph(g, p)
    assert format_graph(load_graph(p)) == text


def test_bipartite_roundtrip(tmp_path):
    X = C.gq22_incidence()
    text = format_graph(X)
    assert text.splitlines()[0] == "bipartite 15 15"
    again = parse_graph_text(text)
    assert isinstance(again, C.BipartiteGraph)
    assert np.array_equal(again.inc, X.inc)
    assert format_graph(again) == text


def test_graph_duplicate_line_rejected():
    with pytest.raises(FormatError):
        parse_graph_text("graph 2\n0 1 1\n1 0 1\n")


def test_design_roundtrip(tmp_path, mathieu_chain):
    d9 = mathieu_chain[3]
    text = format_design(d9)
    v, blocks = parse_design_text(text)
    assert v == 9 and len(blocks) == 12
    p = tmp_path / "d.txt"
    save_design(d9, p)
    loaded = load_design(p, t=2, gamma=1)
    assert loaded.blocks == d9.blocks
    assert format_design(loaded) == text


def test_design_header_checks():
    with pytest.raises(FormatError):
        parse_design_text("design 5 2\n0 1 2\n")  # block count mismatch


def test_load_group_and_multiset(tmp_path):
    path = tmp_path / "grp.txt"
    path.write_text("degree 3\n(0 1)\n(0 1 2)\n")
    g = load_group(path)
    assert len(g) == 6 and g.name == "grp"
    degree, perms = load_multiset(path)
    assert degree == 3 and len(perms) == 2  # verbatim, no closure


def test_comments_and_blank_lines_ignored():
    text = "# a comment\ndegree 2\n\n(0 1)\n"
    g = parse_group_text(text)
    assert len(g) == 2


_EDGE_LINES = st.one_of(
    st.tuples(st.integers(-1, 4), st.integers(-1, 4),
              st.sampled_from([0, 0, 1, 2, -1, 2**63 - 1, 2**63, -(2**63) - 1])
              ).map(lambda e: " ".join(map(str, e))),
    st.sampled_from(["0 1", "0 1 1 1", "0 x 1", "0 1 1.5", "# note", "", "  2 3 1  ", "1_0 0 1"]),
)


@st.composite
def _graph_texts(draw):
    """Small graph files whose edge lines repeat cells often (directly, as
    mirror images, or after a zero multiplicity) and are sometimes malformed."""
    head = draw(st.sampled_from(["graph 0", "graph 3", "graph 4", "bipartite 3 4",
                                 "bipartite 4 2", "bipartite 0 2", "graph -1", "graph",
                                 "bipartite 2", "# header comment"]))
    lines = draw(st.lists(_EDGE_LINES, max_size=10))
    return "\n".join([head, *lines]) + "\n"


def _outcome(parse, text):
    try:
        g = parse(text)
    except ValueError as exc:
        return type(exc), str(exc)
    return type(g), (g.adj if isinstance(g, C.Graph) else g.inc).tolist()


@settings(max_examples=300, deadline=None)
@given(_graph_texts())
def test_graph_reader_matches_the_line_by_line_reference(text):
    # The same graph, or the same first error with the same message.
    assert _outcome(parse_graph_text, text) == _outcome(oracles.parse_graph_text, text)
