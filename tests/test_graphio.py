import networkx as nx
import pytest
from hypothesis import given, settings

from conftest import brute_to_graph6, graphs, to_nx

from graphcm import graphio
from graphcm.graph import Graph, GraphInputError, UnsupportedSizeError, complete_graph, cycle_graph
from graphcm.graphio import ParseError, from_edge_list, from_graph6, to_dot, to_edge_list, to_graph6
from graphcm.families import catalog, gen_G


def test_graph6_known_strings():
    assert to_graph6(cycle_graph(5)) == "Dhc"
    assert to_graph6(complete_graph(1)) == "@"
    assert to_graph6(Graph.empty(0)) == "?"
    assert from_graph6("Dhc").edges() == cycle_graph(5).edges()


@settings(max_examples=80, deadline=None)
@given(graphs(max_n=8))
def test_graph6_bit_exact_vs_networkx(g):
    ours = to_graph6(g)
    theirs = nx.to_graph6_bytes(to_nx(g), header=False).decode().strip()
    assert ours == theirs
    back = from_graph6(ours)
    assert back.adj == g.adj


@settings(max_examples=80, deadline=None)
@given(graphs(max_n=64))
def test_graph6_columns_match_the_bitwise_encoder(g):
    # to_graph6 packs whole columns of the upper triangle; the reference
    # reads one bit at a time
    ours = to_graph6(g)
    assert ours == brute_to_graph6(g)
    assert from_graph6(ours).adj == g.adj


def test_graph6_header_and_long_count():
    assert from_graph6(">>graph6<<Dhc").adj == cycle_graph(5).adj
    g = Graph.empty(63)
    s = to_graph6(g)
    assert s.startswith(chr(126))
    assert from_graph6(s).n == 63


def test_graph6_parse_errors():
    with pytest.raises(ParseError):
        from_graph6("")
    with pytest.raises(ParseError):
        from_graph6("D c")  # embedded space is out of range
    with pytest.raises(ParseError):
        from_graph6("Dh")  # truncated body


def test_graph6_vertex_cap():
    assert from_graph6(to_graph6(Graph.empty(64))).n == 64
    n = 65
    s = chr(126) + "".join(chr((n >> k & 63) + 63) for k in (12, 6, 0)) + "?" * ((n * (n - 1) // 2 + 5) // 6)
    with pytest.raises(UnsupportedSizeError):
        from_graph6(s)


def test_graph6_file_errors_name_the_record_line():
    n = 65
    big = chr(126) + "".join(chr((n >> k & 63) + 63) for k in (12, 6, 0)) + "?" * ((n * (n - 1) // 2 + 5) // 6)
    with pytest.raises(UnsupportedSizeError) as err:
        graphio.read_graph6_lines(["Dhc\n", "\n", big + "\n"])
    assert "(line 3)" in str(err.value)
    with pytest.raises(ParseError) as err:
        graphio.read_graph6_lines(["Dhc\n", "\n", "Dh\n"])  # body one character short
    assert str(err.value).endswith("(line 3, column 2)") and (err.value.line, err.value.column) == (3, 2)


def test_edge_list_round_trip_plain():
    g = cycle_graph(4)
    text = to_edge_list(g)
    assert from_edge_list(text).adj == g.adj
    assert from_edge_list(text).labels == g.labels


def test_edge_list_label_round_trip():
    g = gen_G(3)
    back = from_edge_list(to_edge_list(g))
    assert back.labels == g.labels
    assert back.adj == g.adj


def test_edge_list_comments_and_blanks():
    text = "\n# a comment\n3\n\n0 1\n# another\n1 2\n"
    g = from_edge_list(text)
    assert g.n == 3 and g.m == 2


def test_edge_list_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        from_edge_list("3\n0 1\n0 9\n")
    assert "line 3" in str(err.value)
    with pytest.raises(ParseError):
        from_edge_list("")
    with pytest.raises(ParseError):
        from_edge_list("x\n")


def test_dot_export_mentions_everything():
    g = catalog("paw")
    dot = to_dot(g)
    assert dot.startswith("graph G {")
    for u, v in g.edges():
        assert f'"{u}" -- "{v}";' in dot


def test_dot_export_escapes_quotes_and_backslashes():
    g = Graph.from_edges(['a"b', "c\\d", "e"], [('a"b', "c\\d"), ("c\\d", "e")])
    assert to_dot(g).splitlines()[1:] == [
        '  "a\\"b";',
        '  "c\\\\d";',
        '  "e";',
        '  "a\\"b" -- "c\\\\d";',
        '  "c\\\\d" -- "e";',
        "}",
    ]


def test_edge_list_labels_with_spaces_round_trip():
    g = Graph.from_edges(["a b", "c", "x y z"], [("a b", "c"), ("c", "x y z")])
    text = to_edge_list(g)
    assert "# vertex 2 x y z\n" in text
    back = from_edge_list(text)
    assert back.labels == g.labels and back.adj == g.adj


@pytest.mark.parametrize("label", [" a", "a ", "a\nb", "a\rb", "a\u2028b", ""])
def test_edge_list_writer_refuses_a_label_it_cannot_read_back(label):
    g = Graph.from_edges([label, "ok"], [(label, "ok")])
    with pytest.raises(GraphInputError, match="cannot be written"):
        to_edge_list(g)


def test_edge_list_writer_refuses_two_labels_with_the_same_text():
    g = Graph.from_edges([1, "1", 2], [(1, "1")])
    with pytest.raises(GraphInputError, match="both written '1'"):
        to_edge_list(g)


def test_edge_list_labels_come_back_as_text():
    g = Graph.from_edges([1, 0, "a"], [(1, 0), (0, "a")])
    back = from_edge_list(to_edge_list(g))
    assert back.labels == ("1", "0", "a")
    assert back.adj == g.adj


def test_graph6_file_round_trip(tmp_path):
    gs = [cycle_graph(5), complete_graph(3), Graph.empty(2)]
    path = tmp_path / "zoo.g6"
    path.write_text("\n".join(to_graph6(g) for g in gs) + "\n")
    back = graphio.read_graph6_file(path)
    assert [h.adj for h in back] == [g.adj for g in gs]
