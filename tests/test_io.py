import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from widom.generators import gnp, sat_random
from widom.graph import Graph, WeightedGraph
from widom.io import (
    GraphFormatError,
    PartitionError,
    emit_graph,
    extract_meta,
    parse_dimacs,
    parse_graph,
    parse_partition_file,
    read_text,
)
from widom.satgraph import star_transform


def test_parse_minimal():
    g = parse_graph("3 2\n0 1\n1 2\n")
    assert isinstance(g, Graph)
    assert g.n == 3 and g.edges == {(0, 1), (1, 2)}


def test_parse_with_weights_and_comments():
    text = """# a path
3 2
0 1   # first edge
1 2

weights
0 5
2 7
1 6
"""
    wg = parse_graph(text)
    assert isinstance(wg, WeightedGraph)
    assert wg.weights == (5, 6, 7)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(GraphFormatError, match="line 1"):
        parse_graph("nope\n")
    with pytest.raises(GraphFormatError, match="line 2"):
        parse_graph("2 1\n0 2\n")
    with pytest.raises(GraphFormatError, match="line 3"):
        parse_graph("3 2\n0 1\nx y\n")
    with pytest.raises(GraphFormatError, match="weights"):
        parse_graph("2 1\n0 1\nweights\n0 3\n")
    with pytest.raises(GraphFormatError, match="duplicate"):
        parse_graph("2 0\nweights\n0 3\n0 4\n")
    with pytest.raises(GraphFormatError):
        parse_graph("")
    with pytest.raises(GraphFormatError):
        parse_graph("2 5\n0 1\n")


def test_edge_lines_are_checked_as_they_are_read():
    # a bad edge line is reported before the count of edge lines runs short
    with pytest.raises(GraphFormatError, match="line 3: expected edge 'u v', got 'weights'"):
        parse_graph("3 5\n0 1\nweights\n")
    with pytest.raises(GraphFormatError, match="expected 5 edge lines, found 1"):
        parse_graph("2 5\n0 1\n")
    with pytest.raises(GraphFormatError, match=f"expected {10**30} edge lines, found 1"):
        parse_graph(f"2 {10**30}\n0 1\n")


def test_parse_peak_memory_stays_near_the_text():
    # split graph, n = 600: a clique on 300 vertices, and each of the
    # 300 x 300 clique-independent pairs an edge with probability 1/2
    rng = random.Random(600)
    edges = [(u, v) for u in range(300) for v in range(u + 1, 300)]
    edges += [(c, i) for i in range(300, 600) for c in range(300) if rng.random() < 0.5]
    text = f"600 {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)
    tracemalloc.start()
    try:
        g = parse_graph(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.edge_count() == len(edges)
    # 0.64 MB of text; a parser that held every line and edge tuple peaked at 20.5 MB
    assert peak < 10 * 2**20


def test_emit_is_canonical():
    g = Graph(3, [(2, 1), (1, 0)])
    assert emit_graph(g) == "3 2\n0 1\n1 2\n"
    wg = WeightedGraph(g, (4, 5, 6))
    assert emit_graph(wg) == "3 2\n0 1\n1 2\nweights\n0 4\n1 5\n2 6\n"


def _sorted_edge_text(g, meta=None):
    """GraphFile text written off the sorted edge set."""
    wg = g if isinstance(g, WeightedGraph) else None
    base = wg.graph if wg else g
    edges = sorted(base.edges)
    lines = [f"{base.n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]
    if wg is not None:
        lines += ["weights"] + [f"{v} {w}" for v, w in enumerate(wg.weights)]
    if meta is not None:
        lines.append("# meta " + json.dumps(meta, sort_keys=True))
    return "\n".join(lines) + "\n"


def test_emit_matches_the_sorted_edge_text():
    rng = random.Random(17)
    graphs = [Graph(0), Graph(1), Graph(5)]
    graphs += [gnp(rng.randint(0, 60), rng.random(), rng) for _ in range(40)]
    g, part = sat_random(25, 25, 0.3, 5)
    graphs.append(star_transform(g, part).graph)  # past 1,024 vertices: wide masks
    assert graphs[-1].n > 1024
    for g in graphs:
        assert emit_graph(g) == _sorted_edge_text(g)
        wg = WeightedGraph(g, tuple(rng.randint(-9, 99) for _ in range(g.n)))
        meta = {"seed": 17, "n": g.n}
        assert emit_graph(wg, meta=meta) == _sorted_edge_text(wg, meta=meta)


@pytest.mark.parametrize("data, line", [
    (b"3 1\r0 1\r# caf\xe9\r", 3),
    (b"3 1\r\n0 1\r\n\xff", 3),
    (b"3 1\x0b0 1\x0b0 \x802\n", 3),
    ("3 1\u20280 1\u2028# \u00e9\u2028".encode() + b"\xe9", 4),
    (b"3 1\x1c0 1\x0c\n\x80", 4),
    (b"\xff\n", 1),
])
def test_read_text_numbers_lines_as_the_parser_does(tmp_path, data, line):
    p = tmp_path / "g.graph"
    p.write_bytes(data)
    with pytest.raises(GraphFormatError, match=f": line {line}: not UTF-8 text$"):
        read_text(p)
    # the line that holds the bad byte, as parse_graph numbers the text's lines
    text = data.decode(errors="replace")
    assert next(i for i, s in enumerate(text.splitlines(), 1) if "\ufffd" in s) == line


def test_meta_round_trip():
    g = Graph(2, [(0, 1)])
    text = emit_graph(g, meta={"construction": "star", "k": 3})
    assert extract_meta(text) == {"construction": "star", "k": 3}
    assert parse_graph(text) == g
    assert extract_meta("2 1\n0 1\n") is None


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_round_trip_property(data):
    n = data.draw(st.integers(0, 9))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.sets(st.sampled_from(possible))) if possible else set()
    g = Graph(n, sorted(edges))
    assert parse_graph(emit_graph(g)) == g
    weights = tuple(data.draw(st.integers(-5, 99)) for _ in range(n))
    wg = WeightedGraph(g, weights)
    back = parse_graph(emit_graph(wg))
    assert isinstance(back, WeightedGraph)
    assert back.graph == g and back.weights == weights


def test_dimacs():
    g = parse_dimacs("c comment\np edge 4 3\ne 1 2\ne 2 3\ne 3 4\n")
    assert g.n == 4 and g.edges == {(0, 1), (1, 2), (2, 3)}
    with pytest.raises(GraphFormatError):
        parse_dimacs("e 1 2\n")
    with pytest.raises(GraphFormatError):
        parse_dimacs("p edge 2 1\nq 1 2\n")
    with pytest.raises(GraphFormatError):
        parse_dimacs("")
    with pytest.raises(GraphFormatError, match="line 1"):
        parse_dimacs("p edge x 3\ne 1 2\n")
    with pytest.raises(GraphFormatError, match="line 1: negative edge count -4"):
        parse_dimacs("p edge 3 -4\ne 1 2\n")
    with pytest.raises(GraphFormatError, match="expected 5 edge lines, found 1"):
        parse_dimacs("p edge 3 5\ne 1 2\n")
    with pytest.raises(GraphFormatError, match="expected 1 edge lines, found 2"):
        parse_dimacs("p edge 3 1\ne 1 2\ne 2 3\n")


def test_partition_file(tmp_path):
    p = tmp_path / "part.json"
    p.write_text('{"A": [0, 1]}')
    a, b = parse_partition_file(p, 4)
    assert a == frozenset({0, 1}) and b == frozenset({2, 3})
    p.write_text('{"A": [0], "B": [1]}')
    a, b = parse_partition_file(p, 2)
    assert a == frozenset({0}) and b == frozenset({1})
    p.write_text("not json")
    with pytest.raises(GraphFormatError):
        parse_partition_file(p, 2)
    p.write_text('{"B": [1]}')
    with pytest.raises(GraphFormatError):
        parse_partition_file(p, 2)
    for bad in ('{"A": [9]}', '{"A": [0], "B": [-1]}', '{"A": ["x"]}', '{"A": [true]}'):
        p.write_text(bad)
        with pytest.raises(PartitionError, match="vertex"):
            parse_partition_file(p, 2)
