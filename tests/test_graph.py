import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from widom.graph import (
    Graph,
    WeightedGraph,
    bits,
    complement,
    demand_masks,
    disjoint_union,
    induced_subgraph,
    mask_of,
    set_precedes,
    unit_weights,
)


def test_basic_shape():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4
    assert g.edges == {(0, 1), (1, 2), (2, 3)}
    assert g.adjacent(1, 0) and not g.adjacent(0, 2)
    assert g.degree(1) == 2
    assert g.neighborhood(1) == frozenset({0, 2})
    assert g.antineighborhood(1) == frozenset({1, 3})


def test_edge_normalization_and_dedupe():
    g = Graph(3, [(2, 0), (0, 2), (1, 0)])
    assert g.edges == {(0, 1), (0, 2)}


def test_edges_are_read_off_the_masks():
    assert "edges" not in Graph.__slots__
    rng = random.Random(29)
    for _ in range(50):
        n = rng.randint(0, 12)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(n * 2)] if n else []
        pairs = [(u, v) for u, v in pairs if u != v]
        g = Graph(n, pairs)
        want = frozenset((min(u, v), max(u, v)) for u, v in pairs)
        assert g.edges == want and isinstance(g.edges, frozenset)
        assert g.edge_count() == len(want) and repr(g) == f"Graph(n={n}, m={len(want)})"
        assert g.is_edgeless() == (not want)
        again = Graph(n, sorted(want, reverse=True))
        assert g == again and hash(g) == hash(again)
    assert Graph(3) != Graph(4) and Graph(2, [(0, 1)]) != Graph(2)


def test_parsed_dense_graph_holds_only_its_masks():
    from widom.io import emit_graph, parse_graph

    rng = random.Random(600)
    n = 600
    text = emit_graph(Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]))
    tracemalloc.start()
    try:
        g = parse_graph(text)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 600 masks of 600 bits; a set of ~90,000 edge tuples would hold ~10 MB
    assert held < 2_000_000
    assert len(g.edges) > 80_000


def test_demand_masks():
    assert demand_masks(4, [[0, 3], (2,)]) == [0b1001, 0b100]
    with pytest.raises(ValueError, match="empty demand"):
        demand_masks(4, [[]])
    for bad in ([4], [-1, 2]):
        with pytest.raises(ValueError, match="out of range"):
            demand_masks(4, [bad])


def test_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(-1, [])


def test_mask_helpers():
    assert mask_of([0, 2, 5]) == 0b100101
    assert list(bits(0b100101)) == [0, 2, 5]


@pytest.mark.parametrize("length", [1, 63, 64, 1023, 1024, 1025, 1026, 5000])
def test_bits_on_both_sides_of_the_text_walk(length):
    """Masks past 1,024 bits with more than 16 set bits are walked as
    text; every length and density lists the same positions as a plain
    per-bit test."""
    rng = random.Random(length)
    top = 1 << (length - 1)
    sparse = (top | (1 << 15) - 1, top | (1 << 16) - 1)  # 16 and 17 set bits
    for mask in (top, (top << 1) - 1, top | rng.getrandbits(length), top | 1, *sparse):
        assert list(bits(mask)) == [i for i in range(mask.bit_length()) if mask >> i & 1]


def test_independence_predicates():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.is_independent({0, 2})
    assert not g.is_independent({0, 1})
    assert g.is_maximal_independent({0, 2})
    assert g.is_maximal_independent({1, 3})
    assert not g.is_maximal_independent({2})  # 0 has no neighbor chosen
    assert not g.is_maximal_independent({0, 2, 3})


def test_complete_and_edgeless():
    assert Graph(3, [(0, 1), (0, 2), (1, 2)]).is_complete()
    assert not Graph(3, [(0, 1)]).is_complete()
    assert Graph(3, []).is_edgeless()
    assert Graph(0, []).is_complete() and Graph(0, []).is_edgeless()


def test_induced_subgraph_mapping():
    g = Graph(5, [(0, 1), (1, 3), (3, 4), (0, 4)])
    h, old_to_new = induced_subgraph(g, [0, 3, 4])
    assert h.n == 3
    assert old_to_new == {0: 0, 3: 1, 4: 2}
    assert set(h.edges) == {(1, 2), (0, 2)}


def test_remove_and_complement():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    h, _ = induced_subgraph(g, [0, 2, 3])
    assert h.n == 3 and set(h.edges) == {(1, 2)}
    c = complement(Graph(3, [(0, 1)]))
    assert set(c.edges) == {(0, 2), (1, 2)}


def test_disjoint_union():
    g = disjoint_union(Graph(2, [(0, 1)]), Graph(2, [(0, 1)]))
    assert g.n == 4 and set(g.edges) == {(0, 1), (2, 3)}


def test_mask_built_graphs_match_their_edge_definitions():
    rng = random.Random(7)
    for _ in range(30):
        g, h = (Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4])
                for n in (rng.randint(0, 9), rng.randint(0, 9)))
        pairs = {(u, v) for u in range(g.n) for v in range(u + 1, g.n)}
        assert complement(g) == Graph(g.n, pairs - g.edges)
        shifted = {(u + g.n, v + g.n) for u, v in h.edges}
        assert disjoint_union(g, h) == Graph(g.n + h.n, g.edges | shifted)


def test_set_precedes_examples():
    assert set_precedes(frozenset({0, 3}), frozenset({1, 2}))
    assert set_precedes(frozenset({1, 2}), frozenset({1, 3}))
    assert not set_precedes(frozenset({2}), frozenset({1, 5}))
    assert not set_precedes(frozenset({1}), frozenset({1}))


small_sets = st.frozensets(st.integers(0, 10), max_size=6)


@given(small_sets, small_sets)
def test_set_precedes_total_order(a, b):
    if a == b:
        assert not set_precedes(a, b) and not set_precedes(b, a)
    else:
        assert set_precedes(a, b) != set_precedes(b, a)


@given(small_sets, small_sets, small_sets)
def test_set_precedes_transitive(a, b, c):
    if set_precedes(a, b) and set_precedes(b, c):
        assert set_precedes(a, c)


@given(small_sets, small_sets, st.frozensets(st.integers(11, 20), max_size=6))
def test_set_precedes_stable_under_disjoint_extension(a, b, x):
    # splicing a common disjoint block onto both sides never flips the order
    if a != b:
        assert set_precedes(a, b) == set_precedes(a | x, b | x)


def test_weighted_graph_validation():
    g = Graph(2, [(0, 1)])
    wg = WeightedGraph(g, (5, 7))
    assert wg.n == 2 and wg.weight_of({0, 1}) == 12
    with pytest.raises(ValueError):
        WeightedGraph(g, (5,))
    with pytest.raises(ValueError):
        WeightedGraph(g, (5, True))
    with pytest.raises(ValueError):
        WeightedGraph(g, (5, 1.5))


def test_unit_weights():
    wg = unit_weights(Graph(3, []))
    assert wg.weights == (1, 1, 1)
