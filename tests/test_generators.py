import random

import pytest

from widom.generators import (
    GenerationBudgetError,
    bull,
    complete,
    cycle,
    domino,
    empty,
    gnp,
    gnp_filtered,
    graph_hash,
    k2_plus_k1,
    named,
    path,
    sat_random,
    star,
    substitute,
    substitute_with_map,
    sun3,
)
from widom.graph import Graph
from widom.patterns import C3, CO_P5, P5, is_free
from widom.satgraph import verify_sat_partition


def test_named_shapes():
    assert path(4).edges == {(0, 1), (1, 2), (2, 3)}
    assert cycle(3).edges == {(0, 1), (0, 2), (1, 2)}
    assert complete(4).n == 4 and len(complete(4).edges) == 6
    assert empty(5).edges == frozenset()
    assert star(3).edges == {(0, 1), (0, 2), (0, 3)}
    assert len(domino().edges) == 7 and domino().degree(2) == 3
    assert len(sun3().edges) == 9
    assert len(bull().edges) == 5
    assert k2_plus_k1().edges == {(0, 1)}


def test_named_dispatcher():
    assert named("P5") == path(5)
    assert named("c6") == cycle(6)
    assert named("K4") == complete(4)
    assert named("star5") == star(5)
    assert named("domino") == domino()
    assert named("sun3") == sun3()
    assert named("bull") == bull()
    with pytest.raises(ValueError):
        named("widget9")


def test_cycle_requires_three():
    with pytest.raises(ValueError):
        cycle(2)


def test_gnp_determinism():
    a = gnp(8, 0.4, random.Random(5))
    b = gnp(8, 0.4, random.Random(5))
    assert a == b


def test_gnp_filtered():
    graphs = gnp_filtered(6, 0.4, (P5, CO_P5), seed=9, count=20)
    assert len(graphs) == 20
    for g in graphs:
        assert is_free(g, (P5, CO_P5))


def test_gnp_filtered_budget():
    # triangle-free at p=1 on 3 vertices is impossible
    with pytest.raises(GenerationBudgetError):
        gnp_filtered(3, 1.0, (C3,), seed=1, count=1, budget=50)


def test_sat_random_always_valid():
    for seed in range(120):
        rng = random.Random(seed)
        g, part = sat_random(
            rng.randint(1, 5), rng.randint(1, 4), rng.choice((0.0, 0.3, 0.7, 1.0)), seed
        )
        assert verify_sat_partition(g, part.a, part.b) is None


def test_substitute_shapes():
    # plugging a 2K1 into one end of K2 gives the path-free claw-free P3
    g = substitute(complete(2), 0, empty(2))
    assert g.n == 3
    assert set(g.edges) == {(0, 1), (0, 2)}


def test_substitute_with_map_layout():
    host = path(4)
    plug = complete(2)
    g, copy_ids, outer_map = substitute_with_map(host, 2, plug)
    assert g.n == 5
    assert copy_ids == (3, 4)
    assert outer_map == {0: 0, 1: 1, 3: 2}
    # host edges away from the slot survive under the relabeling
    assert g.adjacent(0, 1)
    # the copy is fully wired to the slot's old neighborhood
    for c in copy_ids:
        assert g.adjacent(1, c) and g.adjacent(2, c)
    assert g.adjacent(3, 4)


def test_substitute_preserves_class():
    rng = random.Random(2)
    done = 0
    while done < 40:
        host = gnp(rng.randint(3, 7), 0.5, rng)
        plug = gnp(rng.randint(2, 6), 0.5, rng)
        if not (is_free(host, (P5, CO_P5)) and is_free(plug, (P5, CO_P5))):
            continue
        g = substitute(host, rng.randrange(host.n), plug)
        assert is_free(g, (P5, CO_P5))
        done += 1


def test_graph_hash():
    assert graph_hash(path(3)) == graph_hash(path(3))
    assert graph_hash(path(3)) != graph_hash(path(4))
    assert graph_hash(Graph(3, [(0, 1)])) != graph_hash(Graph(3, [(1, 2)]))


def test_graph_hash_digests_are_stable():
    """gen manifests store these digests, so they must not drift."""
    assert graph_hash(Graph(0)) == "933305f987bcf5fb6c250018e35a6eee1528f06013807a4136ec13622909af97"
    assert graph_hash(path(3)) == "21687d4c03411e2d4f97e9b8a41d6a64724e0fa675f38648e70fff9cac5ed7c8"
    g = Graph(4, [(2, 3), (0, 2)])
    assert graph_hash(g) == "f8c68636508ea0dd31c8024896910a0ab2f73c8f3894f482153b74c859c5509d"


def test_domino_and_sun3_edges():
    assert domino().n == sun3().n == 6
    assert domino().edges == {(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 5), (4, 5)}
    assert sun3().edges == {
        (0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5), (2, 4), (2, 5)
    }
