"""Shared seeded corpora.

Everything is deterministic: fixed seeds, fixed sizes.  The sizes are
the ones the acceptance gate quotes, so the session-scoped fixtures
are built once and shared between the unit tests and the gate.
"""

from __future__ import annotations

import random

import pytest

from widom.generators import gnp, sat_random, substitute_with_map
from widom.graph import Graph, WeightedGraph
from widom.patterns import C3, C4, C5, C6, CO_P5, P5, is_free
from widom.satgraph import SatPartition, ab_edges

INCLASS = (P5, CO_P5)
SHORT_CYCLES = (C3, C4, C5, C6)

# (n, p) buckets favoring the density extremes, where graphs without
# P5 or its complement stop being vanishingly rare past n=9
LADDER = (
    [(n, p) for n in range(1, 9) for p in (0.15, 0.35, 0.55, 0.75, 0.9)]
    + [(9, 0.15), (9, 0.2), (9, 0.8), (9, 0.9)]
    + [(10, 0.12), (10, 0.2), (10, 0.85)]
    + [(11, 0.12), (11, 0.88)]
    + [(12, 0.1), (12, 0.9)]
)


def _weighted(g: Graph, rng: random.Random, hi: int = 100) -> WeightedGraph:
    return WeightedGraph(g, tuple(rng.randint(0, hi) for _ in range(g.n)))


def _sample_inclass(rng: random.Random, n: int, p: float, tries: int = 500) -> Graph | None:
    for _ in range(tries):
        g = gnp(n, p, rng)
        if is_free(g, INCLASS):
            return g
    return None


@pytest.fixture(scope="session")
def inclass_corpus() -> list[WeightedGraph]:
    """1000 weighted graphs on up to 12 vertices, none containing P5
    or its complement, weights in [0, 100]."""
    rng = random.Random(20260817)
    out: list[WeightedGraph] = []
    i = 0
    while len(out) < 1000:
        n, p = LADDER[i % len(LADDER)]
        i += 1
        g = _sample_inclass(rng, n, p)
        if g is not None:
            out.append(_weighted(g, rng))
    return out


@pytest.fixture(scope="session")
def substitution_corpus() -> list[WeightedGraph]:
    """200 weighted graphs built by substituting one in-class graph
    into a vertex of another; sizes reach 17 vertices."""
    rng = random.Random(4242)
    out: list[WeightedGraph] = []
    while len(out) < 200:
        host = _sample_inclass(rng, rng.randint(4, 9), rng.choice((0.2, 0.5, 0.8)))
        plug = _sample_inclass(rng, rng.randint(2, 9), rng.choice((0.2, 0.5, 0.8)))
        if host is None or plug is None:
            continue
        g, _, _ = substitute_with_map(host, rng.randrange(host.n), plug)
        assert is_free(g, INCLASS)
        out.append(_weighted(g, rng))
    return out


@pytest.fixture(scope="session")
def constrained_instances(inclass_corpus) -> list[tuple[WeightedGraph, tuple[frozenset[int], ...]]]:
    """1000 (graph, demands) pairs; demands are 1..3 hitsets of 1..3
    vertices each, so a fair share of instances is infeasible."""
    rng = random.Random(555)
    out = []
    for wg in inclass_corpus:
        n = wg.n
        k = rng.randint(1, 3)
        demands = tuple(
            frozenset(rng.sample(range(n), rng.randint(1, min(3, n))))
            for _ in range(k)
        )
        out.append((wg, demands))
    return out


@pytest.fixture(scope="session")
def sat_corpus() -> list[tuple[Graph, SatPartition]]:
    """300 clique/matched-pair graphs with their witness partitions,
    each with at least one cross edge so the edge replacement has
    something to act on."""
    out: list[tuple[Graph, SatPartition]] = []
    seed = 0
    rng = random.Random(9090)
    while len(out) < 300:
        seed += 1
        size_a = rng.randint(1, 5)
        match_b = rng.randint(1, 4)
        p_ab = rng.choice((0.2, 0.4, 0.6, 0.8))
        g, part = sat_random(size_a, match_b, p_ab, seed)
        if not ab_edges(g, part):
            continue
        out.append((g, part))
    return out


@pytest.fixture(scope="session")
def girth_corpus() -> list[Graph]:
    """200 graphs on up to 9 vertices with no cycle of length 3..6."""
    rng = random.Random(777)
    out: list[Graph] = []
    while len(out) < 200:
        n = rng.randint(1, 9)
        g = gnp(n, rng.choice((0.08, 0.15, 0.22)), rng)
        if is_free(g, SHORT_CYCLES):
            out.append(g)
    return out


@pytest.fixture(scope="session")
def planted_corpus():
    """200 substitution instances kept together with their parts:
    (host weighted, slot, plug weighted, substituted graph, copy ids,
    outer id map)."""
    rng = random.Random(31337)
    out = []
    while len(out) < 200:
        host = _sample_inclass(rng, rng.randint(3, 9), rng.choice((0.25, 0.5, 0.75)))
        plug = _sample_inclass(rng, rng.randint(2, 9), rng.choice((0.25, 0.5, 0.75)))
        if host is None or plug is None:
            continue
        slot = rng.randrange(host.n)
        g, copy_ids, outer_map = substitute_with_map(host, slot, plug)
        whost = _weighted(host, rng, hi=60)
        wplug = _weighted(plug, rng, hi=60)
        out.append((whost, slot, wplug, g, copy_ids, outer_map))
    return out


def _split(rng: random.Random, n: int) -> Graph:
    """Clique on the first n//2 vertices; each clique-independent pair
    is an edge with probability 1/2."""
    k = n // 2
    edges = [(u, v) for u in range(k) for v in range(u + 1, k)]
    edges += [(u, v) for u in range(k) for v in range(k, n) if rng.random() < 0.5]
    return Graph(n, edges)


def _threshold(rng: random.Random, n: int) -> Graph:
    """Vertices added one by one, each isolated or dominating."""
    edges = [(u, v) for v in range(n) if rng.random() < 0.5 for u in range(v)]
    return Graph(n, edges)


def _cograph(rng: random.Random, n: int) -> Graph:
    """Random binary cotree: disjoint union or join at each node."""
    if n == 1:
        return Graph(1, [])
    k = rng.randint(1, n - 1)
    left, right = _cograph(rng, k), _cograph(rng, n - k)
    edges = list(left.edges) + [(u + k, v + k) for u, v in right.edges]
    if rng.random() < 0.5:
        edges += [(u, v) for u in range(k) for v in range(k, n)]
    return Graph(n, edges)


@pytest.fixture(scope="session")
def family_graphs() -> list[Graph]:
    """Seeded split, threshold and cograph graphs (all in class), five
    of each family at n = 8, 12, 16 and 20."""
    rng = random.Random(2718)
    return [
        make(rng, n)
        for n in (8, 12, 16, 20)
        for make in (_split, _threshold, _cograph)
        for _ in range(5)
    ]


@pytest.fixture(scope="session")
def c6_module() -> Graph:
    """C6 on vertices 3..8, each joined to 0, 1 and 2.  The C6 is a
    module, and the first induced P5 inside it is (3, 4, 5, 6, 7)."""
    cycle_edges = [(3 + i, 3 + (i + 1) % 6) for i in range(6)]
    return Graph(9, cycle_edges + [(u, c) for u in range(3) for c in range(3, 9)])
