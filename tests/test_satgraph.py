import random
import tracemalloc

import pytest

from widom import satgraph
from widom.generators import complete, cycle, domino, gnp, path, sat_random, sun3
from widom.graph import Graph, disjoint_union
from widom.io import emit_graph
from widom.oracle import oracle_id
from widom.patterns import DOMINO, SUN3, find_induced
from widom.satgraph import (
    SatPartition,
    ab_edges,
    check_gstar_properties,
    check_obs1,
    find_sat_partition,
    gamma_transform,
    sat_partition,
    star_transform,
    verify_sat_partition,
)


def test_domino_partition():
    part = find_sat_partition(domino())
    assert part is not None
    assert part.a == frozenset({2, 3})
    assert part.b == frozenset({0, 1, 4, 5})
    assert set(part.b_matching) == {(0, 1), (4, 5)}
    assert part.s == 2


def test_sun3_has_no_partition():
    # the triangle cannot be B (tips are unmatched) and any split
    # with a tip edge in B puts a clique vertex over both ends
    assert find_sat_partition(sun3()) is None


def test_verify_rules_individually():
    g = domino()
    assert verify_sat_partition(g, {2, 3}, {0, 1, 4, 5}) is None
    assert "clique" in verify_sat_partition(g, {0, 5}, {1, 2, 3, 4})
    assert verify_sat_partition(g, {2}, {0, 1, 4, 5}) is not None  # misses 3
    assert verify_sat_partition(g, {2, 3}, {0, 1, 4}) is not None
    assert verify_sat_partition(g, {2, 3, 4}, {0, 1, 4, 5}) is not None  # overlap
    # 1-regularity violation
    g2 = path(4)
    assert verify_sat_partition(g2, {1, 2}, {0, 3}) is not None
    # triangle rule: K3 with an edge in B and its apex in A
    k3 = complete(3)
    assert verify_sat_partition(k3, {0}, {1, 2}) is not None
    # vertices outside 0..n-1 are named, whichever side holds them
    p3 = path(3)
    assert verify_sat_partition(p3, {0, 9}, {1, 2}) == "partition has vertices [9] out of range for n=3"
    assert verify_sat_partition(p3, {0}, {-1, 1, 2}) == "partition has vertices [-1] out of range for n=3"


def test_sat_partition_raises():
    with pytest.raises(ValueError):
        sat_partition(sun3(), {0, 1, 2}, {3, 4, 5})


def test_k2_union_k2_partition():
    # no cross edges at all is allowed
    g = disjoint_union(complete(2), complete(2))
    part = sat_partition(g, {0, 1}, {2, 3})
    assert ab_edges(g, part) == []
    res = star_transform(g, part)
    assert res.graph == g
    assert res.applied_edges == ()
    assert check_gstar_properties(res.graph, res.partition, res.markers) is None


def test_gamma_on_p3_exact_output():
    # P3 = 0-1-2 with A={0}, B={1,2}; the only cross edge is (0,1)
    g = path(3)
    part = sat_partition(g, {0}, {1, 2})
    res = gamma_transform(g, part, 0, 1)
    assert res.v == 3 and res.x == 4 and res.y == 5
    assert res.graph.n == 6
    assert set(res.graph.edges) == {(1, 2), (0, 3), (1, 3), (4, 5), (3, 4), (0, 5)}
    assert res.partition.a == frozenset({0, 3})
    assert res.partition.b == frozenset({1, 2, 4, 5})
    assert res.markers.alpha_new == frozenset({3})
    assert res.markers.beta_new == frozenset({4, 5})
    # the one-step size increment
    assert oracle_id(res.graph).value == oracle_id(g).value + 1


def test_gamma_rejects_non_cross_edge():
    g = path(3)
    part = sat_partition(g, {0}, {1, 2})
    with pytest.raises(ValueError):
        gamma_transform(g, part, 1, 2)
    with pytest.raises(ValueError):
        gamma_transform(g, part, 0, 2)


def test_gamma_increments_on_corpus(sat_corpus):
    for g, part in sat_corpus[:60]:
        a, b = ab_edges(g, part)[0]
        res = gamma_transform(g, part, a, b)
        assert oracle_id(res.graph).value == oracle_id(g).value + 1


def test_star_result_shape():
    g = domino()
    part = find_sat_partition(g)
    res = star_transform(g, part)
    k = len(ab_edges(g, part))
    assert res.graph.n == g.n + 3 * k
    assert res.applied_edges == tuple(ab_edges(g, part))
    assert len(res.markers.alpha_new) == k
    assert len(res.markers.beta_new) == 2 * k
    assert find_induced(res.graph, DOMINO) is None
    assert find_induced(res.graph, SUN3) is None
    assert check_gstar_properties(res.graph, res.partition, res.markers) is None


def test_partial_star_fails_properties(sat_corpus):
    # applying the replacement to all cross edges except the last one
    # must be caught by the structural checks
    for g, part in sat_corpus:
        edges = ab_edges(g, part)
        if len(edges) < 2:
            continue
        res = satgraph._apply_gamma(g, part, edges[:-1])
        assert check_gstar_properties(res.graph, res.partition, res.markers) is not None
        break
    else:
        pytest.skip("corpus held no multi-edge instance")


def _stepwise_gamma(g, part, todo):
    """Reference: one gamma step at a time, each building its graph and
    verifying its partition; returns (graph, partition, markers)."""
    alpha, beta, beta_edges = frozenset(), frozenset(), ()
    for a, b in todo:
        assert a in part.a and b in part.b and g.adjacent(a, b)
        v, x, y = g.n, g.n + 1, g.n + 2
        edges = set(g.edges) - {(min(a, b), max(a, b))}
        edges.update((other, v) for other in part.a)
        edges.update({(x, y), (b, v), (v, x), (a, y)})
        g = Graph(g.n + 3, edges)
        part = sat_partition(g, part.a | {v}, part.b | {x, y})
        alpha, beta, beta_edges = alpha | {v}, beta | {x, y}, beta_edges + ((x, y),)
    return g, part, (alpha, beta, beta_edges)


def test_one_pass_transforms_match_stepwise_reference():
    rng = random.Random(16)
    for seed in range(100):
        g, part = sat_random(rng.randint(1, 6), rng.randint(0, 5), rng.random(), seed)
        edges = ab_edges(g, part)
        runs = [(star_transform(g, part), edges)]
        runs += [(gamma_transform(g, part, a, b), [(a, b)]) for a, b in edges[:2]]
        for res, todo in runs:
            want_g, want_part, want_markers = _stepwise_gamma(g, part, todo)
            assert emit_graph(res.graph) == emit_graph(want_g)
            assert res.partition == want_part
            markers = res.markers
            assert (markers.alpha_new, markers.beta_new, markers.beta_new_edges) == want_markers


def test_star_verifies_its_partition_once(monkeypatch):
    calls = []

    def counted(g, a, b):
        calls.append(g.n)
        return sat_partition(g, a, b)

    g, part = sat_random(4, 3, 0.5, 1)
    k = len(ab_edges(g, part))
    assert k >= 2
    monkeypatch.setattr(satgraph, "sat_partition", counted)
    res = star_transform(g, part)
    assert res.graph.n == g.n + 3 * k
    assert calls == [res.graph.n]


def test_star_peaks_near_its_output_masks():
    g, part = sat_random(60, 60, 0.3, 5)
    tracemalloc.start()
    try:
        res = star_transform(g, part)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 5,667 masks of 2.9 MB; one tuple per output edge would take about 160 MB
    assert res.graph.n == 5667 and res.graph.edge_count() == 1_790_592
    assert peak < 10_000_000


def test_obs1_alignment_on_embedded_sun3():
    # a valid instance that really contains the 3-sun: triangle as the
    # clique side, tips matched to three fresh partners
    edges = list(sun3().edges) + [(3, 6), (4, 7), (5, 8)]
    g = Graph(9, edges)
    part = sat_partition(g, {0, 1, 2}, {3, 4, 5, 6, 7, 8})
    assert find_induced(g, SUN3) is not None
    assert check_obs1(g, part) is None


def test_obs1_alignment_on_domino():
    g = domino()
    assert check_obs1(g, find_sat_partition(g)) is None


def test_obs1_catches_misaligned_partition():
    # hand-built, unvalidated split with the roles swapped
    g = domino()
    bogus = SatPartition(
        frozenset({0, 1}), frozenset({2, 3, 4, 5}), ((2, 3), (4, 5))
    )
    assert check_obs1(g, bogus) is not None


def test_obs1_on_corpus(sat_corpus):
    for g, part in sat_corpus[:80]:
        assert check_obs1(g, part) is None


def test_obs2_bounds_on_corpus(sat_corpus):
    for g, part in sat_corpus[:80]:
        got = oracle_id(g).value
        assert part.s <= got <= part.s + 1


def test_find_partition_on_c4():
    # C4: opposite pairs cannot be matched; adjacent pair works
    part = find_sat_partition(cycle(4))
    assert part is not None
    assert verify_sat_partition(cycle(4), part.a, part.b) is None


def _unpruned_sat_partition(g):
    """Reference: the search over matchings of every edge, in order."""
    edges = sorted(g.edges)

    def matchings(idx, used, chosen):
        yield tuple(chosen)
        for i in range(idx, len(edges)):
            u, v = edges[i]
            if not (used >> u & 1 or used >> v & 1):
                yield from matchings(i + 1, used | 1 << u | 1 << v, chosen + [(u, v)])

    for matching in matchings(0, 0, []):
        b = frozenset(v for e in matching for v in e)
        a = frozenset(range(g.n)) - b
        if verify_sat_partition(g, a, b) is None:
            return SatPartition(a, b, matching)
    return None


def test_partition_search_matches_unpruned_search():
    rng = random.Random(2014)
    graphs = [gnp(rng.randint(0, 10), rng.random(), rng) for _ in range(250)]
    graphs += [sat_random(rng.randint(1, 4), rng.randint(0, 3), rng.random(), s)[0] for s in range(60)]
    found = 0
    for g in graphs:
        want = _unpruned_sat_partition(g)
        assert find_sat_partition(g) == want
        found += want is not None
    assert found > 60


def test_partition_search_skips_edges_on_triangles(monkeypatch):
    # K12 minus an edge: every edge lies on a triangle, so only the empty
    # matching is tried (the unpruned search verifies 130,656)
    calls = []

    def counted(g, a, b):
        calls.append(1)
        return verify_sat_partition(g, a, b)

    monkeypatch.setattr(satgraph, "verify_sat_partition", counted)
    g = Graph(12, [e for e in complete(12).edges if e != (0, 1)])
    assert find_sat_partition(g) is None
    assert len(calls) == 1
