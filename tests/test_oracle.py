import random
from itertools import combinations

import pytest

from widom.generators import cycle, domino, gnp, path, sun3
from widom.graph import Graph, WeightedGraph, set_precedes
from widom.oracle import (
    OracleBoundError,
    enumerate_mis,
    oracle_constrained,
    oracle_id,
    oracle_min_dominating,
    oracle_wid,
)


def _subset_enumerate(g: Graph) -> set[frozenset[int]]:
    """Second, slower route: filter all vertex subsets."""
    out = set()
    for r in range(g.n + 1):
        for combo in combinations(range(g.n), r):
            if g.is_maximal_independent(combo):
                out.add(frozenset(combo))
    return out


def test_enumerate_c5():
    sets = enumerate_mis(cycle(5))
    assert len(sets) == 5
    assert all(len(s) == 2 for s in sets)
    assert sets == sorted(sets, key=sorted)


def test_enumeration_is_in_bitmask_order():
    # sorted() on frozensets orders by inclusion, which leaves an
    # antichain unordered; the sets come in increasing bitmask order
    assert enumerate_mis(path(4)) == [{0, 2}, {0, 3}, {1, 3}]
    rng = random.Random(181)
    for _ in range(100):
        n = rng.randint(1, 10)
        masks = [sum(1 << v for v in s) for s in enumerate_mis(gnp(n, rng.random(), rng))]
        assert masks == sorted(masks)


def test_enumerate_edge_cases():
    assert enumerate_mis(Graph(0, [])) == [frozenset()]
    assert enumerate_mis(Graph(1, [])) == [frozenset({0})]
    assert enumerate_mis(Graph(3, [])) == [frozenset({0, 1, 2})]


def test_enumeration_matches_subset_filter():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randint(0, 9)
        g = gnp(n, rng.choice((0.1, 0.3, 0.5, 0.7, 0.9)), rng)
        assert set(enumerate_mis(g)) == _subset_enumerate(g)


def test_bound_guard():
    with pytest.raises(OracleBoundError):
        enumerate_mis(Graph(26, []), bound=25)
    # explicit bound lifts it
    assert len(enumerate_mis(Graph(26, []), bound=30)) == 1


def test_oracle_wid_p4_trap():
    # the cheap singletons {1} and {2} are not maximal; the optimum
    # must take both endpoints of one side
    wg = WeightedGraph(path(4), (10, 1, 1, 10))
    rep = oracle_wid(wg)
    assert rep.value == 11
    assert rep.witness == frozenset({0, 2})


def test_oracle_tie_break_is_set_precedes():
    # C4 has exactly two MISs, equal weight under units
    rep = oracle_id(cycle(4))
    assert rep.witness == frozenset({0, 2})
    # weights can flip the winner
    rep = oracle_wid(WeightedGraph(cycle(4), (9, 1, 9, 1)))
    assert rep.witness == frozenset({1, 3})


def test_oracle_id_examples():
    assert oracle_id(domino()).value == 2
    rep = oracle_id(sun3())
    assert rep.value == 2
    assert rep.witness == frozenset({0, 5})


def test_oracle_constrained():
    wg = WeightedGraph(path(4), (10, 1, 1, 10))
    rep = oracle_constrained(wg, (frozenset({3}),))
    assert rep is not None and rep.value == 11 and rep.witness == frozenset({1, 3})
    # asking for two adjacent vertices is infeasible
    assert oracle_constrained(wg, (frozenset({1}), frozenset({2}))) is None
    with pytest.raises(ValueError):
        oracle_constrained(wg, (frozenset(),))
    # an out-of-range vertex is an error, as in solve_constrained, not "no MIS"
    with pytest.raises(ValueError, match="out of range"):
        oracle_constrained(WeightedGraph(path(3), (1, 1, 1)), [{7}])


def test_oracle_constrained_agreement_with_filter():
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(1, 8)
        g = gnp(n, rng.choice((0.2, 0.5, 0.8)), rng)
        wg = WeightedGraph(g, tuple(rng.randint(0, 20) for _ in range(n)))
        demands = tuple(
            frozenset(rng.sample(range(n), rng.randint(1, min(2, n))))
            for _ in range(rng.randint(1, 2))
        )
        rep = oracle_constrained(wg, demands)
        feasible = [
            s for s in _subset_enumerate(g) if all(s & d for d in demands)
        ]
        if not feasible:
            assert rep is None
            continue
        best = min(feasible, key=lambda s: (wg.weight_of(s), sorted(s)))
        # compare on value; witness via the shared order
        assert rep is not None
        assert rep.value == wg.weight_of(best) == min(map(wg.weight_of, feasible))
        ties = [s for s in feasible if wg.weight_of(s) == rep.value]
        for other in ties:
            assert rep.witness == other or set_precedes(rep.witness, other)


def test_min_dominating():
    rep = oracle_min_dominating(path(3))
    assert rep.value == 1 and rep.witness == frozenset({1})
    rep = oracle_min_dominating(cycle(6))
    assert rep.value == 2
    assert rep.witness == frozenset({0, 3})
    assert oracle_min_dominating(Graph(0, [])).witness == frozenset()


def test_every_witness_is_verified_mis():
    rng = random.Random(19)
    for _ in range(100):
        n = rng.randint(1, 8)
        g = gnp(n, 0.4, rng)
        rep = oracle_id(g)
        assert g.is_maximal_independent(rep.witness)
        assert rep.enumeration_size >= 1
