import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from widom.decomposition import NotInClassError
from widom.generators import bull, complete, cycle, empty, gnp, path, star, sun3
from widom.graph import Graph, WeightedGraph, bits, unit_weights
from widom import solver
from widom.oracle import oracle_constrained, oracle_wid
from widom.patterns import CO_P5, P5, is_free
from widom.solver import (
    eq1_literal,
    solve_constrained,
    solve_id,
    solve_naive_eq1,
    solve_wid,
)


def test_k3_weighted():
    sol = solve_wid(WeightedGraph(complete(3), (3, 1, 2)))
    assert sol.weight == 1 and sol.vertices == frozenset({1})


def test_p4_endpoint_trap():
    sol = solve_wid(WeightedGraph(path(4), (10, 1, 1, 10)))
    assert sol.weight == 11 and sol.vertices == frozenset({0, 2})


def test_k2_demand():
    wg = WeightedGraph(complete(2), (5, 1))
    sol = solve_constrained(wg, (frozenset({0}),))
    assert sol is not None
    assert sol.vertices == frozenset({0}) and sol.weight == 5


def test_edgeless_pair_demand():
    wg = WeightedGraph(empty(2), (4, 7))
    sol = solve_constrained(wg, (frozenset({0}),))
    # the only maximal independent set is everything
    assert sol is not None
    assert sol.vertices == frozenset({0, 1}) and sol.weight == 11


def test_bull_weighted():
    wg = WeightedGraph(bull(), (1, 1, 5, 5, 100))
    sol = solve_wid(wg)
    assert sol.weight == 6
    assert sol.vertices == frozenset({0, 3})


def test_infeasible_demands():
    wg = unit_weights(complete(2))
    assert solve_constrained(wg, (frozenset({0}), frozenset({1}))) is None
    # an unhittable demand over a disconnected pair
    wg2 = unit_weights(Graph(3, [(0, 1)]))
    assert solve_constrained(wg2, (frozenset({0}), frozenset({1}))) is None


def test_demand_validation():
    wg = unit_weights(complete(2))
    with pytest.raises(ValueError):
        solve_constrained(wg, (frozenset({5}),))
    with pytest.raises(ValueError):
        solve_constrained(wg, (frozenset(),))


def test_out_of_class_rejected():
    with pytest.raises(NotInClassError) as err:
        solve_id(cycle(6))
    assert err.value.occurrence.pattern_name == "P5"


def test_p5_itself_still_solves():
    # the recursion never meets a stuck subgraph on the 5-path, so the
    # obstruction is tolerated opportunistically
    sol = solve_id(path(5))
    assert sol.weight == oracle_wid(unit_weights(path(5))).value == 2


def test_sun3_solvable():
    assert solve_id(sun3()).weight == 2
    assert solve_id(sun3()).vertices == frozenset({0, 5})


def test_zero_and_negative_free_edge_cases():
    assert solve_wid(WeightedGraph(empty(0), ())).weight == 0
    assert solve_wid(WeightedGraph(empty(1), (0,))).vertices == frozenset({0})
    sol = solve_wid(WeightedGraph(cycle(4), (0, 0, 0, 0)))
    assert sol.weight == 0 and sol.vertices == frozenset({0, 2})


def test_agreement_small(inclass_corpus):
    for wg in inclass_corpus[:200]:
        want = oracle_wid(wg)
        got = solve_wid(wg)
        assert got.weight == want.value
        assert got.vertices == want.witness


def test_constrained_agreement_small(constrained_instances):
    for wg, demands in constrained_instances[:200]:
        want = oracle_constrained(wg, demands)
        got = solve_constrained(wg, demands)
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert (got.weight, got.vertices) == (want.value, want.witness)


def test_stats_counters(inclass_corpus):
    stats: dict = {}
    solve_wid(inclass_corpus[0], stats=stats)
    assert stats["subproblems"] >= 1
    assert stats["max_demands"] >= 0
    assert stats["assignments"] >= 0


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_solver_matches_oracle_property(data):
    n = data.draw(st.integers(1, 7))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.sets(st.sampled_from(possible)) if possible else st.just(set()))
    g = Graph(n, sorted(edges))
    if not is_free(g, (P5, CO_P5)):
        return
    weights = tuple(data.draw(st.integers(0, 30)) for _ in range(n))
    wg = WeightedGraph(g, weights)
    want = oracle_wid(wg)
    got = solve_wid(wg)
    assert (got.weight, got.vertices) == (want.value, want.witness)


# ---------------------------------------------------------------------------
# the literal two-term recurrence
# ---------------------------------------------------------------------------


def test_naive_correct_on_k3():
    rep = solve_naive_eq1(WeightedGraph(complete(3), (3, 1, 2)))
    assert rep.value == 1 and rep.witness == frozenset({1})
    assert rep.witness_is_mis


def test_naive_diverges_on_p4():
    # branching at vertex 0, the dropped branch keeps the middle
    # singleton, which is not maximal in the full path
    wg = WeightedGraph(path(4), (10, 1, 1, 10))
    rep = solve_naive_eq1(wg)
    assert rep.value == 1
    assert solve_wid(wg).weight == 11
    assert rep.witness_is_mis
    assert wg.weight_of(rep.witness) == 11  # its own witness refutes the value


def test_eq1_literal_star():
    # pruning the center keeps all leaves (weight 3); pruning a leaf
    # leaves a smaller star whose best is 2; both terms undershoot
    wg = WeightedGraph(star(3), (10, 1, 1, 1))
    assert eq1_literal(wg, 1) == 2
    assert oracle_wid(wg).value == 3


def test_naive_pinned_star():
    wg = WeightedGraph(star(3), (10, 1, 1, 1))
    rep = solve_naive_eq1(wg, pin=1)
    assert rep.value == 2
    assert oracle_wid(wg).value == 3


def test_naive_pinned_bull():
    wg = WeightedGraph(bull(), (1, 1, 5, 5, 100))
    rep = solve_naive_eq1(wg, pin=4)
    assert rep.value == 2
    assert solve_wid(wg).weight == 6


def test_naive_on_empty_graph():
    rep = solve_naive_eq1(WeightedGraph(empty(0), ()))
    assert rep.value == 0 and rep.witness == frozenset() and rep.witness_is_mis


def test_naive_pin_validation():
    wg = unit_weights(path(4))
    with pytest.raises(ValueError):
        solve_naive_eq1(wg, pin=9)


def test_naive_agrees_often_but_not_always(inclass_corpus):
    # demand-free substitution is exact, so the literal mode is right
    # on many instances; it must never crash on in-class input
    agree = 0
    total = 0
    for wg in inclass_corpus[:150]:
        rep = solve_naive_eq1(wg)
        want = solve_wid(wg).weight
        total += 1
        agree += rep.value == want
        assert rep.value <= want  # both branches relax maximality
    assert agree > total // 2


def test_module_search_once_per_mask(family_graphs, monkeypatch):
    calls: Counter = Counter()
    classify = solver.classify_mask

    def counted(g, mask):
        calls[mask] += 1
        return classify(g, mask)

    monkeypatch.setattr(solver, "classify_mask", counted)
    rng = random.Random(99)
    for g in family_graphs:
        calls.clear()
        wg = WeightedGraph(g, tuple(rng.randint(1, 100) for _ in range(g.n)))
        assert solve_wid(wg).weight == oracle_wid(wg).value
        assert max(calls.values(), default=1) == 1


def test_one_memo_entry_per_state(family_graphs, monkeypatch):
    """A state is the mask, the attributes of the vertices in it and the
    demands; the memo must neither split nor merge states."""
    states: set = set()
    solve = solver._solve

    def recorded(ctx, mask, attrs, demands):
        view = tuple(attrs.get(v) or ctx.base[v] for v in bits(mask))
        states.add((mask, view, demands))
        return solve(ctx, mask, attrs, demands)

    monkeypatch.setattr(solver, "_solve", recorded)
    rng = random.Random(5)
    for g in family_graphs:
        wg = WeightedGraph(g, tuple(rng.randint(1, 9) for _ in range(g.n)))
        demands = [frozenset(rng.sample(range(g.n), 3)) for _ in range(2)]
        for ds in ((), demands):
            states.clear()
            stats: dict = {}
            solve_constrained(wg, ds, stats)
            assert stats["subproblems"] == len(states)
