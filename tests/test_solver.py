import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from widom.decomposition import NodeKind, NotInClassError, build_tree
from widom.generators import bull, complete, cycle, empty, gnp, path, star, sun3
from widom.graph import Graph, WeightedGraph, bits, complement, disjoint_union, induced_subgraph, unit_weights
from widom import solver
from widom.oracle import enumerate_mis, oracle_constrained, oracle_wid
from widom.patterns import CO_P5, P5, is_free
from conftest import _threshold
from test_substituted import substituted_graph
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
    assert stats["max_k"] >= 1


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


def _assert_names_an_obstruction(g: Graph, err: NotInClassError) -> None:
    """The refusal names an induced P5 or co-P5 of g, vertex i hosting
    pattern vertex i."""
    occ = err.occurrence
    assert occ is not None
    pat, hosts = {p.name: p for p in (P5, CO_P5)}[occ.pattern_name], occ.vertices
    assert len(set(hosts)) == pat.n
    for i in range(pat.n):
        for j in range(i + 1, pat.n):
            assert g.adjacent(hosts[i], hosts[j]) == ((i, j) in pat.edges)


def test_solver_in_and_out_of_class_matches_oracle_or_names_an_obstruction():
    """On gnp graphs in and out of class, whatever split the solver takes:
    an answer is the oracle's value and witness, and a refusal names an
    induced P5 or co-P5 of the input."""
    rng = random.Random(1515)
    answered = refused = 0
    for _ in range(500):
        n = rng.randint(5, 12)
        g = gnp(n, rng.random(), rng)
        wg = WeightedGraph(g, tuple(rng.randint(0, 20) for _ in range(n)))
        try:
            got = solve_wid(wg)
        except NotInClassError as err:
            refused += 1
            _assert_names_an_obstruction(g, err)
            continue
        answered += 1
        want = oracle_wid(wg)
        assert (got.weight, got.vertices) == (want.value, want.witness)
    assert answered >= 100 and refused >= 50, (answered, refused)


def _join(g: Graph, h: Graph) -> Graph:
    return complement(disjoint_union(complement(g), complement(h)))


def test_unions_and_joins_match_oracle_or_name_an_obstruction(family_graphs, monkeypatch):
    """Seeded disjoint unions and joins of family graphs and of small gnp
    graphs, in class or not, some nested one level and some with
    isolated vertices added, under a random relabelling.  With and
    without demands, an answer is the oracle's value and witness, and a
    refusal names an induced P5 or co-P5 of the input.  The solver must
    have split into components, into co-components, and taken out
    isolated vertices along the way."""
    seen: Counter = Counter()
    split = solver._split

    def counted(ctx, mask):
        shape = lone, _, kind, _, _ = split(ctx, mask)
        seen[kind] += 1
        seen["lone"] += lone != 0
        return shape

    monkeypatch.setattr(solver, "_split", counted)
    rng = random.Random(2323)
    small = [g for g in family_graphs if g.n == 8]
    answered = refused = 0
    for _ in range(600):
        # 2 to 4 parts on at most 20 vertices.  The solver refuses gnp
        # parts of 8 to 10 vertices fairly often, and sparse parts keep
        # the top vertex of a join from being good, so joins split SERIES.
        parts = [rng.choice(small)] if rng.random() < 0.4 else []
        while len(parts) < 2 or (len(parts) < 4 and rng.random() < 0.5):
            room = 20 - sum(h.n for h in parts)
            if not room:
                break
            parts.append(gnp(rng.randint(1, min(10, room)), rng.random() ** 2, rng))
        if rng.random() < 0.4:  # nest: the last two parts under the other operation
            parts[-2:] = [disjoint_union(*parts[-2:]) if rng.random() < 0.5 else _join(*parts[-2:])]
        combine = disjoint_union if rng.random() < 0.5 else _join
        g = parts[0]
        for h in parts[1:]:
            g = combine(g, h)
        if rng.random() < 0.3:
            g = disjoint_union(g, Graph(rng.randint(1, 2)))
        perm = rng.sample(range(g.n), g.n)
        g = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
        wg = WeightedGraph(g, tuple(rng.randint(0, 20) for _ in range(g.n)))
        demands = [rng.sample(range(g.n), rng.randint(1, min(3, g.n))) for _ in range(rng.randint(1, 2))]
        for ds in ((), demands):
            try:
                got = solve_constrained(wg, ds)
            except NotInClassError as err:
                refused += 1
                _assert_names_an_obstruction(g, err)
                continue
            answered += 1
            want = oracle_constrained(wg, [frozenset(d) for d in ds])
            if want is None:
                assert got is None
            else:
                assert got is not None and (got.weight, got.vertices) == (want.value, want.witness)
    assert answered >= 1000 and refused >= 50, (answered, refused)
    assert seen[NodeKind.PARALLEL] and seen[NodeKind.SERIES] and seen["lone"], seen


def _with_universal_vertices(rng: random.Random, small: list[Graph]) -> Graph:
    """A graph with universal vertices, on at most 20 vertices: one to
    three single vertices joined onto a family graph or a gnp part, some
    with isolated vertices or a gnp part put beside it first; or a
    threshold graph; or K_n less a matching."""
    how = rng.randrange(4)
    if how < 2:
        g = rng.choice(small) if how else gnp(rng.randint(1, 12), rng.random(), rng)
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.3:
                g = disjoint_union(g, Graph(rng.randint(1, 2)))
            elif rng.random() < 0.2:
                g = disjoint_union(g, gnp(rng.randint(2, 3), 0.7, rng))
            g = _join(g, Graph(1))
    elif how == 2:
        g = _threshold(rng, rng.randint(2, 16))
    else:
        n = rng.randint(3, 16)
        ends = rng.sample(range(n), 2 * rng.randint(1, n // 2))
        g = complement(Graph(n, list(zip(ends[::2], ends[1::2]))))
    perm = rng.sample(range(g.n), g.n)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def test_universal_vertices_match_oracle_or_name_an_obstruction(family_graphs, monkeypatch):
    """Seeded graphs with universal vertices, under demands that require
    one (a demand inside the universal vertices) or forbid them all (a
    demand outside them, whose vertex sees every universal one).  An
    answer is the oracle's value and witness, and a refusal names an
    induced P5 or co-P5 of the input.  A demand inside the universal
    vertices is always answered, whatever the rest of the graph is: the
    one-vertex sets are its only MIS, and the SERIES split of a mask
    with a universal vertex answers it without walking the wholly
    forbidden rest.  A mask with a universal vertex must be a split
    leaf, complete masks among them, or a SERIES split in which each
    universal vertex is a part of its own, being a co-component."""
    taken: Counter = Counter()
    split = solver._split

    def counted(ctx, mask):
        shape = lone, _, kind, _, children = split(ctx, mask)
        rest = mask ^ lone
        universal = {1 << u for u in bits(rest) if rest & ~ctx.adj[u] == 1 << u}
        if universal:
            assert kind is solver.SPLIT_LEAF or (
                kind is NodeKind.SERIES and universal <= set(children)
            ), (mask, kind, children)
            taken[kind] += 1
        return shape

    monkeypatch.setattr(solver, "_split", counted)
    rng = random.Random(2525)
    small = [g for g in family_graphs if g.n <= 12]
    answered = refused = 0
    for _ in range(300):
        g = _with_universal_vertices(rng, small)
        wg = WeightedGraph(g, tuple(rng.randint(0, 20) for _ in range(g.n)))
        universal = [u for u in range(g.n) if g._adj[u].bit_count() == g.n - 1]
        others = [u for u in range(g.n) if u not in universal]
        cases = [(), [rng.sample(range(g.n), rng.randint(1, min(3, g.n)))]]
        if universal:
            cases.append([rng.sample(universal, rng.randint(1, len(universal)))])
        if others:
            cases.append([rng.sample(others, rng.randint(1, min(2, len(others))))])
        for ds in cases:
            try:
                got = solve_constrained(wg, ds)
            except NotInClassError as err:
                assert not (ds and set(ds[0]) <= set(universal)), (g.edges, ds, err)
                refused += 1
                _assert_names_an_obstruction(g, err)
                continue
            answered += 1
            want = oracle_constrained(wg, [frozenset(d) for d in ds])
            if want is None:
                assert got is None
            else:
                assert got is not None and (got.weight, got.vertices) == (want.value, want.witness)
    assert answered >= 800 and refused >= 20, (answered, refused)
    assert min(taken[solver.SPLIT_LEAF], taken[NodeKind.SERIES]) >= 300, taken


def _random_split(rng: random.Random) -> tuple[Graph, set[int]]:
    """A split graph on 2 to 12 vertices, randomly relabelled, and its
    clique: the first k vertices, each seeing each other vertex with a
    random probability."""
    n = rng.randint(2, 12)
    k, p = rng.randint(1, n - 1), rng.random()
    perm = rng.sample(range(n), n)
    edges = [(u, v) for u in range(k) for v in range(u + 1, n) if v < k or rng.random() < p]
    return Graph(n, [(perm[u], perm[v]) for u, v in edges]), {perm[u] for u in range(k)}


def test_split_leaf_matches_oracle(monkeypatch):
    """A split mask is one leaf that lists its MIS: each clique vertex c
    with the independent vertices c misses, and the independent set when
    every clique vertex sees it.  K = {0, 1, 2} and I = {3, 4} with
    edges 0-3 and 1-4: 2 sees no vertex of I, so the cheapest
    independent set I is no MIS, and demands on clique vertices pick one
    clique vertex or none.  Then 400 seeded split graphs, with and
    without demands, against the oracle."""
    leaves = 0
    split = solver._split

    def counted(ctx, mask):
        nonlocal leaves
        shape = split(ctx, mask)
        leaves += shape[2] is solver.SPLIT_LEAF
        return shape

    monkeypatch.setattr(solver, "_split", counted)
    edges = [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4)]
    wg = WeightedGraph(Graph(5, edges), (5, 9, 9, 1, 1))
    for demands, want in (
        ((), (6, {0, 4})),
        ([[1]], (10, {1, 3})),
        ([[2]], (11, {2, 3, 4})),
        ([[1, 2]], (10, {1, 3})),
        ([[0], [1]], None),
    ):
        got = solve_constrained(wg, demands)
        assert (got and (got.weight, got.vertices)) == want, demands
    # one leaf per solve; [[0], [1]] asks no query, since 0 sees 1
    assert leaves == 4

    rng = random.Random(2626)
    answered = infeasible = 0
    for _ in range(400):
        g, clique = _random_split(rng)
        wg = WeightedGraph(g, tuple(rng.randint(0, 20) for _ in range(g.n)))
        cases = [(), [rng.sample(sorted(clique), rng.randint(1, len(clique)))]]
        cases += [[rng.sample(range(g.n), rng.randint(1, min(3, g.n))) for _ in range(rng.randint(1, 2))]]
        for ds in cases:
            got = solve_constrained(wg, ds)
            want = oracle_constrained(wg, [frozenset(d) for d in ds])
            if want is None:
                infeasible += 1
                assert got is None
            else:
                answered += 1
                assert got is not None and (got.weight, got.vertices) == (want.value, want.witness)
    assert answered >= 1000 and infeasible >= 20 and leaves >= 300, (answered, infeasible, leaves)


def test_former_leaf_shapes_are_split_leaves(monkeypatch):
    """Complete masks and masks with at most one edge are split masks, so
    the split leaf answers them: the empty graph and an edgeless one (an
    empty rest, K = I = 0), K_7 (K = the mask), K_7 or one edge beside
    isolated vertices (K = the clique or the edge), and P3 0-1-2 (K =
    {1, 2}, I = {0}).  Every mask met, under no demand and under each
    one-vertex demand, is a split leaf, and each answer is the oracle's."""
    kinds: Counter = Counter()
    split = solver._split

    def counted(ctx, mask):
        shape = split(ctx, mask)
        kinds[shape[2]] += 1
        return shape

    monkeypatch.setattr(solver, "_split", counted)
    shapes = (
        empty(0),
        empty(5),
        complete(7),
        disjoint_union(complete(7), empty(3)),
        disjoint_union(path(2), empty(4)),
        path(3),
    )
    for g in shapes:
        wg = WeightedGraph(g, tuple(1 + 7 * u % 5 for u in range(g.n)))
        for ds in [()] + [[[u]] for u in range(g.n)]:
            got = solve_constrained(wg, ds)
            want = oracle_constrained(wg, [frozenset(d) for d in ds])
            assert (got and (got.weight, got.vertices)) == (want and (want.value, want.witness)), (g.edges, ds)
    assert set(kinds) == {solver.SPLIT_LEAF}, kinds


def _mis_masks(g: Graph, mask: int) -> list[int]:
    """The MIS of g's subgraph on ``mask``, by the oracle, as root-id masks."""
    sub, ids = induced_subgraph(g, bits(mask))
    back = {new: old for old, new in ids.items()}
    return sorted(sum(1 << back[u] for u in s) for s in enumerate_mis(sub, bound=64))


def test_split_sets_match_oracle_on_leaves_and_antineighborhoods(
    inclass_corpus, substitution_corpus, monkeypatch
):
    """``_split_sets`` lists the MIS of a split mask, given its clique K
    and independent set I.  Besides the split leaf, it serves the tree's
    leaves in the naive mode (K = the mask when complete, else the ends
    of its one edge) and a good vertex's antineighborhood in the sound
    mode (K = the ends of its one edge, or 0).  Every tree leaf of both
    corpora, and every antineighborhood met solving seeded composed
    graphs, against the oracle."""
    leaves: Counter = Counter()
    for wg in inclass_corpus + substitution_corpus:
        g = wg.graph
        for node in build_tree(g).root.walk():
            if node.children:
                continue
            mask = node.mask
            clique = mask if node.kind is NodeKind.LEAF_COMPLETE else solver._edge_ends(g._adj, mask)
            assert sorted(solver._split_sets(g._adj, clique, mask ^ clique)) == _mis_masks(g, mask)
            leaves[node.kind, min(clique.bit_count(), 3)] += 1
    shapes = [(NodeKind.LEAF_F, 0), (NodeKind.LEAF_F, 2)] + [(NodeKind.LEAF_COMPLETE, i) for i in (1, 2, 3)]
    assert min(leaves[shape] for shape in shapes) >= 50, leaves

    antis: set[int] = set()
    split = solver._split

    def caught(ctx, mask):
        shape = split(ctx, mask)
        if shape[2] is NodeKind.ANTINEIGHBORHOOD:
            antis.add(shape[4][0])
        return shape

    monkeypatch.setattr(solver, "_split", caught)
    rng = random.Random(2828)
    ends: Counter = Counter()
    for lo in range(30, 170, 2):
        g = substituted_graph(rng, lo)
        solve_wid(unit_weights(g))
        for anti in antis:
            clique = solver._edge_ends(g._adj, anti)
            assert sorted(solver._split_sets(g._adj, clique, anti ^ clique)) == _mis_masks(g, anti)
            ends[clique.bit_count()] += 1
        antis.clear()
    assert min(ends[0], ends[2]) >= 300, ends


def test_wholly_forbidden_series_part_is_not_walked():
    """A SERIES part whose every vertex is forbidden has no MIS, so the
    prime C6, which has no good vertex, is never walked when a demand
    forbids all of it.  C6 joined with one vertex u, under [[u]]: the
    answer is {u}, a SERIES part of its own, since the demand forbids
    N(u), the whole C6.  C6 joined with three disjoint edges, under
    [[0]]: the set lies in the three edges, a join's co-components."""
    for g, u in ((_join(cycle(6), Graph(1)), 6), (_join(Graph(6, [(0, 1), (2, 3), (4, 5)]), cycle(6)), 0)):
        wg = unit_weights(g)
        got = solve_constrained(wg, [[u]])
        want = oracle_constrained(wg, [frozenset({u})])
        assert got is not None and (got.weight, got.vertices) == (want.value, want.witness)
        with pytest.raises(NotInClassError):
            solve_wid(wg)


def test_unions_and_joins_split_before_the_good_vertex():
    """When the highest-degree vertex v is good and the rest is not split,
    a union or a join splits before v.  P4 0-1-2-3 beside the edge 4-5:
    v = 1, its antineighborhood {1, 3, 4, 5} holds the edge 4-5, which
    sees nothing else, so the mask is PARALLEL ({4, 5}, the P4).  P4
    joined with P4: v = 1 sees all but 3, and the complement search from
    {1, 3} stops at the first P4, so the mask is SERIES over the two.
    Each answer, unconstrained and under each one-vertex demand, is the
    oracle's."""
    for g, kind, parts in (
        (disjoint_union(path(4), path(2)), NodeKind.PARALLEL, (0b110000, 0b1111)),
        (_join(path(4), path(4)), NodeKind.SERIES, (0b1111, 0b11110000)),
    ):
        wg = WeightedGraph(g, tuple(1 + 7 * u % 5 for u in range(g.n)))
        assert solver._shape(solver._Ctx(wg), g.full_bits)[2:] == (kind, None, parts)
        for ds in [()] + [[[u]] for u in range(g.n)]:
            got = solve_constrained(wg, ds)
            want = oracle_constrained(wg, [frozenset(d) for d in ds])
            assert (got and (got.weight, got.vertices)) == (want and (want.value, want.witness)), (kind, ds)


def test_join_of_six_hundred_small_unions_is_one_series_split():
    """The join of 600 copies of K2 + K1 (n = 1,800) is one SERIES split
    into 600 parts, each an edge beside an isolated vertex, so a split
    leaf: 601 states at k = 1.  With the good vertex first it was a chain
    of good-vertex splits, k growing by one per copy, and it raised
    RecursionError."""
    k = 600
    full = (1 << 3 * k) - 1
    adj = []
    for i in range(k):
        others = full ^ 7 << 3 * i
        adj += [others | 2 << 3 * i, others | 1 << 3 * i, others]
    stats: dict = {}
    sol = solve_wid(unit_weights(Graph.from_masks(adj)), stats)
    assert sol.weight == 2 and sol.vertices == frozenset({0, 2})
    assert stats["max_k"] == 1 and stats["subproblems"] <= k + 1, stats


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


def test_eq1_literal_vertex_validation():
    wg = unit_weights(path(4))
    for v in (-1, 4):
        with pytest.raises(ValueError, match=f"^vertex {v} out of range$"):
            eq1_literal(wg, v)


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
    split = solver._split

    def counted(ctx, mask):
        calls[mask] += 1
        return split(ctx, mask)

    monkeypatch.setattr(solver, "_split", counted)
    rng = random.Random(99)
    for g in family_graphs:
        calls.clear()
        wg = WeightedGraph(g, tuple(rng.randint(1, 100) for _ in range(g.n)))
        assert solve_wid(wg).weight == oracle_wid(wg).value
        assert max(calls.values(), default=1) == 1


def test_one_memo_entry_per_state(family_graphs, monkeypatch):
    """A state is the mask with the forbidden vertices inside it; the
    memo must neither split nor merge states."""
    states: set = set()
    contexts: list = []
    topk = solver._topk

    def recorded(ctx, mask, forb, k):
        states.add((mask, forb & mask))
        contexts.append(ctx)
        return topk(ctx, mask, forb, k)

    monkeypatch.setattr(solver, "_topk", recorded)
    rng = random.Random(5)
    for g in family_graphs:
        wg = WeightedGraph(g, tuple(rng.randint(1, 9) for _ in range(g.n)))
        demands = [frozenset(rng.sample(range(g.n), 3)) for _ in range(2)]
        for ds in ((), demands):
            states.clear()
            contexts.clear()
            solve_constrained(wg, ds)
            # demands that no independent set meets ask no query at all
            assert len({id(ctx) for ctx in contexts}) <= 1
            assert sum(len(ctx.memo) for ctx in contexts[:1]) == len(states)


def test_constrained_is_exact_where_it_answers_out_of_class():
    """The demanded vertices' forbidden neighbors prune the walk, so
    solve_constrained can answer on a graph where solve_wid raises;
    whatever it answers is exact."""
    rng = random.Random(139)
    answered = 0
    for _ in range(400):
        n = rng.randint(6, 12)
        g = gnp(n, rng.random(), rng)
        wg = WeightedGraph(g, tuple(rng.randint(0, 20) for _ in range(n)))
        demands = [rng.sample(range(n), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
        try:
            solve_wid(wg)
        except NotInClassError:
            try:
                got = solve_constrained(wg, demands)
            except NotInClassError:
                continue
            answered += 1
            want = oracle_constrained(wg, [frozenset(d) for d in demands])
            if want is None:
                assert got is None
            else:
                assert got is not None and got.weight == want.value
                assert g.is_maximal_independent(got.vertices)
                assert all(got.vertices & set(d) for d in demands)
    assert answered >= 5


def test_solver_memory_is_not_quadratic():
    """No per-vertex table of n-bit ranks: an edgeless graph on 20,000
    vertices solves in a few megabytes."""
    g = Graph(20000)
    tracemalloc.start()
    try:
        sol = solve_id(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.weight == 20000
    assert peak < 10_000_000, peak
