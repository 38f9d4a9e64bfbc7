"""The solver and build_tree against the benchmark's polynomial references.

The brute-force oracles stop at n = 25, so exact checks on general
graphs end at n <= 17.  Cographs and threshold graphs carry their
cotree, and split graphs their clique, and ``perfbench/reference.py``
solves them by a cotree DP or by listing the few maximal independent
sets a split graph has, never importing widom; that reaches the sizes
the solver runs at.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest
from conftest import _threshold_masks

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402
from widom.decomposition import build_tree, tree_to_json  # noqa: E402
from widom.graph import Graph, WeightedGraph  # noqa: E402
from widom.solver import solve_constrained, solve_wid  # noqa: E402


@pytest.mark.parametrize("n", [50, 100, 200])
@pytest.mark.parametrize("make", [wl.cograph, wl.threshold_graph], ids=["cograph", "threshold"])
def test_solver_and_tree_match_cotree_references(make, n):
    inst = make(random.Random(n), n)
    g = Graph(inst.n, inst.edges)
    sol = solve_wid(WeightedGraph(g, inst.weights))
    assert sol.weight == ref.cotree_optimum(inst.cotree, inst.weights)
    ref.check_witness(inst.adj(), n, inst.weights, sorted(sol.vertices), sol.weight)
    assert ref.check_tree(inst.adj(), n, tree_to_json(build_tree(g))) > 0


@pytest.mark.parametrize("n", [40, 50, 400, 1000])
def test_solver_matches_split_reference(n):
    inst = wl.split_graph(random.Random(n), n)
    adj, wg = inst.adj(), WeightedGraph(Graph(inst.n, inst.edges), inst.weights)
    sol = solve_wid(wg)
    assert sol.weight == ref.split_optimum(adj, n, inst.weights, inst.clique)
    ref.check_witness(adj, n, inst.weights, sorted(sol.vertices), sol.weight)

    rng = random.Random(n + 1)
    # a maximal independent set holds at most one clique vertex, so two
    # disjoint demands inside the clique cannot both be met
    six = rng.sample(inst.clique, 6)
    cases = [[rng.sample(range(n), 3) for _ in range(2)] for _ in range(4)]
    cases.append([six[:3], six[3:]])
    infeasible = 0
    for demands in cases:
        want = ref.split_optimum(adj, n, inst.weights, inst.clique, demands)
        got = solve_constrained(wg, demands)
        if want is None:
            infeasible += 1
            assert got is None
            continue
        assert got is not None and got.weight == want
        ref.check_witness(adj, n, inst.weights, sorted(got.vertices), got.weight, demands)
    assert infeasible >= 1


def test_split_graphs_past_the_old_recursion_wall_are_one_state():
    """Split n = 2,000 raised RecursionError as a chain of good vertices,
    one stack frame per clique vertex.  As one split leaf it is one
    state, under the default recursion limit, with and without demands;
    the two disjoint demands inside the clique have no answer."""
    limit = sys.getrecursionlimit()
    n = 2000
    inst = wl.split_graph(random.Random(n), n)
    adj, wg = inst.adj(), WeightedGraph(Graph(inst.n, inst.edges), inst.weights)
    stats: dict = {}
    sol = solve_wid(wg, stats)
    assert stats["subproblems"] == 1 and stats["max_k"] == 1
    assert sol.weight == ref.split_optimum(adj, n, inst.weights, inst.clique)
    ref.check_witness(adj, n, inst.weights, sorted(sol.vertices), sol.weight)

    rng = random.Random(n + 1)
    four = rng.sample(inst.clique, 4)
    cases = [[rng.sample(range(n), 3) for _ in range(2)] for _ in range(3)]
    cases += [[rng.sample(range(n // 2, n), 2)], [four[:2], four[2:]]]
    infeasible = 0
    for demands in cases:
        want = ref.split_optimum(adj, n, inst.weights, inst.clique, demands)
        got = solve_constrained(wg, demands)
        if want is None:
            infeasible += 1
            assert got is None
            continue
        assert got is not None and got.weight == want
        ref.check_witness(adj, n, inst.weights, sorted(got.vertices), got.weight, demands)
    assert infeasible >= 1 and sys.getrecursionlimit() == limit


def test_threshold_graph_of_four_thousand_vertices_is_one_state():
    """A threshold graph is split, its clique the dominating vertices:
    n = 4,000 raised RecursionError as a chain of good vertices."""
    limit = sys.getrecursionlimit()
    n = 4000
    g = _threshold_masks(random.Random(n), n)
    adj, weights = list(g._adj), tuple(1 + 7919 * v % 97 for v in range(n))
    stats: dict = {}
    sol = solve_wid(WeightedGraph(g, weights), stats)
    assert stats["subproblems"] == 1
    # a vertex is dominating when it sees every earlier vertex; vertex 0
    # is left in the independent set, which sees only later clique vertices
    clique = [v for v in range(1, n) if adj[v] & (1 << v) - 1 == (1 << v) - 1]
    assert sol.weight == ref.split_optimum(adj, n, weights, clique)
    ref.check_witness(adj, n, weights, sorted(sol.vertices), sol.weight)
    assert sys.getrecursionlimit() == limit


def _disjoint_p3s(rng: random.Random, n: int) -> wl.Inst:
    """n / 3 disjoint unit-weighted P3s."""
    edges = tuple(e for i in range(0, n, 3) for e in ((i, i + 1), (i + 1, i + 2)))
    return wl.Inst(n, edges, (1,) * n)


def _clique_less_an_edge(rng: random.Random, n: int) -> wl.Inst:
    """K_n without the edge 0-1, unit-weighted."""
    edges = tuple((u, v) for u in range(n) for v in range(u + 1, n) if (u, v) != (0, 1))
    return wl.Inst(n, edges, (1,) * n)


@pytest.mark.parametrize(
    "make, n, limit, max_k",
    [
        (wl.threshold_graph, 400, 5 * 400, None),
        (wl.split_graph, 40, 2000, None),
        (wl.split_graph, 80, 5000, None),
        (wl.split_graph, 400, 1, 1),
        (wl.cograph, 1000, 800, None),
        (_disjoint_p3s, 3000, 2 * 1000 + 1, 1),
        (wl.threshold_graph, 400, 1, 1),
        (_clique_less_an_edge, 1000, 1, 1),
    ],
    ids=["threshold", "split", "split80", "split400", "cograph1000", "p3s1000", "threshold400",
         "clique1000"],
)
def test_subproblem_count_guard(make, n, limit, max_k):
    """Ranked lists keep these families far from the exponential count
    of demand sets (split n = 40 took 301,487 subproblems) and from the
    quadratic count of weight overrides (threshold n = 400 took 158,404).
    Requiring a vertex by forbidding its neighbors, rather than keeping a
    forced set in the state, keeps split n = 80 off the 45,115 states it
    took with one.  Answering a split mask as one leaf, which lists its
    at most |K| + 1 MIS, keeps split n = 400 at one state (201 as a chain
    of good vertices, 499,468 with module search first), and so threshold
    n = 400 (97 with universal vertices peeled, 175 without) and K_1000
    less an edge (1,000 as a chain), which are split too.  Splitting a
    union or a join into all its components at once, and taking isolated
    vertices out in the same step, keeps cograph n = 1,000 at most 800
    states (1,771 as a chain of binary module splits) and 1,000 disjoint
    P3s at one state for the root and two per P3 (past the recursion
    limit as module splits)."""
    inst = make(random.Random(n), n)
    stats: dict = {}
    solve_wid(WeightedGraph(Graph(inst.n, inst.edges), inst.weights), stats)
    assert stats["subproblems"] <= limit
    if max_k is not None:
        assert stats["max_k"] == max_k


def _cotree_constrained(tree, weights, demands):
    """Minimum weight of a MIS meeting every demand, or None: the cotree
    DP keyed by the subset of demands met.  A MIS of a union is a MIS
    of each side; a MIS of a join is a MIS of one side."""
    if isinstance(tree, int):
        return {sum(1 << i for i, d in enumerate(demands) if tree in d): weights[tree]}
    op, left, right = tree
    a = _cotree_constrained(left, weights, demands)
    b = _cotree_constrained(right, weights, demands)
    pairs = (
        [(ma | mb, wa + wb) for ma, wa in a.items() for mb, wb in b.items()]
        if op == "union"
        else [*a.items(), *b.items()]
    )
    out: dict = {}
    for met, w in pairs:
        out[met] = min(w, out.get(met, w))
    return out


@pytest.mark.parametrize("n", [50, 100, 200])
@pytest.mark.parametrize("make", [wl.cograph, wl.threshold_graph], ids=["cograph", "threshold"])
def test_constrained_matches_cotree_reference(make, n):
    """Demands on families with many MIS ranked above the best feasible
    one; the parent's demand sets took up to 51,845 subproblems here."""
    inst = make(random.Random(n), n)
    adj, wg = inst.adj(), WeightedGraph(Graph(inst.n, inst.edges), inst.weights)
    rng = random.Random(n + 7)
    for _ in range(4):
        demands = [rng.sample(range(n), 3) for _ in range(2)]
        table = _cotree_constrained(inst.cotree, inst.weights, [set(d) for d in demands])
        stats: dict = {}
        got = solve_constrained(wg, demands, stats)
        assert stats["subproblems"] <= 20 * n
        if 3 not in table:
            assert got is None
            continue
        assert got is not None and got.weight == table[3]
        ref.check_witness(adj, n, inst.weights, sorted(got.vertices), got.weight, demands)


def test_constrained_on_matching_is_not_exponential():
    """20 disjoint edges a_i b_i have 2^20 MIS; a demanded vertex's
    neighbors are forbidden, so neither an infeasible pair of demands
    nor one heavy demanded vertex makes the solver walk down that list."""
    m = 20
    weights = [1] * (2 * m)
    weights[1] = 1000
    wg = WeightedGraph(Graph(2 * m, [(2 * i, 2 * i + 1) for i in range(m)]), tuple(weights))
    for demands, want in (([[0], [1]], None), ([[1]], 1000 + m - 1)):
        stats: dict = {}
        got = solve_constrained(wg, demands, stats)
        assert (got and got.weight) == want
        assert stats["subproblems"] <= 4 * m
