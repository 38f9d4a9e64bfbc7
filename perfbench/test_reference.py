"""The benchmark's own tests: every reference agrees with widom's oracles.

    python3 -m pytest -q perfbench

The references in reference.py never import widom; here they are
cross-checked against widom's brute-force oracles on small instances
built by the benchmark's generators.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402
from widom.decomposition import build_tree, tree_to_json  # noqa: E402
from widom.graph import Graph, WeightedGraph, induced_subgraph  # noqa: E402
from widom.hardness import build_wid_reduction  # noqa: E402
from widom.oracle import (  # noqa: E402
    enumerate_mis,
    oracle_constrained,
    oracle_id,
    oracle_min_dominating,
    oracle_wid,
)
from widom.patterns import CO_P5, DOMINO, P5, SUN3, C4, C5, C6, find_induced  # noqa: E402
from widom.satgraph import sat_partition, star_transform, verify_sat_partition  # noqa: E402

WIDOM_PATTERNS = {"P5": P5, "CO_P5": CO_P5, "C4": C4, "C5": C5, "C6": C6, "DOMINO": DOMINO, "SUN3": SUN3}


def weighted(inst: wl.Inst) -> WeightedGraph:
    return WeightedGraph(Graph(inst.n, inst.edges), inst.unit())


def random_demands(rng, n):
    return tuple(tuple(rng.sample(range(n), rng.randint(1, min(3, n)))) for _ in range(rng.randint(1, 3)))


def test_split_closed_form_matches_oracle():
    rng = random.Random(1)
    for _ in range(60):
        inst = wl.split_graph(rng, rng.randint(2, 13))
        wg = weighted(inst)
        adj = inst.adj()
        assert ref.split_optimum(adj, inst.n, inst.weights, inst.clique) == oracle_wid(wg).value
        assert len(ref.split_mis(adj, inst.n, inst.clique)) == oracle_wid(wg).enumeration_size
        demands = random_demands(rng, inst.n)
        want = oracle_constrained(wg, [frozenset(d) for d in demands])
        got = ref.split_optimum(adj, inst.n, inst.weights, inst.clique, demands)
        assert got == (want.value if want else None)


@pytest.mark.parametrize("make", [wl.threshold_graph, wl.cograph])
def test_cotree_dp_matches_oracle(make):
    rng = random.Random(2)
    for _ in range(40):
        inst = make(rng, rng.randint(1, 14))
        assert ref.cotree_optimum(inst.cotree, inst.weights) == oracle_wid(weighted(inst)).value


def test_networkx_enumeration_matches_oracle():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 12)
        inst = wl.gnp_source(rng, n, rng.choice((0.2, 0.5, 0.8)))
        weights = tuple(rng.randint(0, 9) for _ in range(n))
        wg = WeightedGraph(Graph(n, inst.edges), weights)
        assert sorted(map(sorted, ref.nx_mis(n, inst.edges))) == sorted(map(sorted, enumerate_mis(wg.graph)))
        demands = random_demands(rng, n)
        want = oracle_constrained(wg, [frozenset(d) for d in demands])
        assert ref.nx_optimum(n, inst.edges, weights, demands) == (want.value if want else None)


def test_dominating_set_matches_oracle():
    rng = random.Random(4)
    for _ in range(40):
        inst = wl.gnp_source(rng, rng.randint(1, 8), 0.3)
        assert ref.min_dominating_size(inst.adj(), inst.n) == oracle_min_dominating(Graph(inst.n, inst.edges)).value


def test_star_reference_matches_widom_and_adds_one_per_cross_edge():
    rng = random.Random(5)
    for _ in range(15):
        inst = wl.sat_graph(rng, rng.randint(1, 3), rng.randint(1, 3))
        g = Graph(inst.n, inst.edges)
        res = star_transform(g, sat_partition(g, inst.a_side, set(range(inst.n)) - set(inst.a_side)))
        size, edges = ref.star_reference(inst.n, inst.edges, inst.a_side)
        assert (size, edges) == (res.graph.n, set(res.graph.edges))
        crosses = len(ref.cross_edges(inst.n, inst.edges, inst.a_side))
        if size <= 25:
            assert oracle_id(res.graph).value == oracle_id(g).value + crosses
            assert ref.nx_optimum(size, edges, (1,) * size) == oracle_id(g).value + crosses


def test_wid_gadget_matches_widom_and_the_identity():
    rng = random.Random(6)
    for _ in range(15):
        inst = wl.gnp_source(rng, rng.randint(1, 7), 0.35)
        red = build_wid_reduction(Graph(inst.n, inst.edges))
        size, edges, weights = ref.wid_gadget_reference(inst.n, inst.edges)
        assert (size, edges, weights) == (red.target.n, set(red.target.graph.edges), red.target.weights)
        gamma = ref.min_dominating_size(inst.adj(), inst.n)
        assert oracle_wid(red.target, bound=30).value == inst.n + gamma
        assert ref.nx_optimum(size, edges, weights) == inst.n + gamma


def test_sat_partition_check_matches_widom():
    rng = random.Random(7)
    for _ in range(60):
        inst = wl.sat_graph(rng, rng.randint(1, 4), rng.randint(1, 3))
        g = Graph(inst.n, inst.edges)
        a_side = set(inst.a_side)
        if rng.random() < 0.5:
            a_side ^= {rng.randrange(inst.n)}
        want_ok = verify_sat_partition(g, a_side, set(range(inst.n)) - a_side) is None
        assert (ref.sat_partition_problem(inst.adj(), inst.n, a_side) is None) == want_ok


def test_pattern_checks_match_widom():
    rng = random.Random(8)
    for _ in range(30):
        n = rng.randint(6, 9)
        inst = wl.gnp_source(rng, n, rng.choice((0.3, 0.5, 0.7)))
        g = Graph(n, inst.edges)
        adj = inst.adj()
        for name, pat in WIDOM_PATTERNS.items():
            occ = find_induced(g, pat)
            assert ref.has_induced(n, inst.edges, name) == (occ is not None)
            if occ is not None:
                assert ref.is_induced_copy(adj, occ.vertices, name)
            hosts = rng.sample(range(n), pat.n)
            sub, _ = induced_subgraph(g, hosts)
            exact = find_induced(sub, pat) is not None
            assert ref.is_induced_copy(adj, hosts, name) == exact


def test_tree_check_accepts_widom_trees_and_rejects_a_broken_one():
    rng = random.Random(9)
    for make in (wl.cograph, wl.threshold_graph):
        inst = make(rng, 14)
        doc = tree_to_json(build_tree(Graph(inst.n, inst.edges)))
        assert ref.check_tree(inst.adj(), inst.n, doc) == doc["node_count"]
        node = doc["root"]
        while node["kind"] not in ("homogeneous", "antineighborhood"):
            node = node["children"][1]
        node["children"][0]["vertices"] = node["children"][0]["vertices"][1:]
        with pytest.raises(ref.CheckError):
            ref.check_tree(inst.adj(), inst.n, doc)


def test_relabelling_keeps_the_optimum():
    rng = random.Random(10)
    inst = wl.cograph(rng, 12)
    perm = wl.permutation("modular", 1, 3, 0, inst.n)
    moved = inst.relabel(perm)
    assert oracle_wid(weighted(moved)).value == oracle_wid(weighted(inst)).value
    assert ref.cotree_optimum(moved.cotree, moved.weights) == ref.cotree_optimum(inst.cotree, inst.weights)
