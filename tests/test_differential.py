"""solve_wid and build_tree against the benchmark's polynomial references.

The brute-force oracles stop at n = 25, so exact checks on general
graphs end at n <= 17.  Cographs and threshold graphs carry their
cotree, and ``perfbench/reference.py`` solves them by a cotree DP that
never imports widom; that reaches the sizes the solver runs at.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402
from widom.decomposition import build_tree, tree_to_json  # noqa: E402
from widom.graph import Graph, WeightedGraph  # noqa: E402
from widom.solver import solve_wid  # noqa: E402


@pytest.mark.parametrize("n", [50, 100, 200])
@pytest.mark.parametrize("make", [wl.cograph, wl.threshold_graph], ids=["cograph", "threshold"])
def test_solver_and_tree_match_cotree_references(make, n):
    inst = make(random.Random(n), n)
    g = Graph(inst.n, inst.edges)
    sol = solve_wid(WeightedGraph(g, inst.weights))
    assert sol.weight == ref.cotree_optimum(inst.cotree, inst.weights)
    ref.check_witness(inst.adj(), n, inst.weights, sorted(sol.vertices), sol.weight)
    assert ref.check_tree(inst.adj(), n, tree_to_json(build_tree(g))) > 0
