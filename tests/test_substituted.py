"""The solver against the oracles on in-class graphs of 30 to 50 vertices.

The corpora of conftest.py stop at n = 17 because they sample gnp
graphs and reject those with an induced P5 or co-P5.  Here graphs are
composed instead: substituting one (P5, co-P5)-free graph for a vertex
of another keeps the class, because P5 and co-P5 are prime.  The pieces
are C5, the bull, P4, K2, 2K1 and random split graphs, which have no
2K2 and no C4 and so neither pattern.  The oracles enumerate every
maximal independent set, which these sizes still allow.  The composer
also reaches n = 2,000, where only the class test is run.
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import reference as ref  # noqa: E402
from widom import solver  # noqa: E402
from widom.decomposition import NodeKind, build_tree, find_obstruction, tree_to_json  # noqa: E402
from widom.generators import bull, complete, cycle, empty, path, substitute  # noqa: E402
from widom.graph import Graph, WeightedGraph, bits, mask_of  # noqa: E402
from widom.oracle import oracle_constrained, oracle_wid  # noqa: E402
from widom.patterns import CO_P5, P5, is_free  # noqa: E402
from widom.solver import solve_constrained, solve_naive_eq1, solve_wid  # noqa: E402

FIXED_PIECES = (cycle(5), bull(), path(4), complete(2), empty(2))


def _split_piece(rng: random.Random) -> Graph:
    """A clique on the first k vertices, each other pair of a clique and
    an independent vertex joined with probability 1/2."""
    n = rng.randint(5, 12)
    k = rng.randint(1, n - 1)
    edges = [(u, v) for u in range(k) for v in range(u + 1, k)]
    edges += [(u, v) for u in range(k) for v in range(k, n) if rng.random() < 0.5]
    return Graph(n, edges)


def _piece(rng: random.Random) -> Graph:
    i = rng.randrange(len(FIXED_PIECES) + 1)
    return FIXED_PIECES[i] if i < len(FIXED_PIECES) else _split_piece(rng)


def _composed(rng: random.Random, lo: int) -> tuple[Graph, list[int]]:
    """Substitute pieces into the graph, or the graph into a piece, until
    it has at least ``lo`` vertices (at most lo + 10); also draw a random
    permutation of its ids."""
    g = _piece(rng)
    while g.n < lo:
        piece = _piece(rng)
        if rng.random() < 0.5:
            g = substitute(g, rng.randrange(g.n), piece)
        else:
            g = substitute(piece, rng.randrange(piece.n), g)
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g, perm


def relabel(g: Graph, perm: list[int]) -> Graph:
    """g with vertex u renamed perm[u], each mask mapped bit by bit."""
    adj = [0] * g.n
    for u, nbrs in enumerate(g._adj):
        adj[perm[u]] = mask_of(perm[v] for v in bits(nbrs))
    return Graph.from_masks(adj)


def substituted_graph(rng: random.Random, lo: int = 30) -> Graph:
    """A composed graph of ``lo`` to lo + 10 vertices, randomly relabelled."""
    return relabel(*_composed(rng, lo))


@pytest.fixture(scope="module")
def substituted_corpus() -> list[WeightedGraph]:
    """60 weighted graphs, n from 30 to 50.  Half the weights are in
    [0, 100]; the other half in [0, 3], where ties between optimal sets
    are common and the witness shows the tie-break."""
    rng = random.Random(3050)
    out = []
    for i in range(60):
        g = substituted_graph(rng, lo=30 + i % 11)
        top = 100 if i % 2 else 3
        out.append(WeightedGraph(g, tuple(rng.randint(0, top) for _ in range(g.n))))
    return out


def test_substituted_corpus_is_in_class_and_large(substituted_corpus):
    sizes = [wg.n for wg in substituted_corpus]
    assert min(sizes) >= 30 and max(sizes) <= 50 and len(set(sizes)) >= 15
    assert all(is_free(wg.graph, (P5, CO_P5)) for wg in substituted_corpus[::6])


def test_solver_matches_oracles_past_n_30(substituted_corpus, monkeypatch):
    """Split masks are leaves, so split graphs no longer walk chains of
    good-vertex (ANTINEIGHBORHOOD) splits; composed graphs still do,
    where split pieces sit in hosts that are not split.  A union or a
    join splits as one before its good vertex does, so 20 more composed
    graphs beside the corpus keep the count of good-vertex splits up."""
    kinds: Counter = Counter()
    split = solver._split

    def counted(ctx, mask):
        shape = split(ctx, mask)
        kinds[shape[2]] += 1
        return shape

    monkeypatch.setattr(solver, "_split", counted)
    more = random.Random(3052)
    graphs = substituted_corpus + [
        WeightedGraph(g, tuple(more.randint(0, 100) for _ in range(g.n)))
        for g in (substituted_graph(more, 30 + i % 21) for i in range(20))
    ]
    rng = random.Random(3051)
    infeasible = 0
    for wg in graphs:
        got, want = solve_wid(wg), oracle_wid(wg, bound=60)
        assert (got.weight, got.vertices) == (want.value, want.witness)
        assert solve_naive_eq1(wg).value <= got.weight
        adj = list(wg.graph._adj)
        assert ref.check_tree(adj, wg.n, tree_to_json(build_tree(wg.graph))) > 0

        demands = [
            frozenset(rng.sample(range(wg.n), rng.randint(1, 3)))
            for _ in range(rng.randint(1, 3))
        ]
        got_c = solve_constrained(wg, demands)
        want_c = oracle_constrained(wg, demands, bound=60)
        if want_c is None:
            infeasible += 1
            assert got_c is None
        else:
            assert got_c is not None
            assert (got_c.weight, got_c.vertices) == (want_c.value, want_c.witness)
    assert 0 < infeasible < len(graphs)
    assert kinds[NodeKind.ANTINEIGHBORHOOD] >= 1000 and kinds[solver.SPLIT_LEAF] >= 100, kinds


@pytest.mark.parametrize("seed", [0, 1, 2, 3050])
def test_mask_relabel_matches_the_edge_relabel(seed):
    """The composer's graphs are the ones the edge-tuple relabel gave."""
    rng = random.Random(seed)
    g, perm = _composed(rng, 60 + seed % 7)
    assert relabel(g, perm) == Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    assert substituted_graph(random.Random(seed), 60 + seed % 7) == relabel(g, perm)


def test_composed_graph_of_two_thousand_vertices_is_a_member():
    g = substituted_graph(random.Random(2000), lo=2000)
    assert 2000 <= g.n <= 2010
    assert find_obstruction(g) is None
