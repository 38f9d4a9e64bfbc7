"""Class membership on the modular structure, against the whole-graph search.

``find_obstruction`` searches only the prime, non-split pieces of the
input's modular splitting, never the whole graph.  Its answer must be
the old record's: the whole graph's first induced P5, else its first
induced co-P5, else None.
"""

from __future__ import annotations

import random
import sys
import time
from collections import Counter
from itertools import chain, islice

import pytest
from conftest import _cograph, _split, _threshold, _threshold_masks
from test_substituted import relabel, substituted_graph

from widom import decomposition, patterns
from widom.cli import main
from widom.decomposition import find_obstruction
from widom.generators import gnp, path, substitute
from widom.graph import Graph, complement, disjoint_union
from widom.io import emit_graph
from widom.patterns import CO_P5, P5, find_induced

P5_GRAPH = path(5)
CO_P5_GRAPH = complement(path(5))


def _whole_graph_search(g: Graph):
    return find_induced(g, P5) or find_induced(g, CO_P5)


def _outcome(g: Graph) -> tuple[bool, bool]:
    """Whether g holds an induced P5, and whether it holds a co-P5."""
    return find_induced(g, P5) is not None, find_induced(g, CO_P5) is not None


def _join(g: Graph, h: Graph) -> Graph:
    return complement(disjoint_union(complement(g), complement(h)))


def _gnp_sweep():
    for n in range(1, 10):
        for p in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
            rng = random.Random(f"{n}/{p}")
            for _ in range(25):
                yield gnp(n, p, rng)


def _composed_members():
    rng = random.Random(24)
    for i in range(60):
        yield substituted_graph(rng, lo=5 + i % 31)


def _composed_non_members():
    """Members with P5 or co-P5 put in a slot, given a slot of theirs, or
    added as a union or join part, once or twice, then relabelled."""
    rng = random.Random(2024)
    for _ in range(160):
        g = substituted_graph(rng, lo=rng.randint(5, 25))
        for _ in range(rng.randint(1, 2)):
            bad = rng.choice((P5_GRAPH, CO_P5_GRAPH))
            how = rng.randrange(4)
            if how == 0:
                g = substitute(g, rng.randrange(g.n), bad)
            elif how == 1:
                g = substitute(bad, rng.randrange(bad.n), g)
            elif how == 2:
                g = disjoint_union(g, bad)
            else:
                g = _join(g, bad)
        perm = list(range(g.n))
        rng.shuffle(perm)
        yield relabel(g, perm)


def test_obstruction_matches_the_whole_graph_search():
    seen = Counter()
    for source in (_gnp_sweep(), _composed_members(), _composed_non_members()):
        for g in source:
            assert find_obstruction(g) == _whole_graph_search(g), emit_graph(g)
            seen[_outcome(g)] += 1
    # member, P5 only, co-P5 only, and both
    assert set(seen) == {(False, False), (True, False), (False, True), (True, True)}
    assert min(seen.values()) >= 50, seen


def test_recognize_record_matches_the_whole_graph_search(tmp_path, capsys):
    path_ = tmp_path / "g.graph"
    for g in chain(islice(_composed_non_members(), 20), islice(_composed_members(), 5)):
        path_.write_text(emit_graph(g))
        assert main(["recognize", str(path_), "--cls", "p5cop5"]) == 0
        record = capsys.readouterr().out
        occ = _whole_graph_search(g)
        assert f'"member": {"false" if occ else "true"}' in record
        if occ is not None:
            assert f'"pattern": "{occ.pattern_name}"' in record
            assert f'"vertices": {sorted(occ.vertices)}' in record


def _is_split_by_definition(g: Graph) -> bool:
    """Some clique K leaves an independent set: tried over every K."""
    return any(
        all(g._adj[u] >> v & 1 for u in range(g.n) for v in range(u) if k >> u & k >> v & 1)
        and not any(g._adj[u] & ~k for u in range(g.n) if not k >> u & 1)
        for k in range(1 << g.n)
    )


def test_split_test_matches_the_definition():
    pairs = [(u, v) for v in range(5) for u in range(v)]
    graphs = [Graph(5, [e for i, e in enumerate(pairs) if code >> i & 1]) for code in range(1 << 10)]
    rng = random.Random(6)
    graphs += [gnp(rng.randint(6, 8), rng.random(), rng) for _ in range(300)]
    verdicts = Counter()
    for g in graphs:
        want = _is_split_by_definition(g)
        assert decomposition.is_split_mask(g._adj, g.full_bits) == want, emit_graph(g)
        verdicts[want] += 1
        if want:  # the clique read off the degrees leaves an independent set
            degrees = [a.bit_count() for a in g._adj]
            k = decomposition.split_clique(g.full_bits, degrees, sum(degrees))
            assert all(
                (a | 1 << u) & k == k if k >> u & 1 else not a & ~k for u, a in enumerate(g._adj)
            ), emit_graph(g)
    assert min(verdicts.values()) >= 100


def test_threshold_masks_match_the_edge_builder():
    for seed in range(5):
        assert _threshold_masks(random.Random(seed), 60) == _threshold(random.Random(seed), 60)


@pytest.fixture
def searches(monkeypatch) -> list[str]:
    """The patterns ``induced_in_mask`` is asked for, from either module."""
    calls: list[str] = []
    real = patterns.induced_in_mask

    def counting(adj, mask, pat):
        calls.append(pat.name)
        return real(adj, mask, pat)

    monkeypatch.setattr(decomposition, "induced_in_mask", counting)
    monkeypatch.setattr(patterns, "induced_in_mask", counting)
    return calls


@pytest.mark.parametrize("family", ["cograph", "threshold", "split"])
def test_members_of_two_hundred_vertices_reach_no_pattern_search(family, searches):
    rng = random.Random(200)
    g = {"cograph": _cograph, "threshold": _threshold_masks, "split": _split}[family](rng, 200)
    assert find_obstruction(g) is None
    assert searches == []
    # the counter sees the one search a non-member needs, in its P5 piece
    assert find_obstruction(disjoint_union(P5_GRAPH, g)).vertices == (0, 1, 2, 3, 4)
    assert searches == ["P5"]


def test_threshold_of_a_thousand_vertices_is_a_member_under_the_recursion_limit(searches):
    limit = sys.getrecursionlimit()
    assert find_obstruction(_threshold_masks(random.Random(1000), 1000)) is None
    assert searches == [] and sys.getrecursionlimit() == limit


def test_split_graph_beside_a_p5_is_refused_without_a_whole_graph_search(tmp_path, capsys):
    """Split n = 200 with a P5 beside it at ids 200-204: a search of the
    whole graph runs through every vertex of the split part below the
    P5 (7 s); the P5 piece alone gives the same record."""
    r = random.Random(1)
    edges = [(u, v) for u in range(100) for v in range(u + 1, 200) if v < 100 or r.random() < 0.5]
    g = Graph(205, edges + [(200 + i, 201 + i) for i in range(4)])
    path_ = tmp_path / "split_p5.graph"
    path_.write_text(emit_graph(g))
    began = time.process_time()
    assert main(["recognize", str(path_), "--cls", "p5cop5"]) == 0
    assert time.process_time() - began < 1
    assert capsys.readouterr().out == (
        '{"cls": "p5cop5", "command": "recognize", "input_hash": '
        '"5946f93a8cffa3bf49c94a7963b7b16f1ce0eda2e1d06bd70ecbaca6bf1a274f", "member": false, '
        '"obstruction": {"pattern": "P5", "vertices": [200, 201, 202, 203, 204]}}\n'
    )
