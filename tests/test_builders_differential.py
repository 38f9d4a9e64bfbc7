"""The mask builders against the edge-tuple builders they replaced.

The ``oracle_*`` functions below are those earlier builders, kept here as
test oracles: each collects its graph's edges as tuples (reading
``Graph.edges`` where it starts from a graph) and folds them through the
checked ``Graph(n, edges)`` constructor.  On seeded inputs both must give
equal results, and the command-line outputs that run through these
builders are pinned by their sha256.
"""

import hashlib
import json
import random
from pathlib import Path

from widom.cli import main
from widom.generators import gnp, sat_random, substitute, substitute_with_map
from widom.graph import Graph, WeightedGraph, induced_subgraph
from widom.hardness import WidReduction, build_wid_reduction
from widom.satgraph import (
    SatPartition,
    StarResult,
    TransformMarkers,
    _apply_gamma,
    ab_edges,
    sat_partition,
)

# -- the oracles --------------------------------------------------------------


def oracle_apply_gamma(g: Graph, part: SatPartition, todo: list[tuple[int, int]]) -> StarResult:
    edges, a_side, n, new_edges = set(g.edges), list(part.a), g.n, []
    for a, b in todo:
        ab = (min(a, b), max(a, b))
        if a not in part.a or b not in part.b or ab not in edges:
            raise ValueError(f"({a},{b}) is not an A-B edge of the partition")
        v, x, y = n, n + 1, n + 2
        edges.remove(ab)
        edges.update((other, v) for other in a_side)
        edges.update(((x, y), (b, v), (v, x), (a, y)))
        a_side.append(v)
        new_edges.append((x, y))
        n += 3
    markers = TransformMarkers(frozenset(a_side[len(part.a):]), tuple(new_edges))
    g2 = Graph(n, edges)
    part2 = sat_partition(g2, a_side, part.b | markers.beta_new)
    return StarResult(g2, part2, markers, tuple(todo))


def oracle_build_wid_reduction(source: Graph) -> WidReduction:
    n = source.n
    first = [3 * v for v in range(n)]
    second = [3 * v + 1 for v in range(n)]
    third = [3 * v + 2 for v in range(n)]
    edges: list[tuple[int, int]] = []
    for v in range(n):
        edges.append((first[v], second[v]))
        edges.append((second[v], third[v]))
    for w, v in source.edges:
        edges.append((second[w], third[v]))
        edges.append((third[w], second[v]))
    for w in range(n):
        for v in range(w + 1, n):
            edges.append((third[w], third[v]))
    target = Graph(3 * n, edges)
    weights = [0] * (3 * n)
    for v in range(n):
        weights[first[v]] = 1
        weights[second[v]] = 2
        weights[third[v]] = 2 * n
    part = sat_partition(target, third, first + second)
    layer = tuple((first[v], second[v], third[v]) for v in range(n))
    return WidReduction(source, WeightedGraph(target, tuple(weights)), layer, part)


def oracle_substitute_with_map(
    host: Graph, slot: int, plug: Graph
) -> tuple[Graph, tuple[int, ...], dict[int, int]]:
    if not (0 <= slot < host.n):
        raise ValueError(f"slot {slot} out of range")
    outer = [v for v in range(host.n) if v != slot]
    outer_map = {old: i for i, old in enumerate(outer)}
    base = host.n - 1
    copy_ids = tuple(range(base, base + plug.n))
    edges = [(outer_map[u], outer_map[v]) for (u, v) in host.edges if u != slot and v != slot]
    edges.extend((base + u, base + v) for (u, v) in plug.edges)
    for u in host.neighborhood(slot):
        for c in copy_ids:
            edges.append((outer_map[u], c))
    return Graph(base + plug.n, edges), copy_ids, outer_map


def oracle_induced_subgraph(g: Graph, vertices) -> tuple[Graph, dict[int, int]]:
    kept = sorted(set(vertices))
    if kept and not (0 <= kept[0] and kept[-1] < g.n):
        raise ValueError("vertex out of range")
    remap = {old: new for new, old in enumerate(kept)}
    edges = [(remap[u], remap[v]) for u, v in g.edges if u in remap and v in remap]
    return Graph(len(kept), edges), remap


def oracle_sat_random(
    size_a: int, match_b: int, p_ab: float, seed: int
) -> tuple[Graph, SatPartition]:
    rng = random.Random(seed)
    a = list(range(size_a))
    n = size_a + 2 * match_b
    edges = [(u, v) for u in a for v in a if u < v]
    pairs = [(size_a + 2 * i, size_a + 2 * i + 1) for i in range(match_b)]
    edges.extend(pairs)
    adjacency: set[tuple[int, int]] = set()
    for u in a:
        for x, y in pairs:
            for b_vertex, partner in ((x, y), (y, x)):
                if (u, partner) in adjacency:
                    continue
                if rng.random() < p_ab:
                    edges.append((u, b_vertex))
                    adjacency.add((u, b_vertex))
    g = Graph(n, edges)
    return g, sat_partition(g, a, range(size_a, n))


def _outcome(build, *args):
    try:
        return build(*args)
    except ValueError as exc:
        return str(exc)


# -- the builders against their oracles ---------------------------------------


def _sat_params(rng: random.Random) -> tuple[int, int, float, int]:
    size_a, match_b = rng.randint(0, 9), rng.randint(0, 8)
    return size_a, match_b, rng.choice((0.0, 0.2, 0.5, 1.0)), rng.randrange(10**6)


def test_sat_random_matches_the_edge_builder():
    rng = random.Random(2101)
    for _ in range(150):
        params = _sat_params(rng)
        assert sat_random(*params) == oracle_sat_random(*params), params
    assert sat_random(20, 20, 0.3, 5) == oracle_sat_random(20, 20, 0.3, 5)


def test_gamma_steps_match_the_edge_builder():
    rng = random.Random(2102)
    for _ in range(150):
        g, part = sat_random(*_sat_params(rng))
        todo = ab_edges(g, part)
        rng.shuffle(todo)
        todo = todo[: rng.randint(0, len(todo))]
        if todo and rng.random() < 0.2:  # a repeated step finds its edge gone
            todo.append(todo[0])
        if rng.random() < 0.1:  # a pair that is no A-B edge at all
            todo.insert(rng.randint(0, len(todo)), (rng.randint(-1, g.n), rng.randint(-1, g.n)))
        assert _outcome(_apply_gamma, g, part, todo) == _outcome(oracle_apply_gamma, g, part, todo)
    g, part = sat_random(12, 12, 0.3, 5)
    todo = ab_edges(g, part)
    assert _apply_gamma(g, part, todo) == oracle_apply_gamma(g, part, todo)


def test_wid_reduction_matches_the_edge_builder():
    rng = random.Random(2103)
    for _ in range(150):
        source = gnp(rng.randint(0, 14), rng.choice((0.0, 0.1, 0.3, 0.6, 1.0)), rng)
        assert build_wid_reduction(source) == oracle_build_wid_reduction(source)
    source = gnp(60, 0.2, rng)
    assert build_wid_reduction(source) == oracle_build_wid_reduction(source)


def test_substitution_matches_the_edge_builder():
    rng = random.Random(2104)
    for _ in range(200):
        host = gnp(rng.randint(0, 10), rng.choice((0.0, 0.3, 0.7, 1.0)), rng)
        plug = gnp(rng.randint(0, 8), rng.choice((0.0, 0.3, 0.7, 1.0)), rng)
        slot = rng.randint(-1, host.n)  # out of range at either end now and then
        want = _outcome(oracle_substitute_with_map, host, slot, plug)
        assert _outcome(substitute_with_map, host, slot, plug) == want
        if not isinstance(want, str):
            assert substitute(host, slot, plug) == want[0]
    host, plug = gnp(80, 0.4, rng), gnp(70, 0.4, rng)
    assert substitute_with_map(host, 33, plug) == oracle_substitute_with_map(host, 33, plug)


def test_induced_subgraph_matches_the_edge_builder():
    rng = random.Random(2105)
    for _ in range(200):
        g = gnp(rng.randint(0, 14), rng.choice((0.0, 0.3, 0.7, 1.0)), rng)
        kept = [rng.randrange(g.n) for _ in range(rng.randint(0, 2 * g.n))] if g.n else []
        if rng.random() < 0.1:  # a vertex out of range
            kept.append(rng.choice((-1, g.n)))
        assert _outcome(induced_subgraph, g, kept) == _outcome(oracle_induced_subgraph, g, kept)
    g = gnp(1500, 0.05, rng)  # masks longer than 1,024 bits
    kept = rng.sample(range(g.n), 900)
    assert induced_subgraph(g, kept) == oracle_induced_subgraph(g, kept)


# -- command-line outputs, pinned ----------------------------------------------

# sha256 of each output below, computed with the edge-tuple builders
PINNED = {
    "gen sat": "3012b64f34f570134a9468a545c1d425b87c2de21cc246d2eb5ea4308806eaa4",
    "gen substitution": "0db776b296e54d24c537bd1209299eb7a8cc2535e34180b800cd673e2c60b71e",
    "reduce wid": "212c740d9063a28cdc98c4ef35982abff0242575809faa0c9100afae213fecaa",
    "reduce star": "1b58749b5d66eef627387b51621234139dd7064bc773f3b8d78fc098bae72d66",
}


def _folder_digest(folder: Path) -> str:
    digest = hashlib.sha256()
    for f in sorted(folder.iterdir()):
        digest.update(f.name.encode() + b"\n" + f.read_bytes())
    return digest.hexdigest()


def _run(capsys, *argv) -> str:
    assert main([str(a) for a in argv]) == 0
    return capsys.readouterr().out


def test_cli_outputs_are_pinned(tmp_path, capsys):
    sat, sub, gnps = tmp_path / "sat", tmp_path / "sub", tmp_path / "gnp"
    _run(capsys, "gen", "--kind", "sat", "--size-a", 12, "--match-b", 10, "--p-ab", 0.3,
         "--seed", 42, "--count", 3, "--out", sat)
    _run(capsys, "gen", "--kind", "substitution", "--n", 8, "--p", 0.3, "--seed", 42,
         "--count", 3, "--out", sub)
    _run(capsys, "gen", "--kind", "gnp", "--n", 14, "--p", 0.3, "--seed", 42, "--out", gnps)
    entry = json.loads((sat / "manifest.json").read_text())["graphs"][0]
    (tmp_path / "part.json").write_text(json.dumps(entry["partition"]))
    got = {
        "gen sat": _folder_digest(sat),
        "gen substitution": _folder_digest(sub),
        "reduce wid": _run(capsys, "reduce", gnps / "g0000.graph", "--wid"),
        "reduce star": _run(
            capsys, "reduce", sat / "g0000.graph", "--star", "--partition", tmp_path / "part.json"
        ),
    }
    for key in ("reduce wid", "reduce star"):
        got[key] = hashlib.sha256(got[key].encode()).hexdigest()
    assert got == PINNED
