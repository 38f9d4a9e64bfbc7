"""Command line front end.

Subcommands: solve, reduce, tree, recognize, check, gen.
Results go to stdout as JSON (or GraphFile text for reduce/gen);
diagnostics go to stderr.  Exit codes:

0  ok
1  check suite failed
2  bad input: unreadable file, malformed graph, flag value out of range
3  graph outside the solvable class
4  size bound of an exhaustive search (oracle, sat-partition search)
5  invalid or missing partition
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import random
import sys
import time
from pathlib import Path

from .decomposition import NotInClassError, build_tree, tree_to_dot, tree_to_json_text
from .generators import (
    GenerationBudgetError,
    gnp,
    gnp_filtered,
    graph_hash,
    named,
    sat_random,
    substitute,
)
from .graph import Graph, WeightedGraph, unit_weights
from .hardness import build_wid_reduction, check_reduction_class, check_reduction_equivalence
from .io import (
    GraphFormatError,
    PartitionError,
    emit_graph,
    parse_dimacs,
    parse_graph,
    parse_graph_file,
    parse_partition_file,
    read_text,
)
from .oracle import OracleBoundError, oracle_constrained, oracle_id
from .patterns import C4, C5, C6, CO_P5, DOMINO, P5, SUN3, find_induced, is_free
from .satgraph import (
    ab_edges,
    check_gstar_properties,
    check_obs1,
    find_sat_partition,
    gamma_transform,
    sat_partition,
    star_transform,
)
from .solver import solve_constrained, solve_naive_eq1, solve_wid


def _load(args) -> tuple[Graph | WeightedGraph, str]:
    text, data = read_text(args.file)
    g = parse_dimacs(text) if args.dimacs else parse_graph(text)
    return g, hashlib.sha256(data).hexdigest()


def _as_weighted(g: Graph | WeightedGraph, force_unit: bool) -> WeightedGraph:
    if isinstance(g, WeightedGraph):
        return unit_weights(g.graph) if force_unit else g
    return unit_weights(g)


def _base(g: Graph | WeightedGraph) -> Graph:
    return g.graph if isinstance(g, WeightedGraph) else g


def _parse_demands(raw_lists, n: int) -> tuple[frozenset[int], ...]:
    out = []
    for raw in raw_lists or ():
        try:
            out.append(frozenset(int(tok) for tok in raw.split(",") if tok.strip()))
        except ValueError:
            raise GraphFormatError(f"bad demand list {raw!r}") from None
        if not out[-1]:
            raise GraphFormatError(f"empty demand list {raw!r}")
        for v in sorted(out[-1]):
            if not 0 <= v < n:
                raise GraphFormatError(f"--demand {raw!r}: vertex {v} out of range for n={n}")
    return tuple(out)


def _emit_record(record: dict) -> None:
    print(json.dumps(record, sort_keys=True))


def _cmd_solve(args) -> int:
    g, digest = _load(args)
    wg = _as_weighted(g, args.unit_weights)
    demands = _parse_demands(args.demand, wg.n)
    if args.pin is not None and not 0 <= args.pin < wg.n:
        raise GraphFormatError(f"--pin {args.pin}: vertex out of range for n={wg.n}")
    record = {
        "command": "solve",
        "input_hash": digest,
        "mode": args.mode,
        "n": wg.n,
    }
    start = time.perf_counter()
    if args.mode == "naive":
        if demands:
            print("error: naive mode does not take --demand", file=sys.stderr)
            return 2
        rep = solve_naive_eq1(wg, pin=args.pin)
        record.update(
            feasible=True,
            value=rep.value,
            witness=sorted(rep.witness),
            witness_is_mis=rep.witness_is_mis,
            witness_weight=wg.weight_of(rep.witness),
        )
    else:
        if args.mode == "sound":
            sol = solve_constrained(wg, demands)
            value, witness = (sol.weight, sol.vertices) if sol else (None, None)
        else:
            rep = oracle_constrained(wg, demands, bound=args.bound)
            value, witness = (rep.value, rep.witness) if rep else (None, None)
        if witness is not None:
            base = wg.graph
            assert base.is_maximal_independent(witness)
            assert all(witness & h for h in demands)
            assert wg.weight_of(witness) == value
        record.update(
            feasible=witness is not None,
            value=value,
            witness=sorted(witness) if witness is not None else None,
        )
    record["runtime_ms"] = round((time.perf_counter() - start) * 1000.0, 3)
    _emit_record(record)
    return 0


def _obtain_partition(g: Graph, args):
    if args.partition:
        a, b = parse_partition_file(args.partition, g.n)
        try:
            return sat_partition(g, a, b)
        except ValueError as exc:
            raise PartitionError(str(exc)) from None
    part = find_sat_partition(g)
    if part is None:
        raise PartitionError("input admits no valid clique/matched split")
    return part


def _cmd_reduce(args) -> int:
    g, digest = _load(args)
    base = _base(g)
    meta: dict = {"source_hash": digest, "source_n": base.n}
    if args.wid:
        red = build_wid_reduction(base)
        meta.update(
            construction="wid",
            a_side=sorted(red.partition.a),
            layer_map=[list(t) for t in red.layer_map],
        )
        sys.stdout.write(emit_graph(red.target, meta=meta))
        return 0
    part = _obtain_partition(base, args)
    if args.gamma is not None:
        a, b = args.gamma
        try:
            res = gamma_transform(base, part, a, b)
        except ValueError as exc:
            raise PartitionError(str(exc)) from None
        meta.update(
            construction="gamma",
            edge=[a, b],
            new_vertices=[res.v, res.x, res.y],
            a_side=sorted(res.partition.a),
        )
        sys.stdout.write(emit_graph(res.graph, meta=meta))
        return 0
    res = star_transform(base, part)
    meta.update(
        construction="star",
        applied_edges=[list(e) for e in res.applied_edges],
        a_side=sorted(res.partition.a),
        alpha_new=sorted(res.markers.alpha_new),
        beta_new=sorted(res.markers.beta_new),
    )
    sys.stdout.write(emit_graph(res.graph, meta=meta))
    return 0


def _cmd_tree(args) -> int:
    g, _ = _load(args)
    tree = build_tree(_base(g))
    if args.dot:
        sys.stdout.write(tree_to_dot(tree))
    else:
        print(tree_to_json_text(tree))
    return 0


def _occ_json(occ) -> dict | None:
    if occ is None:
        return None
    return {"pattern": occ.pattern_name, "vertices": sorted(occ.vertices)}


def _cmd_recognize(args) -> int:
    g, digest = _load(args)
    base = _base(g)
    record: dict = {"command": "recognize", "cls": args.cls, "input_hash": digest}
    if args.cls == "p5cop5":
        occ = find_induced(base, P5) or find_induced(base, CO_P5)
        record["member"] = occ is None
        record["obstruction"] = _occ_json(occ)
    elif args.cls == "sat":
        part = find_sat_partition(base)
        record["member"] = part is not None
        record["partition"] = (
            {"A": sorted(part.a), "B": sorted(part.b)} if part else None
        )
    else:
        found = {}
        for pat in (DOMINO, SUN3, C4, C5, C6, P5, CO_P5):
            found[pat.name] = _occ_json(find_induced(base, pat))
        record["occurrences"] = found
    _emit_record(record)
    return 0


def _corpus_entries(manifest_path: str):
    root = Path(manifest_path).parent
    try:
        manifest = json.loads(read_text(manifest_path)[0])
    except json.JSONDecodeError as exc:
        raise GraphFormatError(
            f"{manifest_path}: line {exc.lineno}: not valid JSON ({exc.msg})"
        ) from None
    graphs = manifest.get("graphs") if isinstance(manifest, dict) else None
    if not isinstance(graphs, list):
        raise GraphFormatError(f'{manifest_path}: expected an object with a "graphs" list')
    for i, entry in enumerate(graphs):
        if not isinstance(entry, dict) or not isinstance(entry.get("file"), str):
            raise GraphFormatError(f'{manifest_path}: graphs[{i}] has no "file" name')
        yield entry, parse_graph_file(root / entry["file"])


def _entry_partition(entry, g: Graph):
    if "partition" not in entry:
        raise PartitionError(f"{entry['file']}: manifest has no partition")
    a = frozenset(entry["partition"]["A"])
    return sat_partition(g, a, frozenset(range(g.n)) - a)


def _check_one(suite: str, entry, g: Graph | WeightedGraph) -> str | None:
    base = _base(g)
    if suite == "obs1":
        return check_obs1(base, _entry_partition(entry, base))
    if suite == "obs2":
        part = _entry_partition(entry, base)
        got = oracle_id(base).value
        if not part.s <= got <= part.s + 1:
            return f"size {got} outside [{part.s}, {part.s + 1}]"
        return None
    if suite == "lemma1":
        part = _entry_partition(entry, base)
        before = oracle_id(base).value
        for a, b in ab_edges(base, part):
            res = gamma_transform(base, part, a, b)
            after = oracle_id(res.graph).value
            if after != before + 1:
                return f"edge ({a},{b}): size went {before} -> {after}"
        return None
    if suite == "lemma2":
        part = _entry_partition(entry, base)
        res = star_transform(base, part)
        for pat in (DOMINO, SUN3):
            occ = find_induced(res.graph, pat)
            if occ is not None:
                return f"output contains {pat.name} at {sorted(occ.vertices)}"
        return check_gstar_properties(res.graph, res.partition, res.markers)
    if suite == "thm1":
        red = build_wid_reduction(base)
        cls = check_reduction_class(red)
        if not cls.ok:
            return f"class guarantees failed: {cls}"
        eq = check_reduction_equivalence(base, bound=max(30, 3 * base.n))
        if not eq.equal:
            return f"target optimum {eq.idw_target.value} != n + {eq.gamma_dom.value}"
        return None
    if suite == "lemma6":
        from .decomposition import is_prime
        from .patterns import find_antisimplicial, is_c5

        if not is_free(base, (P5, CO_P5)):
            return None
        if base.is_complete() or not is_prime(base):
            return None
        if is_c5(base) or find_antisimplicial(base) is not None:
            return None
        return "prime, not complete, yet no edgeless-antineighborhood vertex"
    if suite == "solver":
        wg = _as_weighted(g, force_unit=False)
        got = solve_wid(wg)
        want = oracle_constrained(wg, ())
        if got.weight != want.value or got.vertices != want.witness:
            return (
                f"solver ({got.weight}, {sorted(got.vertices)}) != "
                f"oracle ({want.value}, {sorted(want.witness)})"
            )
        return None
    raise AssertionError(suite)


def _cmd_check(args) -> int:
    failures = 0
    total = 0
    for entry, g in _corpus_entries(args.corpus):
        total += 1
        try:
            problem = _check_one(args.suite, entry, g)
        except NotInClassError as exc:
            problem = str(exc)
        if problem is not None:
            failures += 1
            print(f"FAIL {entry['file']}: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "command": "check",
                "suite": args.suite,
                "graphs": total,
                "failures": failures,
            },
            sort_keys=True,
        )
    )
    return 0 if failures == 0 else 1


def _gen_graphs(args) -> list[tuple[Graph, dict]]:
    rng = random.Random(args.seed)
    out: list[tuple[Graph, dict]] = []
    if args.kind == "named":
        if not args.name:
            raise GraphFormatError("--kind named requires --name")
        try:
            g = named(args.name)
        except ValueError as exc:
            raise GraphFormatError(f"--name: {exc}") from None
        out.append((g, {"name": args.name}))
    elif args.kind == "gnp":
        if args.free:
            graphs = gnp_filtered(args.n, args.p, (P5, CO_P5), args.seed, args.count)
        else:
            graphs = [gnp(args.n, args.p, rng) for _ in range(args.count)]
        out.extend((g, {}) for g in graphs)
    elif args.kind == "sat":
        for i in range(args.count):
            g, part = sat_random(args.size_a, args.match_b, args.p_ab, args.seed + i)
            out.append((g, {"partition": {"A": sorted(part.a), "B": sorted(part.b)}}))
    else:
        if args.n < 1:
            raise GraphFormatError("--kind substitution needs --n >= 1")
        hosts = gnp_filtered(args.n, args.p, (P5, CO_P5), args.seed, args.count)
        plugs = gnp_filtered(
            max(2, args.n // 2), args.p, (P5, CO_P5), args.seed + 1, args.count
        )
        for host, plug in zip(hosts, plugs):
            slot = rng.randrange(host.n)
            out.append((substitute(host, slot, plug), {"slot": slot}))
    return out


def _cmd_gen(args) -> int:
    try:
        produced = _gen_graphs(args)
    except GenerationBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(args.seed ^ 0x5EED)
    entries = []
    for i, (g, extra) in enumerate(produced):
        payload: Graph | WeightedGraph = g
        if args.weights:
            lo, hi = args.weights
            payload = WeightedGraph(g, tuple(rng.randint(lo, hi) for _ in range(g.n)))
        name = f"g{i:04d}.graph"
        (out_dir / name).write_text(emit_graph(payload))
        entry = {"file": name, "hash": graph_hash(g), "n": g.n, "m": len(g.edges)}
        entry.update(extra)
        entries.append(entry)
    manifest = {
        "kind": args.kind,
        "seed": args.seed,
        "count": len(entries),
        "graphs": entries,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    print(json.dumps({"command": "gen", "out": str(out_dir), "count": len(entries)}))
    return 0


def _count(text: str) -> int:
    """argparse type: a nonnegative integer."""
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")


def _weight_range(text: str) -> tuple[int, int]:
    """argparse type: MIN:MAX integers with MIN <= MAX."""
    lo, sep, hi = text.partition(":")
    try:
        if sep and int(lo) <= int(hi):
            return int(lo), int(hi)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected MIN:MAX integers with MIN <= MAX, got {text!r}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="widom",
        description="Minimum-weight maximal independent set tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="optimize over maximal independent sets")
    p.add_argument("file")
    p.add_argument("--mode", choices=("sound", "naive", "oracle"), default="sound")
    p.add_argument("--demand", action="append", metavar="V1,V2,...",
                   help="require the answer to hit this vertex list (repeatable)")
    p.add_argument("--unit-weights", action="store_true")
    p.add_argument("--dimacs", action="store_true")
    p.add_argument("--bound", type=int, default=25, help="oracle size cutoff")
    p.add_argument("--pin", type=int, default=None,
                   help="naive mode: branch on this vertex at the root")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("reduce", help="build a transformed instance")
    p.add_argument("file")
    kind = p.add_mutually_exclusive_group(required=True)
    kind.add_argument("--wid", action="store_true",
                      help="weighted instance whose optimum encodes domination")
    kind.add_argument("--gamma", nargs=2, type=int, metavar=("A", "B"),
                      help="single edge replacement step")
    kind.add_argument("--star", action="store_true",
                      help="apply the edge replacement to every original cross edge")
    p.add_argument("--partition", help="JSON file with the A side")
    p.add_argument("--dimacs", action="store_true")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("tree", help="print the decomposition tree")
    p.add_argument("file")
    p.add_argument("--dot", action="store_true")
    p.add_argument("--dimacs", action="store_true")
    p.set_defaults(func=_cmd_tree)

    p = sub.add_parser("recognize", help="class membership and obstructions")
    p.add_argument("file")
    p.add_argument("--cls", choices=("p5cop5", "sat", "patterns"), default="p5cop5")
    p.add_argument("--dimacs", action="store_true")
    p.set_defaults(func=_cmd_recognize)

    p = sub.add_parser("check", help="run a structural suite over a corpus")
    p.add_argument("--suite", required=True,
                   choices=("obs1", "obs2", "lemma1", "lemma2", "thm1", "lemma6", "solver"))
    p.add_argument("--corpus", required=True, help="path to manifest.json")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("gen", help="write a graph corpus with a manifest")
    p.add_argument("--kind", choices=("named", "gnp", "sat", "substitution"),
                   required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=_count, default=1)
    p.add_argument("--out", required=True)
    p.add_argument("--name", help="graph name for --kind named, e.g. C5 or domino")
    p.add_argument("--n", type=_count, default=8)
    p.add_argument("--p", type=float, default=0.3)
    p.add_argument("--free", action="store_true",
                   help="gnp: keep only graphs with neither P5 nor its complement")
    p.add_argument("--size-a", type=_count, default=4)
    p.add_argument("--match-b", type=_count, default=3)
    p.add_argument("--p-ab", type=float, default=0.4)
    p.add_argument("--weights", type=_weight_range, metavar="MIN:MAX",
                   help="attach seeded random integer weights")
    p.set_defaults(func=_cmd_gen)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GraphFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotInClassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OracleBoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except PartitionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
