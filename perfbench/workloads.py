"""Seeded inputs and the fixed operation list of each workload.

Every input is built here from the workload seed, by generators written
apart from widom, and reaches the program only as GraphFile text (or
argv and files, for the CLI).  Each pass of a run presents the same
instances under its own seeded vertex relabelling, derived from the
seed and the pass number alone, so no result can be reused across
passes and the relabellings are the same on every commit.
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path

import reference as ref
from reference import CheckError, require

SPLIT_LADDER = (16, 18, 20)
SPLIT_PER_SIZE = 100
MODULAR_LADDER = (40, 60, 80, 100, 120)
MODULAR_PER_SIZE = 12
CLI_ROUNDS = 3  # copies of the well-formed part of the cli list, each freshly drawn


@dataclass(frozen=True)
class Inst:
    """A graph plus what its construction says about it."""

    n: int
    edges: tuple[tuple[int, int], ...]
    weights: tuple[int, ...] | None = None
    clique: tuple[int, ...] = ()  # split graphs: the clique side
    cotree: object = None  # cographs: int leaf or (op, left, right)
    a_side: tuple[int, ...] = ()  # sat-graphs: the clique side A
    member: bool | None = None  # class membership by construction

    def relabel(self, perm: list[int]) -> "Inst":
        weights = None
        if self.weights is not None:
            w = [0] * self.n
            for v, x in enumerate(self.weights):
                w[perm[v]] = x
            weights = tuple(w)
        return replace(
            self,
            edges=tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in self.edges)),
            weights=weights,
            clique=tuple(sorted(perm[v] for v in self.clique)),
            cotree=_map_tree(self.cotree, perm),
            a_side=tuple(sorted(perm[v] for v in self.a_side)),
        )

    def text(self) -> str:
        return ref.emit_text(self.n, self.edges, self.weights)

    def adj(self) -> list[int]:
        return ref.adjacency(self.n, self.edges)

    def unit(self) -> tuple[int, ...]:
        return self.weights if self.weights is not None else (1,) * self.n


def _map_tree(tree, perm):
    if tree is None:
        return None
    if isinstance(tree, int):
        return perm[tree]
    return (tree[0], _map_tree(tree[1], perm), _map_tree(tree[2], perm))


def permutation(workload: str, seed: int, pass_no: int, op_no: int, n: int) -> list[int]:
    perm = list(range(n))
    random.Random(f"{workload}/{seed}/pass{pass_no}/op{op_no}").shuffle(perm)
    return perm


# -- generators -----------------------------------------------------------------


def _weights(rng: random.Random, n: int) -> tuple[int, ...]:
    return tuple(rng.randint(1, 100) for _ in range(n))


def split_graph(rng: random.Random, n: int, weighted: bool = True) -> Inst:
    """Clique on the first n//2 vertices; each clique-independent pair is an edge w.p. 1/2."""
    k = n // 2
    edges = [(u, v) for u in range(k) for v in range(u + 1, k)]
    edges += [(c, i) for i in range(k, n) for c in range(k) if rng.random() < 0.5]
    return Inst(n, tuple(edges), _weights(rng, n) if weighted else None,
                clique=tuple(range(k)), member=True)


def _from_cotree(n: int, tree) -> tuple[tuple[int, int], ...]:
    edges = []

    def leaves(t):
        return [t] if isinstance(t, int) else leaves(t[1]) + leaves(t[2])

    stack = [tree]
    while stack:
        t = stack.pop()
        if isinstance(t, int):
            continue
        if t[0] == "join":
            edges.extend((u, v) for u in leaves(t[1]) for v in leaves(t[2]))
        stack.extend((t[1], t[2]))
    return tuple(edges)


def threshold_graph(rng: random.Random, n: int) -> Inst:
    """Vertices added one by one, each isolated or dominating w.p. 1/2."""
    tree = 0
    for v in range(1, n):
        tree = ("join" if rng.random() < 0.5 else "union", tree, v)
    return Inst(n, _from_cotree(n, tree), _weights(rng, n), cotree=tree, member=True)


def _random_cotree(rng: random.Random, vertices: list[int], op: str):
    if len(vertices) == 1:
        return vertices[0]
    parts = min(len(vertices), rng.randint(2, 4))
    cuts = sorted(rng.sample(range(1, len(vertices)), parts - 1))
    bounds = list(zip([0] + cuts, cuts + [len(vertices)]))
    other = "union" if op == "join" else "join"
    subtrees = [_random_cotree(rng, vertices[a:b], other) for a, b in bounds]
    tree = subtrees[0]
    for sub in subtrees[1:]:
        tree = (op, tree, sub)
    return tree


def cograph(rng: random.Random, n: int, weighted: bool = True) -> Inst:
    """Random canonical cotree: labels alternate by depth, and every internal
    node has 2 to 4 children of random sizes.  (Long runs of one label, the
    other extreme, are what the threshold graphs bring.)"""
    tree = _random_cotree(rng, list(range(n)), rng.choice(("union", "join")))
    return Inst(n, _from_cotree(n, tree), _weights(rng, n) if weighted else None,
                cotree=tree, member=True)


def sat_graph(rng: random.Random, size_a: int, pairs: int, p: float = 0.4) -> Inst:
    """Clique A = 0..size_a-1 plus matched pairs; cross edges w.p. p, never
    letting an A-vertex see both ends of one pair."""
    a = list(range(size_a))
    edges = [(u, v) for u in a for v in a if u < v]
    pair_list = [(size_a + 2 * i, size_a + 2 * i + 1) for i in range(pairs)]
    edges += pair_list
    for u in a:
        for x, y in pair_list:
            side = rng.random()
            if side < p / 2:
                edges.append((u, x))
            elif side < p:
                edges.append((u, y))
    return Inst(size_a + 2 * pairs, tuple(edges), a_side=tuple(a), member=True)


def disjoint_union(g: Inst, h_n: int, h_edges) -> Inst:
    shifted = tuple((u + g.n, v + g.n) for u, v in h_edges)
    return Inst(g.n + h_n, g.edges + shifted)


def join(g: Inst, h_n: int, h_edges) -> Inst:
    shifted = tuple((u + g.n, v + g.n) for u, v in h_edges)
    across = tuple((u, g.n + v) for u in range(g.n) for v in range(h_n))
    return Inst(g.n + h_n, g.edges + shifted + across)


def gnp_source(rng: random.Random, n: int, p: float) -> Inst:
    return Inst(n, tuple((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p))


# -- operations -----------------------------------------------------------------


@dataclass
class Op:
    kind: str  # the op type, as reported in the share table
    label: str
    inst: Inst | None = None
    demands: tuple[tuple[int, ...], ...] = ()
    argv: tuple[str, ...] = ()  # cli ops: options besides the input (malformed: whole argv)
    expect_rc: int = 0
    facts: set = field(default_factory=set)  # label-free results seen, one per pass
    kept: object = None  # first pass's output, for the checks made after the run


def library_ops(workload: str, seed: int) -> list[Op]:
    rng = random.Random(f"{workload}/{seed}")
    ops = []
    if workload == "split":
        for n in SPLIT_LADDER:
            for _ in range(SPLIT_PER_SIZE):
                ops.append(Op(f"split n={n}", f"split n={n}", split_graph(rng, n)))
    else:
        for n in MODULAR_LADDER:
            for _ in range(MODULAR_PER_SIZE):
                ops.append(Op(f"threshold n={n}", f"threshold n={n}", threshold_graph(rng, n)))
                ops.append(Op(f"cograph n={n}", f"cograph n={n}", cograph(rng, n)))
    return ops


def check_library(op: Op, inst: Inst, sol) -> None:
    witness = sorted(sol.vertices)
    ref.check_witness(inst.adj(), inst.n, inst.weights, witness, sol.weight)
    op.facts.add(sol.weight)


def final_library(op: Op) -> None:
    inst = op.inst
    if inst.clique:
        want = ref.split_optimum(inst.adj(), inst.n, inst.weights, inst.clique)
    else:
        want = ref.cotree_optimum(inst.cotree, inst.weights)
    require(op.facts == {want}, f"{op.label}: values {sorted(op.facts)} != reference {want}")


# -- the cli workload -------------------------------------------------------------

C5_EDGES = tuple((i, (i + 1) % 5) for i in range(5))
P5_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4))
CO_P5_EDGES = tuple((u, v) for u in range(5) for v in range(u + 1, 5) if v - u != 1)

# Seven malformed inputs whose documented exit is 2 (bad input).  The
# files do not depend on the seed.
MALFORMED = (
    ("demand out of range", ("solve", "{tri}", "--demand", "7")),
    ("pin out of range", ("solve", "{tri}", "--mode", "naive", "--pin", "9")),
    ("non-UTF-8 input", ("solve", "{latin}")),
    ("bad DIMACS header", ("solve", "{dimacs}", "--dimacs")),
    ("negative gen --n", ("gen", "--kind", "gnp", "--n", "-3", "--out", "{scratch}")),
    ("gen --weights without a colon", ("gen", "--kind", "gnp", "--n", "4", "--weights", "5",
                                       "--out", "{scratch}")),
    ("directory as FILE", ("solve", "{folder}")),
)


def cli_ops(seed: int) -> list[Op]:
    """Many small operations per pass, so that one seed's draw of hard and
    easy instances moves the pass total little."""
    rng = random.Random(f"cli/{seed}")
    ops = []
    for _ in range(CLI_ROUNDS):
        ops.extend(_cli_round(rng))
    for label, argv in MALFORMED:
        ops.append(Op("malformed input", label, argv=argv, expect_rc=2))
    return ops


def _cli_round(rng: random.Random) -> list[Op]:
    ops = []
    for n in (16, 18):
        for k in (1, 2, 3):
            for _ in range(3):
                demands = tuple(tuple(sorted(rng.sample(range(n), 3))) for _ in range(k))
                ops.append(Op("solve --demand", f"solve --demand x{k} split n={n}",
                              split_graph(rng, n), demands))
    for n in (16, 17, 18, 18):
        ops.append(Op("solve --mode oracle", f"solve --mode oracle cograph n={n}",
                      cograph(rng, n), argv=("--mode", "oracle")))
    for _ in range(4):
        ops.append(Op("recognize --cls p5cop5", "recognize p5cop5 cograph n=20",
                      cograph(rng, 20, weighted=False), argv=("--cls", "p5cop5")))
    for _ in range(2):
        ops.append(Op("recognize --cls p5cop5", "recognize p5cop5 cograph+P5 n=20",
                      replace(disjoint_union(cograph(rng, 15, weighted=False), 5, P5_EDGES),
                              member=False), argv=("--cls", "p5cop5")))
        ops.append(Op("recognize --cls p5cop5", "recognize p5cop5 cograph*coP5 n=20",
                      replace(join(cograph(rng, 15, weighted=False), 5, CO_P5_EDGES), member=False),
                      argv=("--cls", "p5cop5")))
    for _ in range(3):
        ops.append(Op("recognize --cls sat", "recognize sat n=10", sat_graph(rng, 4, 3),
                      argv=("--cls", "sat")))
    for _ in range(2):
        ops.append(Op("recognize --cls sat", "recognize sat+C5 n=14",
                      replace(disjoint_union(sat_graph(rng, 3, 3), 5, C5_EDGES), member=False),
                      argv=("--cls", "sat")))
    for _ in range(4):
        ops.append(Op("recognize --cls patterns", "recognize patterns sat n=12",
                      sat_graph(rng, 4, 4), argv=("--cls", "patterns")))
    for _ in range(3):
        ops.append(Op("reduce --star", "reduce --star sat n=10", sat_graph(rng, 4, 3)))
    for n in (6, 7):
        ops.append(Op("reduce --wid", f"reduce --wid gnp n={n}", gnp_source(rng, n, 0.35),
                      argv=("--wid",)))
    for _ in range(2):
        ops.append(Op("tree", "tree cograph n=40", cograph(rng, 40, weighted=False)))
        ops.append(Op("tree", "tree threshold n=40", replace(threshold_graph(rng, 40), weights=None)))
    ops.append(Op("gen --kind sat", "gen --kind sat count=3",
                  argv=("--kind", "sat", "--count", "3", "--size-a", "5", "--match-b", "4")))
    return ops


def write_fixed_inputs(root: Path) -> dict[str, str]:
    """The seed-independent files the malformed operations name."""
    root.mkdir(parents=True, exist_ok=True)
    (root / "tri.graph").write_text("3 2\n0 1\n1 2\n")
    (root / "latin.graph").write_bytes(b"3 1\n0 1\n# caf\xe9\n")
    (root / "bad.dimacs").write_text("p edge x 3\ne 1 2\n")
    (root / "folder").mkdir(exist_ok=True)
    return {
        "tri": str(root / "tri.graph"),
        "latin": str(root / "latin.graph"),
        "dimacs": str(root / "bad.dimacs"),
        "folder": str(root / "folder"),
        "scratch": str(root / "gen-scratch"),
    }


def cli_argv(op: Op, inst: Inst | None, demands, where: Path, i: int, pass_no: int,
             seed: int, fixed: dict[str, str]) -> list[str]:
    """Write this pass's input files for ``op`` and return its argv."""
    if op.kind == "malformed input":
        return [a.format(**fixed) for a in op.argv]
    if op.kind == "gen --kind sat":
        gen_seed = random.Random(f"cli/{seed}/pass{pass_no}/gen").randrange(1 << 30)
        return ["gen", *op.argv, "--seed", str(gen_seed), "--out", str(where / f"gen{i}")]
    path = where / f"op{i}.graph"
    path.write_text(inst.text())
    if op.kind == "solve --demand":
        args = [x for d in demands for x in ("--demand", ",".join(map(str, d)))]
        return ["solve", str(path), *args]
    if op.kind == "reduce --star":
        part = where / f"op{i}.part.json"
        part.write_text(json.dumps({"A": list(inst.a_side)}))
        return ["reduce", str(path), "--star", "--partition", str(part)]
    command = op.kind.split()[0]
    return [command, str(path), *op.argv]


def _record(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


def _check_occurrence(adj, occ, allowed) -> None:
    if occ is None:
        return
    require(occ["pattern"] in allowed, f"unexpected pattern {occ['pattern']}")
    require(ref.is_induced_copy(adj, occ["vertices"], occ["pattern"]),
            f"{occ['vertices']} is not an induced {occ['pattern']}")


def check_cli(op: Op, inst: Inst | None, demands, out: str, where: Path, i: int) -> object:
    """Check one output against the properties its command promises.

    Returns what the first pass keeps for the checks made after the run.
    """
    kind = op.kind
    if kind == "malformed input":
        return None
    if kind in ("solve --demand", "solve --mode oracle"):
        rec = _record(out)
        if rec["feasible"]:
            ref.check_witness(inst.adj(), inst.n, inst.unit(), rec["witness"], rec["value"], demands)
        else:
            require(rec["value"] is None and rec["witness"] is None, "infeasible record carries a value")
        op.facts.add(rec["value"])
        return None
    if kind == "recognize --cls p5cop5":
        rec = _record(out)
        require(rec["member"] == inst.member, f"{op.label}: member {rec['member']} contradicts the construction")
        require((rec["obstruction"] is None) == inst.member, "obstruction does not match membership")
        _check_occurrence(inst.adj(), rec["obstruction"], ("P5", "CO_P5"))
        op.facts.add(rec["member"])
        return None
    if kind == "recognize --cls sat":
        rec = _record(out)
        require(rec["member"] == inst.member, f"{op.label}: member {rec['member']} contradicts the construction")
        if rec["member"]:
            part = rec["partition"]
            require(sorted(part["A"] + part["B"]) == list(range(inst.n)), "partition does not cover V once")
            problem = ref.sat_partition_problem(inst.adj(), inst.n, part["A"])
            require(problem is None, f"reported sat-partition is invalid: {problem}")
        op.facts.add(rec["member"])
        return None
    if kind == "recognize --cls patterns":
        rec = _record(out)
        occs = rec["occurrences"]
        require(set(occs) == set(ref.PATTERNS), f"patterns reported: {sorted(occs)}")
        adj = inst.adj()
        for name, occ in occs.items():
            _check_occurrence(adj, occ, (name,))
        op.facts.add(tuple(sorted(name for name, occ in occs.items() if occ)))
        return None
    if kind == "reduce --star":
        n2, edges2, _, meta = ref.read_text(out)
        size, want = ref.star_reference(inst.n, inst.edges, inst.a_side)
        require(n2 == size and {tuple(sorted(e)) for e in edges2} == want,
                f"{op.label}: output differs from the edge replacement of every cross edge")
        crosses = ref.cross_edges(inst.n, inst.edges, inst.a_side)
        require([tuple(e) for e in meta["applied_edges"]] == crosses, "applied_edges are not the cross edges")
        op.facts.add((n2, len(edges2)))
        return (inst, n2, edges2, len(crosses))
    if kind == "reduce --wid":
        n2, edges2, w2, _ = ref.read_text(out)
        size, want, weights = ref.wid_gadget_reference(inst.n, inst.edges)
        require(n2 == size and {tuple(sorted(e)) for e in edges2} == want and w2 == weights,
                f"{op.label}: output differs from the three-layer construction")
        op.facts.add((n2, len(edges2)))
        return (inst, n2, edges2, w2)
    if kind == "tree":
        op.facts.add(ref.check_tree(inst.adj(), inst.n, json.loads(out)) > 0)
        return None
    if kind == "gen --kind sat":
        out_dir = where / f"gen{i}"
        manifest = json.loads((out_dir / "manifest.json").read_text())
        require(manifest["count"] == len(manifest["graphs"]) == 3, "manifest count is not 3")
        for entry in manifest["graphs"]:
            n, edges, _, _ = ref.read_text((out_dir / entry["file"]).read_text())
            require(n == entry["n"] == 13 and len(edges) == entry["m"], f"{entry['file']}: size mismatch")
            part = entry["partition"]
            require(sorted(part["A"] + part["B"]) == list(range(n)), "manifest partition does not cover V")
            problem = ref.sat_partition_problem(ref.adjacency(n, edges), n, part["A"])
            require(problem is None, f"{entry['file']}: manifest partition invalid: {problem}")
        shutil.rmtree(out_dir)
        op.facts.add(manifest["count"])
        return None
    raise CheckError(f"no check for {kind}")


def final_cli(op: Op) -> None:
    """Compare the label-free results of every pass with the references."""
    inst = op.inst
    kind = op.kind
    if kind == "malformed input":
        return
    require(len(op.facts) == 1, f"{op.label}: passes disagree: {sorted(map(str, op.facts))}")
    fact = next(iter(op.facts))
    if kind == "solve --demand":
        want = ref.split_optimum(inst.adj(), inst.n, inst.weights, inst.clique, op.demands)
        require(fact == want, f"{op.label}: value {fact} != closed form {want}")
    elif kind == "solve --mode oracle":
        want = ref.nx_optimum(inst.n, inst.edges, inst.weights)
        require(fact == want, f"{op.label}: value {fact} != networkx enumeration {want}")
    elif kind == "recognize --cls patterns":
        want = tuple(sorted(p for p in ref.PATTERNS if ref.has_induced(inst.n, inst.edges, p)))
        require(fact == want, f"{op.label}: found {fact}, networkx finds {want}")
    elif kind == "reduce --star":
        src, n2, edges2, crosses = op.kept
        before = ref.nx_optimum(src.n, src.edges, (1,) * src.n)
        after = ref.nx_optimum(n2, edges2, (1,) * n2)
        require(after == before + crosses,
                f"{op.label}: optimum went {before} -> {after} over {crosses} cross edges")
    elif kind == "reduce --wid":
        src, n2, edges2, w2 = op.kept
        gamma = ref.min_dominating_size(src.adj(), src.n)
        got = ref.nx_optimum(n2, edges2, w2)
        require(got == src.n + gamma, f"{op.label}: target optimum {got} != n + gamma = {src.n + gamma}")
