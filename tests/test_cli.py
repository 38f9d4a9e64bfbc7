import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import widom
from widom.cli import _build_parser, main
from widom.generators import domino, path, sun3
from widom.graph import WeightedGraph
from widom.io import emit_graph, parse_graph, parse_graph_file
from widom.satgraph import find_sat_partition


@pytest.fixture()
def p4_file(tmp_path):
    f = tmp_path / "p4.graph"
    f.write_text(emit_graph(WeightedGraph(path(4), (10, 1, 1, 10))))
    return str(f)


def _run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def _record(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


def _meta(text: str) -> dict:
    """The record of the '# meta {...}' line that ``reduce`` prints last."""
    last = text.strip().splitlines()[-1]
    assert last.startswith("# meta "), last
    return json.loads(last[len("# meta "):])


def test_solve_sound(p4_file, capsys):
    code, out, _ = _run(capsys, "solve", p4_file)
    assert code == 0
    rec = _record(out)
    assert rec["value"] == 11 and rec["witness"] == [0, 2]
    assert rec["feasible"] is True
    assert len(rec["input_hash"]) == 64
    assert "runtime_ms" in rec


def test_solve_modes_agree(p4_file, capsys):
    _, out1, _ = _run(capsys, "solve", p4_file, "--mode", "sound")
    _, out2, _ = _run(capsys, "solve", p4_file, "--mode", "oracle")
    r1, r2 = _record(out1), _record(out2)
    assert (r1["value"], r1["witness"]) == (r2["value"], r2["witness"])


def test_solve_demand_and_infeasible(p4_file, capsys):
    code, out, _ = _run(capsys, "solve", p4_file, "--demand", "3")
    assert code == 0 and _record(out)["witness"] == [1, 3]
    code, out, _ = _run(capsys, "solve", p4_file, "--demand", "1", "--demand", "2")
    assert code == 0
    rec = _record(out)
    assert rec["feasible"] is False and rec["value"] is None


def test_solve_unit_weights(p4_file, capsys):
    code, out, _ = _run(capsys, "solve", p4_file, "--unit-weights")
    assert code == 0 and _record(out)["value"] == 2


def test_solve_naive_record(p4_file, capsys):
    code, out, _ = _run(capsys, "solve", p4_file, "--mode", "naive")
    assert code == 0
    rec = _record(out)
    assert rec["value"] == 1
    assert rec["witness_weight"] == 11
    assert rec["witness_is_mis"] is True


def test_determinism_modulo_runtime(p4_file, capsys):
    _, out1, _ = _run(capsys, "solve", p4_file)
    _, out2, _ = _run(capsys, "solve", p4_file)
    r1, r2 = _record(out1), _record(out2)
    r1.pop("runtime_ms"), r2.pop("runtime_ms")
    assert r1 == r2


def test_exit_code_parse_error(tmp_path, capsys):
    f = tmp_path / "bad.graph"
    f.write_text("garbage\n")
    code, _, err = _run(capsys, "solve", str(f))
    assert code == 2 and "line 1" in err


def test_exit_code_not_in_class(tmp_path, capsys):
    f = tmp_path / "c6.graph"
    f.write_text("6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n")
    code, _, err = _run(capsys, "tree", str(f))
    assert code == 3 and "P5" in err
    code, _, _ = _run(capsys, "solve", str(f))
    assert code == 3


def test_exit_code_oracle_bound(tmp_path, capsys):
    f = tmp_path / "big.graph"
    f.write_text("30 0\n")
    code, _, err = _run(capsys, "solve", str(f), "--mode", "oracle", "--bound", "25")
    assert code == 4


def test_exit_code_partition(tmp_path, capsys):
    f = tmp_path / "sun3.graph"
    f.write_text(emit_graph(sun3()))
    code, _, err = _run(capsys, "reduce", str(f), "--star")
    assert code == 5 and "split" in err


def test_missing_file(capsys):
    code, _, err = _run(capsys, "solve", "/nonexistent/x.graph")
    assert code == 2


def test_tree_json(p4_file, capsys):
    code, out, _ = _run(capsys, "tree", p4_file)
    assert code == 0
    data = json.loads(out)
    assert data["node_count"] == 5


def test_tree_dot(p4_file, capsys):
    code, out, _ = _run(capsys, "tree", p4_file, "--dot")
    assert code == 0 and out.startswith("digraph")


def test_recognize_patterns(tmp_path, capsys):
    f = tmp_path / "domino.graph"
    f.write_text(emit_graph(domino()))
    code, out, _ = _run(capsys, "recognize", str(f), "--cls", "patterns")
    assert code == 0
    rec = _record(out)
    assert rec["occurrences"]["C4"]["vertices"] == [0, 1, 2, 3]
    assert rec["occurrences"]["SUN3"] is None


def test_recognize_sat(tmp_path, capsys):
    f = tmp_path / "domino.graph"
    f.write_text(emit_graph(domino()))
    code, out, _ = _run(capsys, "recognize", str(f), "--cls", "sat")
    rec = _record(out)
    assert rec["member"] is True and rec["partition"]["A"] == [2, 3]


def test_reduce_wid_meta_and_solve(tmp_path, capsys):
    src = tmp_path / "p3.graph"
    src.write_text(emit_graph(path(3)))
    code, out, _ = _run(capsys, "reduce", str(src), "--wid")
    assert code == 0
    meta = _meta(out)
    assert meta["construction"] == "wid"
    assert meta["a_side"] == [2, 5, 8]
    wg = parse_graph(out)
    assert isinstance(wg, WeightedGraph) and wg.n == 9

    target = tmp_path / "t.graph"
    target.write_text(out)
    code, out, _ = _run(capsys, "solve", str(target), "--mode", "oracle", "--bound", "30")
    assert code == 0
    assert _record(out)["value"] == 3 + 1


def test_reduce_gamma_partition_file(tmp_path, capsys):
    src = tmp_path / "p3.graph"
    src.write_text(emit_graph(path(3)))
    part = tmp_path / "part.json"
    part.write_text('{"A": [0]}')
    code, out, _ = _run(
        capsys, "reduce", str(src), "--gamma", "0", "1", "--partition", str(part)
    )
    assert code == 0
    meta = _meta(out)
    assert meta["new_vertices"] == [3, 4, 5]
    g = parse_graph(out)
    assert g.n == 6 and len(g.edges) == 6


def test_reduce_gamma_bad_edge(tmp_path, capsys):
    src = tmp_path / "p3.graph"
    src.write_text(emit_graph(path(3)))
    code, _, err = _run(capsys, "reduce", str(src), "--gamma", "1", "2")
    assert code == 5


def test_gen_check_pipeline(tmp_path, capsys):
    out_dir = tmp_path / "corpus"
    code, out, _ = _run(
        capsys, "gen", "--kind", "sat", "--seed", "3", "--count", "6",
        "--out", str(out_dir),
    )
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["count"] == 6
    assert all("partition" in e for e in manifest["graphs"])
    for suite in ("obs1", "obs2", "lemma1", "lemma2"):
        code, _, err = _run(
            capsys, "check", "--suite", suite, "--corpus", str(out_dir / "manifest.json")
        )
        assert code == 0, (suite, err)


def test_check_thm1_suite(tmp_path, capsys):
    out_dir = tmp_path / "sources"
    code, *_ = _run(
        capsys, "gen", "--kind", "gnp", "--n", "7", "--p", "0.3",
        "--seed", "14", "--count", "4", "--out", str(out_dir),
    )
    assert code == 0
    code, out, err = _run(capsys, "check", "--suite", "thm1", "--corpus", str(out_dir / "manifest.json"))
    assert code == 0, err
    assert _record(out) == {"command": "check", "suite": "thm1", "graphs": 4, "failures": 0}


def test_gen_deterministic(tmp_path, capsys):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        code, *_ = _run(
            capsys, "gen", "--kind", "gnp", "--free", "--n", "7", "--p", "0.3",
            "--seed", "11", "--count", "5", "--out", str(d), "--weights", "0:9",
        )
        assert code == 0
    for name in ("manifest.json", "g0000.graph", "g0004.graph"):
        assert (d1 / name).read_text() == (d2 / name).read_text()


def test_gen_named(tmp_path, capsys):
    code, out, _ = _run(
        capsys, "gen", "--kind", "named", "--name", "domino", "--out", str(tmp_path / "d")
    )
    assert code == 0
    rec = {"command": "gen", "out": str(tmp_path / "d"), "count": 1}
    assert out == json.dumps(rec, sort_keys=True) + "\n"
    g = parse_graph((tmp_path / "d" / "g0000.graph").read_text())
    assert g == domino()


def test_check_solver_suite(tmp_path, capsys):
    out_dir = tmp_path / "cls"
    code, *_ = _run(
        capsys, "gen", "--kind", "gnp", "--free", "--n", "7", "--p", "0.35",
        "--seed", "5", "--count", "8", "--out", str(out_dir), "--weights", "0:30",
    )
    assert code == 0
    code, _, err = _run(
        capsys, "check", "--suite", "solver", "--corpus", str(out_dir / "manifest.json")
    )
    assert code == 0, err
    code, _, _ = _run(
        capsys, "check", "--suite", "lemma6", "--corpus", str(out_dir / "manifest.json")
    )
    assert code == 0


def test_dimacs_input(tmp_path, capsys):
    f = tmp_path / "p4.col"
    f.write_text("p edge 4 3\ne 1 2\ne 2 3\ne 3 4\n")
    code, out, _ = _run(capsys, "solve", str(f), "--dimacs", "--unit-weights")
    assert code == 0 and _record(out)["value"] == 2


def test_witness_recheck_survives_optimize(p4_file):
    """The solve witness is re-verified even under ``python -O``, which
    strips assert statements."""
    script = (
        "import sys\n"
        "from widom import cli\n"
        "from widom.solver import Solution\n"
        "cli.solve_constrained = lambda wg, demands: Solution(frozenset({0, 1}), 11)\n"
        "cli.main(['solve', sys.argv[1]])\n"
    )
    src = str(Path(widom.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run(
        [sys.executable, "-O", "-c", script, p4_file], capture_output=True, text=True, env=env
    )
    assert run.returncode != 0 and run.stdout == ""
    assert "AssertionError: sound witness [0, 1] fails its re-check" in run.stderr


def test_parser_built_once_and_demands_do_not_leak(p4_file, capsys):
    assert _build_parser() is _build_parser()
    code, out, _ = _run(capsys, "solve", p4_file, "--demand", "1", "--demand", "2")
    assert code == 0 and _record(out)["feasible"] is False
    code, out, _ = _run(capsys, "solve", p4_file)
    assert code == 0 and _record(out)["witness"] == [0, 2]


# a P3 plus 1,497 isolated vertices
DEEP_P3 = "1500 2\n1497 1498\n1498 1499\n"


def _clique_less_an_edge(n: int) -> str:
    """A GraphFile of K_n without the edge 0-1: every vertex but 0 and 1
    sees all the others."""
    lines = [f"{u} {v}\n" for u in range(n) for v in range(u + 1, n) if (u, v) != (0, 1)]
    return f"{n} {len(lines)}\n" + "".join(lines)


def _p3_chain(levels: int) -> str:
    """A GraphFile of a cograph nested ``levels`` deep: each level puts a
    P3 beside everything before it, then adds a vertex that sees all of
    that.  The solver takes the vertex out as a SERIES part, then splits
    the rest into its two components, one recursion level each, since the
    next such vertex is not good: its antineighbourhood holds the P3."""
    edges, below = [], []
    for j in range(0, 4 * levels, 4):
        edges += [(j, j + 1), (j + 1, j + 2)]
        below += [j, j + 1, j + 2]
        edges += [(u, j + 3) for u in below]
        below.append(j + 3)
    return f"{4 * levels} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def test_clique_less_an_edge_solves_as_one_series_split(tmp_path, capsys):
    """K_1000 less the edge 0-1 was a chain of about 1,000 good vertices,
    past the recursion limit; the solver takes out its 998 universal
    vertices at once and answers at depth 2."""
    chain = tmp_path / "chain.graph"
    chain.write_text(_clique_less_an_edge(1000))
    code, out, err = _run(capsys, "solve", str(chain))
    assert code == 0, err
    rec = _record(out)
    assert rec["value"] == 1 and rec["witness"] == [2]


def test_deep_tree_input_solves_at_a_good_vertex(tmp_path, capsys):
    """The tree splits this input at one module per vertex, past the
    recursion limit; the solver takes out the isolated vertices, splits
    at the P3's middle vertex, whose antineighborhood has no edge, and
    answers at depth 1."""
    deep = tmp_path / "deep.graph"
    deep.write_text(DEEP_P3)
    code, out, err = _run(capsys, "solve", str(deep))
    assert code == 0, err
    assert _record(out)["value"] == 1498


def test_disjoint_p3s_solve_as_one_parallel_split(tmp_path, capsys):
    """1,000 disjoint P3s have no good vertex at the root; the solver
    splits them into their components at one level and answers."""
    p3s = tmp_path / "p3s.graph"
    edges = "".join(f"{3 * i} {3 * i + 1}\n{3 * i + 1} {3 * i + 2}\n" for i in range(1000))
    p3s.write_text(f"3000 2000\n{edges}")
    code, out, err = _run(capsys, "solve", str(p3s))
    assert code == 0, err
    assert _record(out)["value"] == 1000


# (argv, exit code, a fragment the message must contain)
BAD_INPUTS = {
    "demand out of range": (["solve", "{tri}", "--demand", "7"], 2, "--demand"),
    "pin out of range": (["solve", "{tri}", "--mode", "naive", "--pin", "9"], 2, "--pin"),
    "non-UTF-8 input": (["solve", "{latin}"], 2, "line 3"),
    "bad DIMACS header": (["solve", "{dimacs}", "--dimacs"], 2, "line 1"),
    "naive mode with --demand": (
        ["solve", "{tri}", "--mode", "naive", "--demand", "1"], 2, "naive mode does not take --demand"
    ),
    "gen out of sampling budget": (
        ["gen", "--kind", "gnp", "--free", "--n", "12", "--p", "0.5", "--count", "50", "--out", "{out}"],
        2, "gave up after 2000 rejections",
    ),
    "DIMACS edge out of range": (["solve", "{rangedimacs}", "--dimacs"], 2, "line 2: bad edge (3,4)"),
    "DIMACS self-loop": (["solve", "{loopdimacs}", "--dimacs"], 2, "line 3: bad edge (2,2)"),
    "DIMACS second problem line": (["solve", "{twopdimacs}", "--dimacs"], 2, "line 3"),
    "DIMACS negative vertex count": (["solve", "{negdimacs}", "--dimacs"], 2, "line 1"),
    "DIMACS negative edge count": (
        ["solve", "{negmdimacs}", "--dimacs"], 2, "line 1: negative edge count -4"
    ),
    "DIMACS edge count past its edge lines": (
        ["solve", "{shortdimacs}", "--dimacs"], 2, "expected 5 edge lines, found 1"
    ),
    "vertex count past an index": (["solve", "{huge}"], 2, "line 2: vertex count"),
    "DIMACS vertex count past an index": (
        ["solve", "{hugedimacs}", "--dimacs"], 2, "line 2: vertex count"
    ),
    # n = 2**61 fits an index; CPython refuses the list before allocating
    "solve vertex count past memory": (["solve", "{mem}"], 2, "line 1: vertex count"),
    "tree vertex count past memory": (["tree", "{mem}"], 2, "line 1: vertex count"),
    "recognize vertex count past memory": (["recognize", "{mem}"], 2, "line 1: vertex count"),
    "DIMACS vertex count past memory": (
        ["solve", "{memdimacs}", "--dimacs"], 2, "line 1: vertex count"
    ),
    "negative gen --n": (["gen", "--kind", "gnp", "--n", "-3", "--out", "{out}"], 2, "--n"),
    "gen --weights without a colon": (
        ["gen", "--kind", "gnp", "--n", "4", "--weights", "5", "--out", "{out}"], 2, "--weights"
    ),
    "directory as FILE": (["solve", "{folder}"], 2, "folder"),
    "partition vertex out of range": (
        ["reduce", "{tri}", "--star", "--partition", "{part9}"], 5, "vertex 9"
    ),
    "sat search past its bound": (["recognize", "{e22}", "--cls", "sat"], 4, "n <= 20"),
    "thm1 source past its bound": (["check", "--suite", "thm1", "--corpus", "{p17json}"], 4, "n <= 16"),
    "obstruction inside a module": (["solve", "{c6}"], 3, "P5 at (3, 4, 5, 6, 7)"),
    # 500 levels of a P3 and a vertex that sees all below: two recursion
    # levels per level (exit 0 at 490 levels in a fresh interpreter)
    "solve deeper than the recursion limit": (["solve", "{chain}"], 4, "recursion limit"),
    "tree deeper than the recursion limit": (["tree", "{deep}"], 4, "recursion limit"),
    "check manifest not JSON": (
        ["check", "--suite", "solver", "--corpus", "{notjson}"], 2, "notjson.json: line 1"
    ),
    "check manifest not an object": (
        ["check", "--suite", "solver", "--corpus", "{listjson}"], 2, "list.json"
    ),
    "check entry without a file": (
        ["check", "--suite", "solver", "--corpus", "{nofile}"], 2, "graphs[1]"
    ),
    "check graph file malformed": (
        ["check", "--suite", "solver", "--corpus", "{dimacsjson}"], 2, "bad.dimacs: line 1"
    ),
    "check graph file not UTF-8": (
        ["check", "--suite", "solver", "--corpus", "{latinjson}"], 2, "latin.graph: line 3"
    ),
    "check partition vertex out of range": (
        ["check", "--suite", "obs1", "--corpus", "{part7json}"], 5, "tri.graph: partition side"
    ),
    "check partition not an object": (
        ["check", "--suite", "obs1", "--corpus", "{partlistjson}"], 2, 'tri.graph: partition needs an "A"'
    ),
    "check partition without A": (
        ["check", "--suite", "obs1", "--corpus", "{partbjson}"], 2, 'tri.graph: partition needs an "A"'
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exit_codes(case, tmp_path, capsys, c6_module):
    argv, want, fragment = BAD_INPUTS[case]
    (tmp_path / "c6.graph").write_text(emit_graph(c6_module))
    (tmp_path / "tri.graph").write_text("3 2\n0 1\n1 2\n")
    (tmp_path / "latin.graph").write_bytes(b"3 1\n0 1\n# caf\xe9\n")
    (tmp_path / "bad.dimacs").write_text("p edge x 3\ne 1 2\n")
    (tmp_path / "range.dimacs").write_text("p edge 3 1\ne 3 4\n")
    (tmp_path / "loop.dimacs").write_text("c self-loop\np edge 3 1\ne 2 2\n")
    (tmp_path / "twop.dimacs").write_text("p edge 5 1\ne 4 5\np edge 3 1\n")
    (tmp_path / "neg.dimacs").write_text("p edge -3 0\n")
    (tmp_path / "negm.dimacs").write_text("p edge 3 -4\ne 1 2\n")
    (tmp_path / "short.dimacs").write_text("p edge 3 5\ne 1 2\n")
    # n past an index; a large n that fits one would allocate gigabytes
    (tmp_path / "huge.graph").write_text("# 20-digit n\n99999999999999999999 0\n")
    (tmp_path / "huge.dimacs").write_text("c 20-digit n\np edge 99999999999999999999 0\n")
    (tmp_path / "mem.graph").write_text(f"{2**61} 0\n")
    (tmp_path / "mem.dimacs").write_text(f"p edge {2**61} 0\n")
    (tmp_path / "folder").mkdir()
    (tmp_path / "part9.json").write_text('{"A": [9]}')
    (tmp_path / "e22.graph").write_text("22 0\n")
    (tmp_path / "p17.graph").write_text(emit_graph(path(17)))
    (tmp_path / "p17.json").write_text('{"graphs": [{"file": "p17.graph"}]}')
    (tmp_path / "deep.graph").write_text(DEEP_P3)
    if "{chain}" in argv:  # half a million edge lines: written only when used
        (tmp_path / "chain.graph").write_text(_p3_chain(500))
    (tmp_path / "notjson.json").write_text("not json")
    (tmp_path / "list.json").write_text("[]")
    (tmp_path / "nofile.json").write_text('{"graphs": [{"file": "tri.graph"}, {"n": 3}]}')
    (tmp_path / "latin.json").write_text('{"graphs": [{"file": "latin.graph"}]}')
    (tmp_path / "dimacs.json").write_text('{"graphs": [{"file": "bad.dimacs"}]}')
    for name, part in (("part7", '{"A": [7]}'), ("partlist", "[0]"), ("partb", '{"B": [1]}')):
        entry = f'{{"graphs": [{{"file": "tri.graph", "partition": {part}}}]}}'
        (tmp_path / f"{name}.json").write_text(entry)
    paths = {
        name: str(tmp_path / file)
        for name, file in (
            ("tri", "tri.graph"), ("latin", "latin.graph"), ("dimacs", "bad.dimacs"),
            ("folder", "folder"), ("part9", "part9.json"), ("e22", "e22.graph"),
            ("out", "gen-out"), ("notjson", "notjson.json"), ("listjson", "list.json"),
            ("nofile", "nofile.json"), ("latinjson", "latin.json"), ("c6", "c6.graph"),
            ("dimacsjson", "dimacs.json"), ("part7json", "part7.json"),
            ("partlistjson", "partlist.json"), ("partbjson", "partb.json"),
            ("huge", "huge.graph"), ("hugedimacs", "huge.dimacs"),
            ("mem", "mem.graph"), ("memdimacs", "mem.dimacs"),
            ("deep", "deep.graph"), ("chain", "chain.graph"), ("p17json", "p17.json"),
            ("rangedimacs", "range.dimacs"), ("loopdimacs", "loop.dimacs"),
            ("twopdimacs", "twop.dimacs"), ("negdimacs", "neg.dimacs"),
            ("negmdimacs", "negm.dimacs"), ("shortdimacs", "short.dimacs"),
        )
    }
    try:
        code = main([a.format(**paths) for a in argv])
    except SystemExit as stop:  # argparse rejects flag values this way
        code = stop.code
    _, err = capsys.readouterr()
    assert code == want, err
    assert "Traceback" not in err and fragment in err


HUGE_N = 2**61
RARELY = st.sampled_from((False,) * 9 + (True,))
# pieces the fuzzer splices into an input: non-UTF-8 bytes, comments,
# line breaks (also those only str.splitlines breaks at), signs, digits,
# section words and whole lines
SPLICES = (
    b"\xff", b"\xe9", b"\x80", b"#", b"\n", b"\r", b"\x0b", b"\x1c", "\u2028".encode(),
    b" ", b"-", b"0", b"1", b"7", b"x",
    b"weights\n", b"c\n", b"p edge 3 1\n", b"e 1 2\n", b"1 1\n", b"0 1\n",
)
COMMAND_FLAGS = {
    "solve": (
        ["--mode", "sound"], ["--mode", "naive"], ["--mode", "oracle"], ["--unit-weights"],
        ["--demand", "1"], ["--demand", "0,2"], ["--demand", "9"], ["--demand", "x"],
        ["--mode", "oracle", "--bound", "4"], ["--pin", "2"], ["--pin", "12"],
    ),
    "tree": (["--dot"],),
    "recognize": (["--cls", "p5cop5"], ["--cls", "sat"], ["--cls", "patterns"]),
    "reduce": (["--star"], ["--wid"], ["--gamma", "0", "1"], ["--gamma", "2", "9"]),
    # check reads the fuzzed file through a manifest (see _fuzz_manifest)
    "check": tuple(
        ["--suite", suite]
        for suite in ("obs1", "obs2", "lemma1", "lemma2", "thm1", "lemma6", "solver")
    ),
}


# gen reads no file: its flags get fuzzed values instead, some out of
# range or not numbers, with n <= 10 and count <= 3 so each case is cheap
GEN_VALUES = {
    "--kind": ("named", "gnp", "sat", "substitution", "cotree", ""),
    "--n": ("0", "1", "4", "10", "-1", "x"),
    "--p": ("0", "0.3", "0.5", "1", "1.5", "-0.2", "nan", "x"),
    "--count": ("0", "1", "3", "-2", "1.5"),
    "--weights": ("0:5", "5:5", "-3:3", "5:0", "7", ":"),
}


def _graph_text(draw, dimacs: bool) -> bytes:
    """A GraphFile or DIMACS text on n <= 10 vertices, most of them
    intact, the rest with up to three spliced or cut spots."""
    n = draw(st.integers(0, 10))
    pairs = [(u, v) for v in range(n) for u in range(v)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=15, unique=True)) if pairs else []
    if dimacs:
        lines = [f"p edge {n} {len(edges)}"] + [f"e {u + 1} {v + 1}" for u, v in edges]
    else:
        lines = [f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]
        if draw(st.booleans()):
            lines.append("weights")
            lines += [f"{v} {draw(st.integers(-3, 50))}" for v in range(n)]
    data = ("\n".join(lines) + "\n").encode()
    for _ in range(draw(st.sampled_from((0, 0, 0, 1, 2, 3)))):
        at = draw(st.integers(0, len(data)))
        cut = draw(st.integers(0, 3))
        data = data[:at] + draw(st.sampled_from(SPLICES + (b"",))) + data[at + cut:]
    return data


@st.composite
def cli_cases(draw) -> tuple[str, list[str], bytes]:
    command = draw(st.sampled_from(sorted([*COMMAND_FLAGS, "gen"])))
    if command == "gen":  # --kind is required, so it is rarely left out
        flags = [
            [flag, draw(st.sampled_from(values))]
            for flag, values in GEN_VALUES.items()
            if (flag == "--kind" and not draw(RARELY)) or draw(st.booleans())
        ]
        if draw(st.booleans()):
            flags.append(["--free"])
        return command, [f for flag in flags for f in flag], b""
    if command == "check":  # one suite; check reads GraphFiles only
        flags = [draw(st.sampled_from(COMMAND_FLAGS[command]))]
        dimacs = draw(RARELY)
    else:
        flags = draw(st.lists(st.sampled_from(COMMAND_FLAGS[command]), max_size=3))
        dimacs = draw(st.booleans())
        # the flag mostly matches the text's format
        if dimacs != draw(RARELY):
            flags.append(["--dimacs"])
    if draw(RARELY):
        data = (f"p edge {HUGE_N} 0\n" if dimacs else f"{HUGE_N} 0\n").encode()
    else:
        data = _graph_text(draw, dimacs)
    return command, [f for flag in flags for f in flag], data


def _vertex_counts(text: str) -> list[str]:
    """Every token either parser could take for the vertex count."""
    found = []
    for line in text.splitlines():
        parts = line.split("#", 1)[0].split()
        if parts:
            found.append(parts[0])
            break
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] == "p":
            found.append(parts[2])
    return found


def _allocates(token: str) -> bool:
    """A header past 10 vertices but under 2**61 makes a real allocation
    (10**8 vertices take 800 MB) and then a long solve."""
    try:
        return 10 < int(token) < HUGE_N
    except ValueError:
        return False


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


def _fuzz_manifest(fuzz_file: Path) -> Path:
    """A manifest naming the fuzzed file, with its clique/matched split
    when the file reads as a graph that has one, so that the partition
    suites run their transforms too."""
    entry: dict = {"file": fuzz_file.name}
    try:
        g = parse_graph_file(fuzz_file)
        part = find_sat_partition(g.graph if isinstance(g, WeightedGraph) else g)
    except ValueError:  # a malformed file, or past the search's 20 vertices
        part = None
    if part is not None:
        entry["partition"] = {"A": sorted(part.a), "B": sorted(part.b)}
    manifest = fuzz_file.with_name("manifest.json")
    manifest.write_text(json.dumps({"graphs": [entry]}))
    return manifest


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=cli_cases())
@example(case=("tree", [], f"{HUGE_N} 0\n".encode()))
@example(case=("recognize", [], f"{HUGE_N} 0\n".encode()))
@example(case=("solve", ["--dimacs"], f"p edge {HUGE_N} 0\n".encode()))
def test_exit_code_contract_on_mutated_inputs(fuzz_file, case):
    """Every input, however malformed, ends in a documented exit code
    (0, 2, 3, 4 or 5; gen 0 or 2), never in a traceback."""
    command, flags, data = case
    text = data.decode(errors="replace")
    assume(not any(_allocates(token) for token in _vertex_counts(text)))
    fuzz_file.write_bytes(data)
    if command == "check":
        target = ["--corpus", str(_fuzz_manifest(fuzz_file))]
    elif command == "gen":
        target = ["--out", str(fuzz_file.with_name("corpus"))]
    else:
        target = [str(fuzz_file)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([command, *target, *flags])
        except SystemExit as stop:  # argparse rejects flag values this way
            code = stop.code
    # 1 is check's verdict that the graph failed its suite (say, it is outside the class)
    allowed = {"check": (0, 1, 2, 3, 4, 5), "gen": (0, 2)}.get(command, (0, 2, 3, 4, 5))
    assert code in allowed, err.getvalue()
    assert "Traceback" not in err.getvalue()
