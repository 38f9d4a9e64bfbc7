import json

import pytest

from widom.cli import _build_parser, main
from widom.generators import domino, path, sun3
from widom.graph import WeightedGraph
from widom.io import emit_graph, extract_meta, parse_graph


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
    meta = extract_meta(out)
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
    meta = extract_meta(out)
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
    code, _, _ = _run(
        capsys, "gen", "--kind", "named", "--name", "domino", "--out", str(tmp_path / "d")
    )
    assert code == 0
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


def test_parser_built_once_and_demands_do_not_leak(p4_file, capsys):
    assert _build_parser() is _build_parser()
    code, out, _ = _run(capsys, "solve", p4_file, "--demand", "1", "--demand", "2")
    assert code == 0 and _record(out)["feasible"] is False
    code, out, _ = _run(capsys, "solve", p4_file)
    assert code == 0 and _record(out)["witness"] == [0, 2]


# (argv, exit code, a fragment the message must contain)
BAD_INPUTS = {
    "demand out of range": (["solve", "{tri}", "--demand", "7"], 2, "--demand"),
    "pin out of range": (["solve", "{tri}", "--mode", "naive", "--pin", "9"], 2, "--pin"),
    "non-UTF-8 input": (["solve", "{latin}"], 2, "line 3"),
    "bad DIMACS header": (["solve", "{dimacs}", "--dimacs"], 2, "line 1"),
    "negative gen --n": (["gen", "--kind", "gnp", "--n", "-3", "--out", "{out}"], 2, "--n"),
    "gen --weights without a colon": (
        ["gen", "--kind", "gnp", "--n", "4", "--weights", "5", "--out", "{out}"], 2, "--weights"
    ),
    "directory as FILE": (["solve", "{folder}"], 2, "folder"),
    "partition vertex out of range": (
        ["reduce", "{tri}", "--star", "--partition", "{part9}"], 5, "vertex 9"
    ),
    "sat search past its bound": (["recognize", "{e22}", "--cls", "sat"], 4, "n <= 20"),
    "obstruction inside a module": (["solve", "{c6}"], 3, "P5 at (3, 4, 5, 6, 7)"),
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
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exit_codes(case, tmp_path, capsys, c6_module):
    argv, want, fragment = BAD_INPUTS[case]
    (tmp_path / "c6.graph").write_text(emit_graph(c6_module))
    (tmp_path / "tri.graph").write_text("3 2\n0 1\n1 2\n")
    (tmp_path / "latin.graph").write_bytes(b"3 1\n0 1\n# caf\xe9\n")
    (tmp_path / "bad.dimacs").write_text("p edge x 3\ne 1 2\n")
    (tmp_path / "folder").mkdir()
    (tmp_path / "part9.json").write_text('{"A": [9]}')
    (tmp_path / "e22.graph").write_text("22 0\n")
    (tmp_path / "notjson.json").write_text("not json")
    (tmp_path / "list.json").write_text("[]")
    (tmp_path / "nofile.json").write_text('{"graphs": [{"file": "tri.graph"}, {"n": 3}]}')
    (tmp_path / "latin.json").write_text('{"graphs": [{"file": "latin.graph"}]}')
    (tmp_path / "dimacs.json").write_text('{"graphs": [{"file": "bad.dimacs"}]}')
    paths = {
        name: str(tmp_path / file)
        for name, file in (
            ("tri", "tri.graph"), ("latin", "latin.graph"), ("dimacs", "bad.dimacs"),
            ("folder", "folder"), ("part9", "part9.json"), ("e22", "e22.graph"),
            ("out", "gen-out"), ("notjson", "notjson.json"), ("listjson", "list.json"),
            ("nofile", "nofile.json"), ("latinjson", "latin.json"), ("c6", "c6.graph"),
            ("dimacsjson", "dimacs.json"),
        )
    }
    try:
        code = main([a.format(**paths) for a in argv])
    except SystemExit as stop:  # argparse rejects flag values this way
        code = stop.code
    _, err = capsys.readouterr()
    assert code == want, err
    assert "Traceback" not in err and fragment in err
