"""Benchmark for widom: one closed-loop client, one process, one thread.

    python3 perfbench/run.py --workload split|modular|cli --seed N --seconds S --trace 0|1

Run it from the root of a widom checkout; it imports widom from
``src/`` there and exits with code 2 when there is none.  A run repeats
whole passes of the workload's fixed operation list for ``--seconds``
seconds of wall time, each pass under its own seeded relabelling,
checks every output after its pass, compares the label-free results of
all passes with independent references after the last pass, and prints
one JSON object as its last line.

Times are the thread's CPU time (``time.thread_time``): on a shared
virtual machine it leaves out the time the hypervisor runs other guests
on this vCPU (steal time), which makes wall time swing by half within
seconds.  The run length is wall time.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics: times are
per traced pass, counts come from the first traced pass and so repeat
exactly for a seed, and ``trace.overhead_pct`` compares the op time of
the traced passes with that of the untraced ones.  Spans of the first
traced pass and a fuller report go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter, thread_time

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from reference import CheckError  # noqa: E402
from tracing import DECOMPOSITION_PARTS, Tracer  # noqa: E402

WORKLOADS = ("split", "modular", "cli")
END_TO_END = {"ops_per_s": "1/s", "op_ms_geomean": "ms", "peak_rss_mb": "MB", "setup_s": "s"}
LAYER_TIMES = ("solver", "graph", "io", "patterns", "oracle", "satgraph", "hardness", "cli")
SETUP_FIRST = 3  # loads timed before the first pass; one more follows each pass
SETUP_SAMPLES = 11


class Bench:
    def __init__(self, args, work: Path):
        from widom import cli, io as wio, solver

        self.cli, self.wio, self.solver = cli, wio, solver
        self.workload, self.seed, self.seconds = args.workload, args.seed, args.seconds
        self.work = work
        if self.workload == "cli":
            self.ops = wl.cli_ops(self.seed)
            self.fixed = wl.write_fixed_inputs(work / "fixed")
        else:
            self.ops = wl.library_ops(self.workload, self.seed)
        self.base_texts = [op.inst.text() for op in self.ops if op.inst is not None]
        self.tracer = None
        if args.trace:
            import widom

            self.tracer = Tracer(widom)
        self.times = [[] for _ in self.ops]  # untraced seconds per op, one per pass
        self.traced_s = self.untraced_s = 0.0  # op time of traced passes and their partners
        self.traced_passes = 0
        self.first_counts: dict | None = None
        self.setup_samples: list[float] = []
        self.attempted = self.failed = 0
        self.errors: list[str] = []

    # -- set-up ---------------------------------------------------------------

    def load_inputs(self) -> None:
        """The program's own work to load the workload's inputs, timed."""
        parse = self.wio.parse_graph
        start = thread_time()
        for text in self.base_texts:
            parse(text)
        self.setup_samples.append(thread_time() - start)

    # -- one pass ---------------------------------------------------------------

    def run_pass(self, pass_no: int, traced: bool) -> list[float]:
        gc.collect()
        where = self.work / f"pass{pass_no}"
        where.mkdir(parents=True)
        insts, demands = [], []
        for i, op in enumerate(self.ops):
            if op.inst is None:
                insts.append(None)
                demands.append(())
                continue
            perm = wl.permutation(self.workload, self.seed, pass_no, i, op.inst.n)
            insts.append(op.inst.relabel(perm))
            demands.append(tuple(tuple(sorted(perm[v] for v in d)) for d in op.demands))
        if self.workload == "cli":
            calls = [wl.cli_argv(op, insts[i], demands[i], where, i, pass_no, self.seed, self.fixed)
                     for i, op in enumerate(self.ops)]
        else:
            calls = [inst.text() for inst in insts]

        tracer = self.tracer if traced else None
        first = tracer is not None and self.first_counts is None
        if tracer is not None:
            tracer.reset_counts()
            tracer.keep_spans = first
            tracer.install()
        try:
            results, times = self._timed(calls, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
                tracer.keep_spans = False
        if first:
            self.first_counts = {
                "counters": dict(tracer.counters),
                "fn_calls": dict(tracer.fn_calls),
                "layer_calls": dict(tracer.layer_calls),
            }
        self._check(results, insts, demands, where)
        shutil.rmtree(where)
        self.attempted += len(self.ops)
        return times

    def _timed(self, calls, tracer):
        results, times = [], []
        if self.workload == "cli":
            main = tracer.entry(self.cli.main) if tracer else self.cli.main
            for i, argv in enumerate(calls):
                out, err = io.StringIO(), io.StringIO()
                if tracer:
                    tracer.op_id = i
                exc = None
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    start = thread_time()
                    try:
                        rc = main(argv)
                    except SystemExit as stop:
                        rc = stop.code
                    except Exception as raised:  # an escaped error is the op's outcome
                        rc, exc = None, raised
                    times.append(thread_time() - start)
                results.append((rc, out.getvalue(), err.getvalue(), exc))
            return results, times
        parse = tracer.entry(self.wio.parse_graph) if tracer else self.wio.parse_graph
        solve = tracer.entry(self.solver.solve_wid) if tracer else self.solver.solve_wid
        for i, text in enumerate(calls):
            if tracer:
                tracer.op_id = i
            g = parse(text)
            exc = sol = None
            start = thread_time()
            try:
                sol = solve(g)
            except Exception as raised:
                exc = raised
            times.append(thread_time() - start)
            results.append((sol, exc))
        return results, times

    def _check(self, results, insts, demands, where: Path) -> None:
        for i, (op, res) in enumerate(zip(self.ops, results)):
            try:
                if self.workload != "cli":
                    sol, exc = res
                    if exc is not None:
                        self.failed += 1
                        raise CheckError(f"raised {exc!r}")
                    wl.check_library(op, insts[i], sol)
                    continue
                rc, out, err, exc = res
                if exc is not None or rc != op.expect_rc:
                    self.failed += 1
                    if op.kind != "malformed input":
                        raise CheckError(f"exit {rc}, {exc!r}: {err.strip()[-300:]}")
                    continue
                kept = wl.check_cli(op, insts[i], demands[i], out, where, i)
                if op.kept is None:
                    op.kept = kept
            except Exception as problem:  # any broken output makes the run incorrect
                self.errors.append(f"{op.label}: {problem}")

    # -- the run ------------------------------------------------------------------

    def run(self) -> dict:
        if self.tracer is None:
            for _ in range(SETUP_FIRST):
                self.load_inputs()
        start = perf_counter()
        pass_no = 0
        peak_rss_mb = None
        while True:
            traced = self.tracer is not None and pass_no % 2 == 1
            times = self.run_pass(pass_no, traced)
            if traced:
                self.traced_passes += 1
                self.traced_s += sum(times)
            else:
                if self.tracer is not None:
                    self.untraced_s += sum(times)
                for i, t in enumerate(times):
                    self.times[i].append(t)
            if self.tracer is None and len(self.setup_samples) < SETUP_SAMPLES:
                self.load_inputs()
            if peak_rss_mb is None:
                # the high-water mark after one pass, so that it does not grow
                # with the number of passes a faster program completes
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            pass_no += 1
            if perf_counter() - start >= self.seconds and (self.tracer is None or pass_no % 2 == 0):
                break
        while self.tracer is None and len(self.setup_samples) < SETUP_SAMPLES:
            self.load_inputs()

        for op in self.ops:
            try:
                if self.workload == "cli":
                    wl.final_cli(op)
                else:
                    wl.final_library(op)
            except Exception as problem:
                self.errors.append(f"{op.label}: {problem}")
        for line in self.errors[:20]:
            print(f"check failed: {line}", file=sys.stderr)

        medians = [statistics.median(ts) for ts in self.times]
        if self.tracer is None:
            untraced_ops = sum(len(ts) for ts in self.times)
            metrics = {
                "ops_per_s": untraced_ops / sum(map(sum, self.times)),
                "op_ms_geomean": math.exp(statistics.fmean(math.log(m * 1000) for m in medians)),
                "peak_rss_mb": peak_rss_mb,
                "setup_s": statistics.median(self.setup_samples),
            }
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
        else:
            metrics = self.layer_metrics()
        self.write_report(pass_no, medians, metrics)
        return {
            "correct": not self.errors,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }

    def layer_metrics(self) -> dict:
        tr, first = self.tracer, self.first_counts
        per_pass_ms = 1000.0 / self.traced_passes
        out = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        counters = first["counters"]
        put("solver.subproblems", counters.get("solver.subproblems", 0), "count")
        put("solver.assignments", counters.get("solver.assignments", 0), "count")
        put("solver.max_demands", counters.get("solver.max_demands", 0), "count")
        for part, names in DECOMPOSITION_PARTS.items():
            secs = sum(tr.fn_s.get(f"decomposition.{fn}", 0.0) for fn in names)
            put(f"decomposition.{part}_ms", secs * per_pass_ms, "ms")
        put("decomposition.module_search_calls",
            sum(first["fn_calls"].get(f"decomposition.{fn}", 0)
                for fn in DECOMPOSITION_PARTS["module_search"]), "count")
        for layer in LAYER_TIMES:
            put(f"{layer}.self_ms", tr.self_s.get(layer, 0.0) * per_pass_ms, "ms")
        put("io.bytes_parsed", counters.get("io.bytes_parsed", 0), "count")
        put("patterns.calls", first["layer_calls"].get("patterns", 0), "count")
        put("oracle.mis_enumerated", counters.get("oracle.mis_enumerated", 0), "count")
        put("trace.overhead_pct", 100.0 * (self.traced_s / self.untraced_s - 1.0), "%")
        return out

    def write_report(self, passes: int, medians: list[float], metrics: dict) -> None:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tag = f"{self.workload}-s{self.seed}-t{1 if self.tracer else 0}"
        total = sum(map(sum, self.times))
        kinds: dict[str, float] = {}
        for op, ts in zip(self.ops, self.times):
            kinds[op.kind] = kinds.get(op.kind, 0.0) + sum(ts) / total
        report = {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "passes": passes,
            "ops_per_pass": len(self.ops),
            "metrics": metrics,
            "kind_share_of_op_time": kinds,
            "op_median_ms": {f"{i}:{op.label}": m * 1000 for i, (op, m) in enumerate(zip(self.ops, medians))},
            "errors": self.errors,
        }
        if self.tracer is not None:
            self_total = sum(self.tracer.self_s.values())
            report["layer_share_of_self_time"] = {
                layer: s / self_total for layer, s in sorted(self.tracer.self_s.items())
            }
            report["wrapped"] = self.tracer.wrapped_names()
            report["first_traced_pass_calls"] = self.first_counts["fn_calls"]
            self.tracer.write_spans(out_dir / f"spans-{tag}.json")
        (out_dir / f"report-{tag}.json").write_text(json.dumps(report, indent=1, sort_keys=True))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = Path.cwd() / "src"
    if not (src / "widom" / "__init__.py").is_file():
        print("error: no src/widom here; run from the root of a widom checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import widom

    if not Path(widom.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: imported widom from {widom.__file__}, not from {src}", file=sys.stderr)
        return 2
    work = HERE / "out" / f"work-{os.getpid()}"
    try:
        result = Bench(args, work).run()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
