"""Run the benchmark on several seeds and print each metric's median and spread.

    python3 perfbench/spread.py --workload split --seeds 1-10 --seconds 30 [--trace 1]

Runs are sequential, from the current directory (a widom checkout).
The spread is the distance between the first and third quartiles as a
share of the median, the figure the bounds in BENCHMARK.json are set
against.  Per-run results are appended as JSON lines to
``perfbench/out/spread.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", default="30")
    p.add_argument("--trace", default="0")
    args = p.parse_args()
    runs = []
    log = HERE / "out" / "spread.jsonl"
    log.parent.mkdir(exist_ok=True)
    for seed in seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", args.seconds, "--trace", args.trace]
        began = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        wall = time.perf_counter() - began
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        result.update(workload=args.workload, seed=seed, trace=int(args.trace), wall_s=wall)
        with log.open("a") as fh:
            fh.write(json.dumps(result) + "\n")
        runs.append(result)
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} wall={wall:.1f}s {values}", flush=True)
    print(f"{'metric':36} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/median':>10}")
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:36} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:10.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
