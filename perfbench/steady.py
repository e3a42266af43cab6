#!/usr/bin/env python3
"""Steadiness of one workload: run it N times, report quartiles per metric.

From the repository root::

    python3 perfbench/steady.py --workload mp-grid --runs 10
    python3 perfbench/steady.py --workload mp-grid --runs 3 --same-seed --trace 1

Each run is a fresh ``run.py`` process, one after another, with seeds
``first-seed``, ``first-seed + 1``, ... (or ``first-seed`` every time with
``--same-seed``).  For every metric it prints the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``), the spread
``(q3 - q1) / median`` and, for end-to-end metrics, the bound from
``BENCHMARK.json`` and whether the spread is within a third of it.  It
also prints each run's share of failed operations, and with ``--trace 1
--same-seed`` it names every count metric that was not identical in all
runs.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"run failed (exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--same-seed", action="store_true")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")

    results = []
    for i in range(args.runs):
        seed = args.first_seed + (0 if args.same_seed else i)
        result = run_once(args.workload, seed, args.seconds, args.trace)
        results.append(result)
        share = result["failed"] / result["attempted"]
        print(f"run {i + 1}/{args.runs} seed {seed}: correct="
              f"{result['correct']} failed {result['failed']}/"
              f"{result['attempted']} ({share:.6f}); " + " ".join(
                  f"{v['value']:.6g}" for v in result["metrics"].values()),
              file=sys.stderr)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{args.workload}: {args.runs} runs of {args.seconds} s, "
          f"--trace {args.trace}")
    print(f"{'metric':<22s} {'unit':>8s} {'median':>14s} {'q1':>14s} "
          f"{'q3':>14s} {'spread':>8s} {'bound':>6s}")
    unsteady = []
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            flag = "ok" if spread <= bound / 3 else "WIDE"
        elif (args.same_seed and first["unit"] == "count"
              and len(set(values)) > 1):
            flag = "VARIES"
            unsteady.append(name)
        print(f"{name:<22s} {first['unit']:>8s} {median:14.6g} {q1:14.6g} "
              f"{q3:14.6g} {spread:8.2%} "
              f"{'' if bound is None else f'{bound:.2f}':>6s} {flag}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share per run: {sorted(shares)}")
    if unsteady:
        print(f"count metrics that varied: {', '.join(unsteady)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
