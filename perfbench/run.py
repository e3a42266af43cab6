#!/usr/bin/env python3
"""Run one benchmark workload in this process and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload mp-grid --seed 7 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` is the traced run: it prints a self-time table, then the
per-layer metrics.  Either way the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; check failures are listed on standard error.  See
``perfbench/README.md`` for the workloads and the meaning of every
metric.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS/OpenMP thread, for this process only: numpy reads these when
# it is first imported, below.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from bench import END_TO_END_UNITS, PER_LAYER_UNITS, Bench
    from workloads import WORKLOADS

    import_s = time.perf_counter() - _T_START
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    # A terminated run still removes its caches (the finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    tmp_root = ROOT / ".perfbench_tmp"
    tmp = tmp_root / f"run-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        bench = Bench(workload, args.seed, tmp, traced=bool(args.trace))
        if args.trace:
            values, units = bench.per_layer(), PER_LAYER_UNITS
        else:
            values = bench.end_to_end(args.seconds, import_s)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass  # another run still has its directory there
    checks = bench.checks
    for message in checks.messages:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": not checks.messages,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
