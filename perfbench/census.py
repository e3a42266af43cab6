#!/usr/bin/env python3
"""Workload census: what each benchmark workload replays.

From the repository root::

    python3 perfbench/census.py [--seed 7]

Prints, as Markdown, for every workload: its traces, each config with
its engine mode and cache geometry, the trace references per job, the
number of distinct jobs and geometries, and the share of configs that
repeat a geometry.  A geometry is what a miss stream depends on: the
trace, the L2 size and associativity, the RAC, code replication, cores
per node and the victim buffer.  For each 8-CPU trace it also gives the
sharing census: the share of lines, and of references, that only one
node ever touches.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def spec_text(spec) -> str:
    return (f"{spec.ncpus} CPU, scale {spec.scale}, {spec.txns} txns, "
            f"seed {spec.seed}")


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from repro.runner import default_trace_store
    from repro.trace.census import sharing_census

    from workloads import DEFAULT_SEED, WORKLOADS, engine_mode, geometry

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args(argv)
    store = default_trace_store()

    for w in WORKLOADS.values():
        jobs = w.jobs(args.seed)
        traces = {spec: store.get(spec) for spec in w.specs(args.seed)}
        ids = {}
        print(f"### {w.name}\n")
        for spec, trace in traces.items():
            line = (f"- trace: {spec_text(spec)}: {trace.total_refs} refs, "
                    f"{trace.measured_refs} measured")
            if spec.ncpus > 1:
                sc = sharing_census(trace)
                line += (f"; private lines {sc.uniq_private.mean():.1%}, "
                         f"refs to private lines {sc.private.mean():.1%}")
            print(line)
        print()
        print("| config | engine mode | geometry | measured refs |")
        print("|---|---|---|---|")
        for label, job in zip(w.labels, jobs):
            gid = ids.setdefault(geometry(job), f"G{len(ids) + 1}")
            print(f"| {label} | {engine_mode(job.machine)} | {gid} | "
                  f"{traces[job.spec].measured_refs} |")
        repeats = len(jobs) - len(ids)
        hashes = len({job.content_hash() for job in jobs})
        print(f"\n{len(jobs)} configs, {hashes} distinct jobs (content "
              f"hashes), {len(ids)} distinct geometries, {repeats} repeat "
              f"one ({repeats / len(jobs):.0%}).\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
