"""Streaming scale-out benchmark: 100x the workload at flat memory.

Runs two fresh subprocesses (``ru_maxrss`` is a process-lifetime
high-water mark, so each measurement needs its own interpreter):

* **reference** — the paper-sized uniprocessor workload (400 measured
  transactions), fully materialized and replayed on the general engine;
* **streamed** — the same workload at ``BENCH_STREAM_SCALE_X`` (default
  100) times the measured transaction count, streamed chunk-by-chunk
  from the generator straight into the general engine, never
  materializing the trace.

The payload lands in ``BENCH_stream.json`` (override with
``BENCH_STREAM_OUT``) and the benchmark doubles as the scale-out
acceptance gate: the 100x streamed run must stay within
``rss_limit`` (2x) of the reference run's peak RSS while replaying
~100x the measured references.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

OUT = os.environ.get("BENCH_STREAM_OUT", "BENCH_stream.json")
SCALE_X = int(os.environ.get("BENCH_STREAM_SCALE_X", "100"))
RSS_LIMIT = 2.0

#: The tracestore's reference workload: Settings.paper() uniprocessor.
REF = dict(ncpus=1, scale=32, txns=400, seed=7)

CHILD = r"""
import json, resource, sys, time

mode, txns = sys.argv[1], int(sys.argv[2])
from repro.core.machine import MachineConfig
from repro.core.system import simulate

machine = MachineConfig(label="bench-stream", ncpus=1)
start = time.perf_counter()
if mode == "materialized":
    from repro.trace.generator import build_trace

    trace = build_trace(ncpus=1, scale=32, txns=txns, seed=7)
    result = simulate(machine, trace, engine="general")
    quanta = len(trace.quanta)
    refs = sum(len(q.refs) for q in trace.quanta)
    measured = trace.measured_refs
else:
    from repro.trace.generator import stream_trace

    trace = stream_trace(ncpus=1, scale=32, txns=txns, seed=7)
    result = simulate(machine, trace, engine="general")
    quanta = trace.quanta_seen
    refs = trace.refs_seen
    measured = trace.measured_refs
print(json.dumps({
    "mode": mode,
    "txns": txns,
    "quanta": quanta,
    "refs": refs,
    "measured_refs": measured,
    "cycles": result.breakdown.total,
    "wall_seconds": round(time.perf_counter() - start, 3),
    "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
}))
"""


def _measure(mode: str, txns: int) -> dict:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", CHILD, mode, str(txns)],
        check=True, capture_output=True, text=True, env=env,
    )
    return json.loads(out.stdout)


def test_bench_stream_flat_rss(benchmark):
    reference = benchmark.pedantic(
        lambda: _measure("materialized", REF["txns"]), rounds=1,
        iterations=1,
    )
    streamed = _measure("streamed", REF["txns"] * SCALE_X)

    rss_ratio = streamed["maxrss_kb"] / max(1, reference["maxrss_kb"])
    refs_ratio = (streamed["measured_refs"]
                  / max(1, reference["measured_refs"]))
    payload = {
        "reference": reference,
        "streamed": streamed,
        "scale_x": SCALE_X,
        "rss_ratio": round(rss_ratio, 3),
        "rss_limit": RSS_LIMIT,
        "measured_refs_ratio": round(refs_ratio, 2),
    }
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)

    # The acceptance gate: ~100x the measured references at flat RSS.
    assert refs_ratio >= 0.9 * SCALE_X, payload
    assert rss_ratio <= RSS_LIMIT, payload
