"""Vectorized-kernel benchmark: scalar vs numpy replay on Figure 5.

Replays the fig5 uniprocessor sweep (9 off-chip L2 geometries against
the paper-sized 1-CPU OLTP trace) once per engine and records
steady-state timings to ``BENCH_vector.json`` (override with
``BENCH_VECTOR_OUT``): per-config and total seconds for the scalar
``general`` loop and the ``vectorized`` path, plus the aggregate
speedup.

Measurement protocol: one untimed warmup round per engine (builds the
trace views the vectorized kernel caches, faults everything hot), then
``ROUNDS`` timed rounds taking the per-config *minimum* — the
steady-state cost a long campaign actually pays, insulated from
one-off cache effects and scheduler noise.

The run doubles as the acceptance check for the kernel: every config's
``RunResult`` must be value-identical across engines, and the recorded
aggregate speedup is asserted against the target.  The target was
first set at 5x over the retired ``fast`` scalar engine; it was rebased
onto ``general`` by the measured ``general_s / fast_s`` ratio of this
protocol (3.25, the median of three runs on a 2-CPU box), rounded up:
5.0 x 3.25 = 16.3.
"""

from __future__ import annotations

import json
import os
import time

from repro.core.system import System
from repro.experiments import offchip
from repro.experiments.common import get_trace

OUT = os.environ.get("BENCH_VECTOR_OUT", "BENCH_vector.json")
ROUNDS = 3
TARGET_SPEEDUP = 16.3


def _replay(machine, trace, engine):
    start = time.perf_counter()
    result = System(machine, engine=engine).run(trace)
    return time.perf_counter() - start, result


def test_bench_vectorized_fig5_sweep(settings, warmed_traces):
    trace = get_trace(1, settings)
    configs = offchip.sweep_configs(1, settings.scale)

    best = {"general": {}, "vectorized": {}}
    results = {"general": {}, "vectorized": {}}
    for engine in best:
        for label, machine in configs:  # untimed warmup round
            _replay(machine, trace, engine)
        for _ in range(ROUNDS):
            for label, machine in configs:
                seconds, result = _replay(machine, trace, engine)
                prev = best[engine].get(label)
                if prev is None or seconds < prev:
                    best[engine][label] = seconds
                results[engine][label] = result

    # Value-identity across engines, for every config in the sweep.
    for label, _ in configs:
        assert (results["vectorized"][label].to_dict()
                == results["general"][label].to_dict()), label

    general_total = sum(best["general"].values())
    vector_total = sum(best["vectorized"].values())
    speedup = general_total / vector_total
    payload = {
        "figure": "fig5",
        "settings": "paper",
        "cpu_count": os.cpu_count(),
        "rounds": ROUNDS,
        "trace_refs": trace.total_refs,
        "general_seconds": round(general_total, 4),
        "vectorized_seconds": round(vector_total, 4),
        "speedup": round(speedup, 3),
        "target_speedup": TARGET_SPEEDUP,
        "per_config": {
            label: {
                "general_seconds": round(best["general"][label], 4),
                "vectorized_seconds": round(best["vectorized"][label], 4),
                "speedup": round(
                    best["general"][label] / best["vectorized"][label], 3
                ),
            }
            for label, _ in configs
        },
    }
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)

    assert speedup >= TARGET_SPEEDUP, (
        f"vectorized engine {speedup:.2f}x < {TARGET_SPEEDUP}x target "
        f"(general {general_total:.2f}s, vectorized {vector_total:.2f}s)"
    )
