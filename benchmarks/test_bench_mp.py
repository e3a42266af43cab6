"""Staged-pipeline benchmark: scalar vs batched MP replay on fig6+fig8.

Replays the fig6 off-chip sweep and the fig8 on-chip sweep (16
configs against the paper-sized 8-CPU OLTP trace) with the scalar
``general`` engine and the staged ``vectorized-mp`` pipeline, recording
steady-state timings to ``BENCH_mp.json`` (override with
``BENCH_MP_OUT``): per-config and total seconds per engine plus the
aggregate speedup.

Measurement protocol: configs are the *outer* loop, with one untimed
warmup replay per engine and then ``ROUNDS`` timed replays per engine
taking the per-config minimum.  Config-major ordering matters for
fidelity on both sides — it keeps the census' derived projections
(per-geometry set indices, effective flags) hot across a config's
rounds, exactly as a campaign grid replaying one trace would see —
and interleaving the two engines within each round exposes them to
the same scheduler and frequency drift.

The run doubles as the acceptance check for the pipeline: every
config's ``RunResult`` must be value-identical across engines, and
the recorded aggregate speedup is asserted against the target.  The
target was first set at 3x over the retired ``fast`` scalar engine; it
was rebased onto ``general`` by the measured ``general_s / fast_s``
ratio of this protocol (2.38 on a 2-CPU box), rounded up:
3.0 x 2.38 = 7.2.
"""

from __future__ import annotations

import json
import os
import time

from repro.core.system import System
from repro.experiments import offchip, onchip
from repro.experiments.common import get_trace

OUT = os.environ.get("BENCH_MP_OUT", "BENCH_mp.json")
ROUNDS = 3
TARGET_SPEEDUP = 7.2
ENGINES = ("general", "vectorized-mp")


def _replay(machine, trace, engine):
    start = time.perf_counter()
    result = System(machine, engine=engine).run(trace)
    return time.perf_counter() - start, result


def test_bench_mp_fig6_fig8_sweeps(settings, warmed_traces):
    trace = get_trace(8, settings)
    configs = [
        (f"fig6:{label}", machine)
        for label, machine in offchip.sweep_configs(8, settings.scale)
    ] + [
        (f"fig8:{label}", machine)
        for label, machine in onchip._configs(8, settings.scale)
    ]

    best = {engine: {} for engine in ENGINES}
    for key, machine in configs:
        for engine in ENGINES:  # untimed warmup replay
            _replay(machine, trace, engine)
        results = {}
        for _ in range(ROUNDS):
            for engine in ENGINES:
                seconds, result = _replay(machine, trace, engine)
                prev = best[engine].get(key)
                if prev is None or seconds < prev:
                    best[engine][key] = seconds
                results[engine] = result
        # Value-identity across engines, for every config in the sweeps.
        assert (results["vectorized-mp"].to_dict()
                == results["general"].to_dict()), key

    general_total = sum(best["general"].values())
    vmp_total = sum(best["vectorized-mp"].values())
    speedup = general_total / vmp_total
    payload = {
        "figure": "fig6+fig8",
        "settings": "paper",
        "cpu_count": os.cpu_count(),
        "rounds": ROUNDS,
        "trace_refs": trace.total_refs,
        "general_seconds": round(general_total, 4),
        "vectorized_mp_seconds": round(vmp_total, 4),
        "speedup": round(speedup, 3),
        "target_speedup": TARGET_SPEEDUP,
        "per_config": {
            key: {
                "general_seconds": round(best["general"][key], 4),
                "vectorized_mp_seconds": round(
                    best["vectorized-mp"][key], 4
                ),
                "speedup": round(
                    best["general"][key] / best["vectorized-mp"][key], 3
                ),
            }
            for key, _ in configs
        },
    }
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)

    assert speedup >= TARGET_SPEEDUP, (
        f"vectorized-mp engine {speedup:.2f}x < {TARGET_SPEEDUP}x target "
        f"(general {general_total:.2f}s, vectorized-mp {vmp_total:.2f}s)"
    )
