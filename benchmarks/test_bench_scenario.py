"""Scenario-replay benchmark: non-flat topologies vs their flat twins.

Replays the non-flat scenario points (hardware islands, chiplet+RAC)
and, for each, a *flat twin* — the identical machine with the uniform
topology — on both MP engines, recording steady-state timings to
``BENCH_scenario.json`` (override with ``BENCH_SCENARIO_OUT``).

Non-flat topologies push the staged pipeline into its stream mode and
send every remote miss through the per-hop latency composition, so
this bench is the guard on what scenarios *cost*: per-engine replay
throughput must stay above a conservative refs/second floor, and the
topology arithmetic must not balloon replay time past
``OVERHEAD_LIMIT``× the flat twin.  (A pipeline speedup floor lives
in ``test_bench_mp.py``; stream mode makes no speedup promise, so
none is asserted here.)

Measurement protocol matches ``test_bench_mp.py``: config-major, one
untimed warmup replay per engine, then ``ROUNDS`` timed replays per
engine taking the minimum.  Both scenarios run the paper's baseline
workload, so every cell replays the one shared 8-CPU trace and the
flat-vs-nonflat ratio isolates pure topology-routing cost.

The run doubles as the value-identity acceptance check for the
non-flat path: every cell's ``RunResult`` must be identical across
engines, and each non-flat cell must match its flat twin's miss
taxonomy exactly (topology moves cycles, never misses).
"""

from __future__ import annotations

import json
import os
import time

from repro.core.system import System
from repro.experiments.common import get_trace
from repro.scenario import get_scenario
from repro.scenario.topology import UNIFORM

OUT = os.environ.get("BENCH_SCENARIO_OUT", "BENCH_scenario.json")
ROUNDS = 3
ENGINES = ("general", "vectorized-mp")
#: Worst-cell replay throughput floor (measured refs per second); the
#: slowest cell, islands on the scalar ``general`` loop, does ~170k on a
#: 2-CPU dev box.
MIN_REFS_PER_SEC = 100_000
#: Non-flat replay may cost at most this much over its flat twin.  The
#: worst cell is islands on the staged pipeline, where the flat twin
#: runs batch mode but the non-flat point must stream (~1.75x on a
#: 2-CPU dev box).
OVERHEAD_LIMIT = 4.0
SCENARIOS = ("islands-mp8", "chiplet-mp8")


def _replay(machine, trace, engine):
    start = time.perf_counter()
    result = System(machine, engine=engine).run(trace)
    return time.perf_counter() - start, result


def test_bench_scenario_topologies(settings, warmed_traces):
    trace = get_trace(8, settings)
    cells = []
    for name in SCENARIOS:
        scenario = get_scenario(name)
        assert scenario.workload.is_baseline  # one shared trace
        label, machine = scenario.machines(settings.scale)[-1]
        cells.append((name, machine, machine.with_(topology=UNIFORM)))

    per_cell = {}
    for name, machine, flat_twin in cells:
        best = {"scenario": {}, "flat": {}}
        results = {"scenario": {}, "flat": {}}
        for variant, config in (("scenario", machine), ("flat", flat_twin)):
            for engine in ENGINES:  # untimed warmup replay
                _replay(config, trace, engine)
            for _ in range(ROUNDS):
                for engine in ENGINES:
                    seconds, result = _replay(config, trace, engine)
                    prev = best[variant].get(engine)
                    if prev is None or seconds < prev:
                        best[variant][engine] = seconds
                    results[variant][engine] = result
        # Value identity across engines, flat and non-flat alike.
        for variant in ("scenario", "flat"):
            assert (results[variant]["vectorized-mp"].to_dict()
                    == results[variant]["general"].to_dict()), (name, variant)
        # Topology moves cycles, never misses.
        assert (results["scenario"]["general"].misses.as_dict()
                == results["flat"]["general"].misses.as_dict()), name
        assert (results["scenario"]["general"].breakdown.total
                > results["flat"]["general"].breakdown.total), name
        per_cell[name] = {
            engine: {
                "seconds": round(best["scenario"][engine], 4),
                "flat_seconds": round(best["flat"][engine], 4),
                "refs_per_sec": round(
                    trace.measured_refs / best["scenario"][engine]
                ),
                "overhead_vs_flat": round(
                    best["scenario"][engine] / best["flat"][engine], 3
                ),
            }
            for engine in ENGINES
        }

    worst_rps = min(cell[engine]["refs_per_sec"]
                    for cell in per_cell.values() for engine in ENGINES)
    worst_overhead = max(cell[engine]["overhead_vs_flat"]
                         for cell in per_cell.values() for engine in ENGINES)
    payload = {
        "scenarios": list(SCENARIOS),
        "settings": "paper",
        "cpu_count": os.cpu_count(),
        "rounds": ROUNDS,
        "trace_refs": trace.total_refs,
        "measured_refs": trace.measured_refs,
        "per_cell": per_cell,
        "worst_refs_per_sec": worst_rps,
        "min_refs_per_sec": MIN_REFS_PER_SEC,
        "worst_overhead_vs_flat": worst_overhead,
        "overhead_limit": OVERHEAD_LIMIT,
    }
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)

    assert worst_rps >= MIN_REFS_PER_SEC, payload
    assert worst_overhead <= OVERHEAD_LIMIT, payload
