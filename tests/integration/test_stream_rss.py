"""RSS-guard regression: streaming keeps memory flat as workloads grow.

Tier-2 (marked ``slow``; deselected by default, run with ``-m slow``).
Measures peak RSS in fresh subprocesses — ``ru_maxrss`` is a
process-lifetime high-water mark, so in-process before/after readings
would be meaningless — and asserts the scale-out contract: a streamed
run 100x the reference transaction count must peak within 2x of the
*reference-sized materialized* run's RSS.  A regression that
materializes the stream anywhere on the replay path (engine, store,
validation) blows this bound immediately at 100x.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

SCALE_X = 100
RSS_LIMIT = 2.0

#: Quick-sized reference workload so the 100x run stays test-sized.
REF = dict(scale=64, txns=120, seed=7)

CHILD = r"""
import json, resource, sys, time

mode, scale, txns, seed = (
    sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4]))
from repro.core.machine import MachineConfig
from repro.core.system import simulate

machine = MachineConfig(label="rss-guard", ncpus=1)
if mode == "materialized":
    from repro.trace.generator import build_trace

    trace = build_trace(ncpus=1, scale=scale, txns=txns, seed=seed)
    result = simulate(machine, trace, engine="general")
    measured = trace.measured_refs
else:
    from repro.trace.generator import stream_trace

    trace = stream_trace(ncpus=1, scale=scale, txns=txns, seed=seed)
    result = simulate(machine, trace, engine="general")
    measured = trace.measured_refs
print(json.dumps({
    "measured_refs": measured,
    "cycles": result.breakdown.total,
    "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
}))
"""


def _measure(mode: str, txns: int) -> dict:
    env = dict(os.environ)
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", CHILD, mode, str(REF["scale"]), str(txns),
         str(REF["seed"])],
        check=True, capture_output=True, text=True, env=env,
    )
    return json.loads(out.stdout)


@pytest.mark.slow
def test_streamed_100x_rss_within_2x_of_reference():
    reference = _measure("materialized", REF["txns"])
    streamed = _measure("streamed", REF["txns"] * SCALE_X)

    rss_ratio = streamed["maxrss_kb"] / max(1, reference["maxrss_kb"])
    refs_ratio = (streamed["measured_refs"]
                  / max(1, reference["measured_refs"]))
    detail = {"reference": reference, "streamed": streamed,
              "rss_ratio": rss_ratio, "refs_ratio": refs_ratio}
    # The streamed run really is ~100x the work...
    assert refs_ratio >= 0.9 * SCALE_X, detail
    # ...at essentially reference-run memory.
    assert rss_ratio <= RSS_LIMIT, detail
