"""The benchmark's workloads: what each one replays and how it is checked.

A workload is a named list of labelled machine configurations plus the
trace size they replay at.  Every job goes through the program's public
campaign API (``CampaignRunner(jobs=1)``); the checks in :class:`Checks`
run after the passes, outside every timed region, and judge the outputs
against the ``general`` engine, the conservation laws of
``RunResult.verify`` and the paper's stated properties -- never against
a stored copy of earlier output.
"""

from __future__ import annotations

import dataclasses
import os
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import MachineConfig, RunResult, System
from repro.core.machine import cache_label
from repro.experiments.common import Settings, trace_spec
from repro.params import MB, L2Technology
from repro.runner import CampaignRunner, ResultCache, SimJob, TraceSpec
from repro.scenario.registry import get_scenario
from repro.scenario.topology import UNIFORM

#: The seed every figure of the paper is reproduced with (``Settings``).
DEFAULT_SEED = Settings().seed
#: A seed kept out of tuning, for confirming a claimed gain.
HELD_OUT_SEED = 1009

Labelled = Tuple[str, MachineConfig]


def figure_grid(ncpus: int, scale: int) -> List[Labelled]:
    """Figures 5/6 (off-chip L2 sweep) then 7/8 (on-chip L2 options)."""
    fig_off, fig_on = ("Fig5", "Fig7") if ncpus == 1 else ("Fig6", "Fig8")
    grid = []
    for assoc in (1, 4):
        for size_mb in (1, 2, 4, 8):
            grid.append((
                f"{fig_off} {cache_label(size_mb * MB, assoc)}",
                MachineConfig.base(ncpus, l2_size=size_mb * MB,
                                   l2_assoc=assoc, scale=scale),
            ))
    grid.append((f"{fig_off} Cons 8M4w",
                 MachineConfig.conservative_base(ncpus, scale=scale)))
    grid.append((f"{fig_on} 8M1w Base", MachineConfig.base(ncpus, scale=scale)))
    for size, assoc in ((1, 8), (2, 8), (2, 4), (2, 2), (2, 1)):
        grid.append((
            f"{fig_on} {cache_label(size * MB, assoc)}",
            MachineConfig.integrated_l2(ncpus, l2_size=size * MB,
                                        l2_assoc=assoc, scale=scale),
        ))
    grid.append((f"{fig_on} 8M8w DRAM", MachineConfig.integrated_l2(
        ncpus, l2_size=8 * MB, l2_assoc=8,
        technology=L2Technology.ON_CHIP_DRAM, scale=scale)))
    return grid


def stream_rungs(scale: int) -> List[Labelled]:
    """8-CPU rungs the multiprocessor engine replays in stream mode:
    the Figure 13 OOO ladder, the Figure 12 RAC rungs and the
    ``islands-mp8`` scenario ladder."""
    rungs = [
        ("Fig13 Base OOO", MachineConfig.base(8, scale=scale, cpu_model="ooo")),
        ("Fig13 L2 OOO",
         MachineConfig.integrated_l2(8, scale=scale, cpu_model="ooo")),
        ("Fig13 L2+MC OOO",
         MachineConfig.integrated_l2_mc(8, scale=scale, cpu_model="ooo")),
        ("Fig13 All OOO",
         MachineConfig.fully_integrated(8, scale=scale, cpu_model="ooo")),
    ]
    for size, assoc in ((1 * MB, 4), (2 * MB, 8)):
        rungs.append((
            f"Fig12 {cache_label(size, assoc)} RAC",
            MachineConfig.fully_integrated(
                8, l2_size=size, l2_assoc=assoc, rac_size=8 * MB,
                replicate_code=True, scale=scale),
        ))
    for label, machine in get_scenario("islands-mp8").machines(scale):
        rungs.append((f"islands {label.split()[0]}", machine))
    return rungs


def engine_mode(machine: MachineConfig) -> str:
    """The replay path a configuration takes.

    Mirrors the routing in ``System.select_engine`` and
    ``replay_multiprocessor``: OOO CPUs, RACs and non-flat topologies
    send the multiprocessor engine to stream mode.
    """
    engine = System.select_engine(machine)
    if engine != "vectorized-mp":
        return engine
    stream = (machine.cpu_model == "ooo" or machine.rac_size is not None
              or not machine.topology.is_flat)
    return "vectorized-mp stream" if stream else "vectorized-mp batch"


def geometry(job: SimJob) -> tuple:
    """What a miss stream depends on: the trace and the cache shapes."""
    m = job.machine
    return (job.spec, m.l2_size, m.l2_assoc, m.rac_size, m.replicate_code,
            m.cores_per_node, m.victim_entries)


@dataclass(frozen=True)
class Workload:
    name: str
    settings: Settings
    configs: Tuple[Labelled, ...]
    #: Warm passes of the traced run (fixed, so its per-layer totals
    #: always cover the same work).
    traced_passes: int
    #: The configuration the ``general`` engine re-runs as a check
    #: (one per engine mode); None where nothing is replayed.
    general_check: Optional[str] = None
    #: Replay workloads simulate every pass; ``cached-rerun`` serves
    #: its passes from a result cache.
    replay: bool = True

    @property
    def labels(self) -> List[str]:
        return [label for label, _ in self.configs]

    def jobs(self, seed: int) -> List[SimJob]:
        settings = dataclasses.replace(self.settings, seed=seed)
        return [SimJob(spec=trace_spec(m.ncpus, settings), machine=m)
                for _, m in self.configs]

    def specs(self, seed: int) -> List[TraceSpec]:
        return list(dict.fromkeys(job.spec for job in self.jobs(seed)))


_PAPER = Settings.paper()
_QUICK = Settings.quick()

#: Why each workload is there: perfbench/README.md and BENCHMARK.json.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("uni-grid", _PAPER, tuple(figure_grid(1, _PAPER.scale)),
             traced_passes=2, general_check="Fig7 2M8w"),
    Workload("mp-grid", _PAPER, tuple(figure_grid(8, _PAPER.scale)),
             traced_passes=1, general_check="Fig6 8M4w"),
    Workload("mp-stream", _PAPER, tuple(stream_rungs(_PAPER.scale)),
             traced_passes=1, general_check="Fig12 2M8w RAC"),
    Workload("cached-rerun", _QUICK,
             tuple(figure_grid(1, _QUICK.scale) + figure_grid(8, _QUICK.scale)),
             traced_passes=100, replay=False),
)}


# -- passes ------------------------------------------------------------------

def run_one(runner: CampaignRunner, job: SimJob) -> RunResult:
    """Run one job through ``runner``: one timed operation of a pass."""
    return runner.run_jobs([job])[0]


def read_half(jobs: Sequence[SimJob], cache_dir: str):
    """Serve every job from the cache at ``cache_dir``; return the
    results and the cache's hit/miss counters."""
    cache = ResultCache(cache_dir)
    with CampaignRunner(jobs=1, cache=cache) as runner:
        return runner.run_jobs(jobs), cache.stats


def write_half(jobs: Sequence[SimJob], results: Sequence[RunResult],
               cache_dir: str) -> None:
    """Persist every result into the (fresh, empty) cache at ``cache_dir``."""
    cache = ResultCache(cache_dir)
    for job, result in zip(jobs, results):
        cache.store(job, result)


# -- output checks -----------------------------------------------------------

class Checks:
    """Attempted operations and the checks they failed.

    An operation is ``(kind, label)``: ``run`` for a job whose result a
    pass produced, ``store`` for a result persisted by a write half.  A
    failed check marks its operation kind and label bad, so every
    attempt of that configuration counts as failed -- the failed share
    is then the same in every run, whatever its length.
    """

    def __init__(self):
        self.ops: Counter = Counter()
        self.bad: set = set()
        self.messages: List[str] = []

    def attempt(self, kind: str, labels: Sequence[str]) -> None:
        self.ops.update((kind, label) for label in labels)

    def fail(self, kind: str, label: str, message: str) -> None:
        self.bad.add((kind, label))
        self.messages.append(f"{kind} {label}: {message}")

    @property
    def attempted(self) -> int:
        return sum(self.ops.values())

    @property
    def failed(self) -> int:
        return sum(n for op, n in self.ops.items() if op in self.bad)

    def verified(self, labels: Sequence[str],
                 results: Sequence[RunResult]) -> None:
        """Conservation laws on every result."""
        for label, result in zip(labels, results):
            try:
                result.verify()
            except Exception as exc:  # InvariantViolation, or a broken result
                self.fail("run", label, f"verify: {exc}")

    def same_as(self, labels: Sequence[str], results: Sequence[RunResult],
                reference: Sequence[dict], what: str,
                kind: str = "run") -> None:
        """Each result equals the reference payload of its job."""
        for label, result, ref in zip(labels, results, reference):
            if result is None or result.to_dict() != ref:
                self.fail(kind, label, f"differs from the {what}")

    def general_engine(self, label: str, job: SimJob, trace,
                       timed: RunResult) -> None:
        """The reference ``general`` loop agrees with the timed engine."""
        ref = System(job.machine, engine="general").run(trace)
        if ref.to_dict() != timed.to_dict():
            self.fail("run", label, "differs from the general engine")

    def model_properties(self, workload: Workload, traces: dict,
                         jobs: Sequence[SimJob],
                         results: Sequence[RunResult]) -> None:
        """The paper's properties for this workload."""
        by_label = dict(zip(workload.labels, results))
        if workload.name == "uni-grid":
            for label, result in by_label.items():
                if result.misses.remote:
                    self.fail("run", label, "a uniprocessor has remote misses")
        elif workload.name == "mp-grid":
            # Paper, Fig 8: the on-chip 2M8w has fewer misses than the
            # off-chip 8M1w (conflict misses dominate a big DM cache).
            on, off = by_label["Fig8 2M8w"], by_label["Fig6 8M1w"]
            if on.misses.total >= off.misses.total:
                self.fail("run", "Fig8 2M8w",
                          f"{on.misses.total} L2 misses, not fewer than "
                          f"8M1w's {off.misses.total}")
        elif workload.name == "mp-stream":
            for label, result in by_label.items():
                if "RAC" in label and not result.rac.hits:
                    self.fail("run", label, "a RAC rung reports no RAC hits")
            for label, job, result in zip(workload.labels, jobs, results):
                if not label.startswith("islands"):
                    continue
                flat = System(job.machine.with_(topology=UNIFORM)).run(
                    traces[job.spec])
                if result.exec_time < flat.exec_time:
                    self.fail("run", label, "faster than its flat twin")

    def readback(self, jobs: Sequence[SimJob], labels: Sequence[str],
                 reference: Sequence[dict], cache_dir: str) -> None:
        """A write half's entries load back as the results it stored."""
        cache = ResultCache(cache_dir)
        loaded = [cache.load(job) for job in jobs]
        self.same_as(labels, loaded, reference, "result it stored",
                     kind="store")
        if len(os.listdir(cache_dir)) != len({j.content_hash() for j in jobs}):
            for label in labels:
                self.fail("store", label, "stray or missing cache entries")
