"""The ``repro-oltp selftest`` harness.

Three stages, each turning an implicit correctness assumption into a
checked, reportable fact:

1. **Clean-run invariants** — replay the Figure 5 off-chip sweep and
   the Figure 10 integration ladders (uniprocessor and 8-way, plus the
   Conservative Base) with ``end-of-run`` checking: every structural
   invariant and conservation law must hold on real OLTP traces.
2. **Loop agreement** — run the same seeded trace through the scalar
   ``general`` loop with ``per-quantum`` checking, which must stay
   invariant-clean at every quantum boundary, and through the engine
   ``auto`` selects (the staged pipeline): both must produce identical
   statistics.
3. **Fault matrix** — inject every :class:`FaultKind` into a live run
   and require the checker to catch each one as an
   :class:`InvariantViolation` carrying forensics.  A checker that
   cannot detect known corruption proves nothing about clean runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import List

from repro.core.machine import MachineConfig
from repro.core.system import System, simulate
from repro.cpu.events import encode
from repro.integrity.errors import InvariantViolation, ReproError
from repro.integrity.faults import FaultKind, FaultPlan
from repro.trace.synthetic import make_trace


@dataclass
class SelftestReport:
    """Outcome of one selftest invocation.

    Every check is kept twice: as a pre-formatted text line (the
    historical ``render`` output) and as a structured record in
    ``checks``, so ``repro-oltp selftest --json`` and the service
    health surface can consume the same run machine-readably.
    """

    lines: List[str] = field(default_factory=list)
    failures: int = 0
    checks: List[dict] = field(default_factory=list)
    _section: str = ""

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def ok(self, message: str) -> None:
        self.lines.append(f"  ok    {message}")
        self.checks.append(
            {"section": self._section, "status": "ok", "message": message}
        )

    def fail(self, message: str) -> None:
        self.failures += 1
        self.lines.append(f"  FAIL  {message}")
        self.checks.append(
            {"section": self._section, "status": "fail", "message": message}
        )

    def section(self, title: str) -> None:
        self._section = title.rstrip(":")
        self.lines.append(title)

    def render(self) -> str:
        verdict = (
            "selftest PASSED" if self.passed
            else f"selftest FAILED ({self.failures} failure(s))"
        )
        return "\n".join(["repro-oltp integrity selftest", *self.lines, verdict])

    def to_dict(self) -> dict:
        """The machine-readable report (``selftest --json``, CI)."""
        from repro.version import version_info

        return {
            "passed": self.passed,
            "failures": self.failures,
            "checks": list(self.checks),
            "version": version_info(),
        }


def _synthetic_trace(ncpus: int = 4, quanta: int = 120, seed: int = 5):
    """A small multi-CPU trace with writes, kernel refs and warmup."""
    rng = random.Random(seed)
    body = []
    for _ in range(quanta):
        cpu = rng.randrange(ncpus)
        refs = []
        for _ in range(rng.randint(5, 40)):
            instr = rng.random() < 0.4
            refs.append(encode(
                rng.randrange(400),
                write=not instr and rng.random() < 0.35,
                instr=instr,
                kernel=rng.random() < 0.2,
            ))
        body.append((cpu, refs))
    return make_trace(ncpus, body, page_bytes=256, warmup_quanta=quanta // 5)


def _clean_figures(report: SelftestReport, settings) -> None:
    from repro.experiments.common import get_trace
    from repro.experiments.integration import ladder_configs
    from repro.experiments.offchip import sweep_configs

    checked = replace(settings, check="end-of-run")
    stages = []
    uni_trace = get_trace(1, checked)
    stages.append(("fig5", sweep_configs(1, checked.scale), uni_trace))
    stages.append(("fig10/uni", ladder_configs(1, checked.scale), uni_trace))
    mp_trace = get_trace(8, checked)
    stages.append((
        "fig10/mp",
        ladder_configs(8, checked.scale)
        + [("Cons", MachineConfig.conservative_base(8, scale=checked.scale))],
        mp_trace,
    ))
    for stage, configs, trace in stages:
        for label, machine in configs:
            try:
                simulate(machine, trace, check="end-of-run")
                report.ok(f"{stage}: {label}")
            except InvariantViolation as exc:
                report.fail(f"{stage}: {label}: {exc}")


def _loop_agreement(report: SelftestReport) -> None:
    machine = MachineConfig.base(4, l2_size=8192, l2_assoc=2, scale=1)
    trace_a = _synthetic_trace()
    trace_b = _synthetic_trace()
    auto = System(machine)
    try:
        general = System(machine, check="per-quantum").run(trace_a)
    except InvariantViolation as exc:
        report.fail(f"loop agreement: per-quantum check tripped: {exc}")
        return
    staged = auto.run(trace_b)
    if (general.breakdown.total == staged.breakdown.total
            and general.misses.as_dict() == staged.misses.as_dict()
            and general.l1.i_misses == staged.l1.i_misses):
        report.ok("general loop under per-quantum checking agrees with "
                  f"the {auto.engine} engine")
    else:
        report.fail(
            f"general loop and {auto.engine} engine disagree: "
            f"totals {general.breakdown.total} vs {staged.breakdown.total}"
        )


def _fault_matrix(report: SelftestReport) -> None:
    machine = MachineConfig.base(4, l2_size=8192, l2_assoc=2, scale=1)
    for kind in FaultKind:
        trace = _synthetic_trace()
        plan = FaultPlan(kind, at_ref=len(trace.quanta[0].refs), seed=13)
        try:
            System(machine, check="per-quantum", fault_plan=plan).run(trace)
            report.fail(f"fault {kind.value}: NOT detected")
        except InvariantViolation as exc:
            forensics = exc.forensics
            if plan.applied and forensics.get("invariant"):
                report.ok(
                    f"fault {kind.value}: caught as '{exc.invariant}' "
                    f"{ {k: v for k, v in forensics.items() if k != 'invariant'} }"
                )
            else:
                report.fail(f"fault {kind.value}: caught without forensics")
        except ReproError as exc:
            report.fail(f"fault {kind.value}: unexpected error: {exc}")


def run(settings=None) -> SelftestReport:
    """Run the full selftest; quick figure sizes unless overridden."""
    from repro.experiments.common import Settings

    settings = settings or Settings.quick()
    report = SelftestReport()
    report.section("clean figure runs (end-of-run checking):")
    _clean_figures(report, settings)
    report.section("replay-loop agreement (per-quantum checking):")
    _loop_agreement(report)
    report.section("fault-injection matrix (checker mutation test):")
    _fault_matrix(report)
    return report
