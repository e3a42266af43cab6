"""Run results: everything a paper figure needs from one simulation."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import List

from repro.coherence.network import MessageCounters
from repro.core.machine import MachineConfig
from repro.stats.breakdown import (
    ExecutionBreakdown,
    L1Stats,
    MissBreakdown,
    ProtocolStats,
    RacStats,
)


@dataclass
class RunResult:
    """Measured statistics for one (machine, trace) simulation.

    ``breakdown`` sums cycles over all CPUs; ``exec_time`` divides by
    the CPU count, giving the per-processor execution time the paper's
    normalized bars are built from (the workload is symmetric, so this
    equals wall-clock time for the fixed transaction count).

    The payload is engine-independent: every replay engine (``general``,
    ``vectorized``, ``vectorized-mp``) must produce a
    value-identical ``to_dict()`` for the same (machine, trace) pair —
    the differential and golden suites enforce it, and the campaign
    cache relies on it to serve results across engines.
    """

    machine: MachineConfig
    breakdown: ExecutionBreakdown
    per_cpu: List[ExecutionBreakdown]
    misses: MissBreakdown
    l1: L1Stats
    protocol: ProtocolStats
    rac: RacStats
    network: MessageCounters = field(default_factory=MessageCounters)
    measured_txns: int = 0
    #: Software TLB fills (0 when the machine models a perfect TLB).
    tlb_misses: int = 0
    #: L2 demand hits and victim-buffer swap-back hits during the
    #: measured phase (inputs to the miss conservation law).
    l2_hits: int = 0
    victim_hits: int = 0
    #: References replayed in the measured phase; 0 when the result was
    #: assembled by hand (verify() then skips the reference laws).
    trace_refs: int = 0

    @property
    def label(self) -> str:
        return self.machine.label

    @property
    def exec_time(self) -> float:
        """Average per-CPU non-idle execution time in cycles."""
        return self.breakdown.total / max(1, len(self.per_cpu))

    @property
    def cycles_per_txn(self) -> float:
        """System-level cost of one transaction (lower is better)."""
        if not self.measured_txns:
            return 0.0
        return self.breakdown.total / self.measured_txns

    @property
    def l2_misses(self) -> int:
        return self.misses.total

    @property
    def cpu_utilization(self) -> float:
        return self.breakdown.cpu_utilization

    @property
    def kernel_fraction(self) -> float:
        """Kernel share of busy time (paper: ~25 % of execution)."""
        if not self.breakdown.busy:
            return 0.0
        return self.breakdown.kernel_busy / self.breakdown.busy

    def verify(self) -> "RunResult":
        """Check the conservation laws over the measured statistics.

        Raises :class:`~repro.integrity.errors.InvariantViolation` when
        any law fails; returns ``self`` so calls chain.  The reference
        laws need ``trace_refs``/``l2_hits`` bookkeeping and are skipped
        for hand-assembled results (``trace_refs == 0``).
        """
        from repro.integrity.errors import InvariantViolation

        b = self.breakdown
        components = {
            "busy": b.busy,
            "kernel_busy": b.kernel_busy,
            "l2_hit": b.l2_hit,
            "local_stall": b.local_stall,
            "remote_clean_stall": b.remote_clean_stall,
            "remote_dirty_stall": b.remote_dirty_stall,
        }
        for name, value in components.items():
            if value < 0:
                raise InvariantViolation(
                    "negative-cycles",
                    f"breakdown component {name} is negative",
                    details={name: value},
                )
        if b.kernel_busy > b.busy + 1e-6:
            raise InvariantViolation(
                "kernel-exceeds-busy",
                "kernel busy time exceeds total busy time",
                details={"kernel_busy": b.kernel_busy, "busy": b.busy},
            )
        summed = ExecutionBreakdown()
        for cpu in self.per_cpu:
            summed.add(cpu)
        for name in components:
            mine, theirs = getattr(b, name), getattr(summed, name)
            if abs(mine - theirs) > 1e-6 * max(1.0, abs(mine)):
                raise InvariantViolation(
                    "breakdown-mismatch",
                    f"summed breakdown disagrees with per-CPU sum on {name}",
                    details={"total": mine, "per_cpu_sum": theirs},
                )

        if self.trace_refs:
            refs = self.l1.i_refs + self.l1.d_refs
            if refs != self.trace_refs:
                raise InvariantViolation(
                    "reference-conservation",
                    "L1 reference counts do not sum to the replayed "
                    "trace references",
                    details={"i_refs": self.l1.i_refs, "d_refs": self.l1.d_refs,
                             "trace_refs": self.trace_refs},
                )
            l1_misses = self.l1.i_misses + self.l1.d_misses
            serviced = self.l2_hits + self.victim_hits + self.misses.total
            if serviced != l1_misses:
                raise InvariantViolation(
                    "miss-conservation",
                    "L2 hits + victim hits + L2 misses do not sum to "
                    "L1 misses",
                    details={"l2_hits": self.l2_hits,
                             "victim_hits": self.victim_hits,
                             "l2_misses": self.misses.total,
                             "l1_misses": l1_misses},
                )
        return self

    # -- serialization (campaign result cache; exact round trip) ----------------

    def to_dict(self) -> dict:
        """JSON-safe representation of every measured statistic.

        The campaign result cache stores this verbatim;
        :meth:`from_dict` reverses it exactly (Python's JSON float
        encoding is round-trip exact), so a cache-served result is
        indistinguishable from the simulation that produced it.
        """
        return {
            "machine": self.machine.to_dict(),
            "breakdown": asdict(self.breakdown),
            "per_cpu": [asdict(b) for b in self.per_cpu],
            "misses": asdict(self.misses),
            "l1": asdict(self.l1),
            "protocol": asdict(self.protocol),
            "rac": asdict(self.rac),
            "network": asdict(self.network),
            "measured_txns": self.measured_txns,
            "tlb_misses": self.tlb_misses,
            "l2_hits": self.l2_hits,
            "victim_hits": self.victim_hits,
            "trace_refs": self.trace_refs,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunResult":
        """Rebuild a result from :meth:`to_dict` output."""
        return cls(
            machine=MachineConfig.from_dict(data["machine"]),
            breakdown=ExecutionBreakdown(**data["breakdown"]),
            per_cpu=[ExecutionBreakdown(**b) for b in data["per_cpu"]],
            misses=MissBreakdown(**data["misses"]),
            l1=L1Stats(**data["l1"]),
            protocol=ProtocolStats(**data["protocol"]),
            rac=RacStats(**data["rac"]),
            network=MessageCounters(**data["network"]),
            measured_txns=data["measured_txns"],
            tlb_misses=data["tlb_misses"],
            l2_hits=data["l2_hits"],
            victim_hits=data["victim_hits"],
            trace_refs=data["trace_refs"],
        )

    def speedup_over(self, other: "RunResult") -> float:
        """How much faster this run is than ``other`` (paper's 'X times')."""
        if self.exec_time <= 0:
            raise ValueError("cannot compute speedup for a zero-time run")
        return other.exec_time / self.exec_time

    def summary(self) -> str:
        """One-line human-readable digest."""
        b = self.breakdown
        total = b.total or 1.0
        return (
            f"{self.label}: {self.cycles_per_txn:,.0f} cyc/txn | "
            f"CPU {100 * b.busy / total:.0f}% L2Hit {100 * b.l2_hit / total:.0f}% "
            f"Loc {100 * b.local_stall / total:.0f}% Rem {100 * b.remote_stall / total:.0f}% | "
            f"L2 misses {self.misses.total:,} (3-hop {100 * self.misses.dirty_share:.0f}%)"
        )
