"""Timing phase: charge merged event streams through the CPU models.

Phase 4 of the staged replay pipeline.  The private-hierarchy and
coherence phases defer all cycle accounting into *timing records*
``(pos, cycles, klass, dep, is_instr)`` — ``pos`` being the
reference's position within its scheduling quantum — and this module
replays them through the CPU models once per quantum.

The in-order model accumulates plain integer counters and its
``stall``/``busy`` calls commute, so :func:`charge_quantum_inorder`
applies aggregates directly.  The out-of-order model is
order-sensitive (window occupancy, MSHRs, dependent-load
serialization), so :func:`charge_quantum_ooo` merges the quantum's
instruction-fetch positions back into the stall stream and replays
``busy``/``stall`` calls in exactly the order the scalar reference
loop ``System._run_general`` makes them (the differential suite and
``tests/core/test_reference_model.py`` hold the engines to it).

Neither model knows where a cycle count came from: per-event
``cycles`` arrive fully resolved from the interconnect
(:meth:`repro.coherence.network.InterconnectModel.service_latency`),
which already composed the Figure-3 class latency with any
per-hop :class:`~repro.scenario.topology.TopologySpec` extras.  The
CPU models therefore work unchanged for every topology; only the
producers of timing records vary.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.params import INSTRS_PER_ILINE


def charge_quantum_inorder(cpu, timing: Sequence, n_l2_hits: int,
                           lat_l2_hit: int, n_instr: int,
                           n_kinstr: int) -> None:
    """Charge one quantum's records to an in-order CPU.

    Equivalent to the scalar loop's per-reference ``stall`` calls plus
    its quantum-end ``busy`` accounting; exact because the in-order
    counters are commutative integers.
    """
    sc = cpu.stall_cycles
    if n_l2_hits:
        sc[0] += n_l2_hits * lat_l2_hit
    for _pos, cycles, klass, _dep, _ins in timing:
        sc[klass] += cycles
    if n_instr:
        cpu.busy_cycles += n_instr * INSTRS_PER_ILINE
        if n_kinstr:
            cpu.kernel_busy_cycles += n_kinstr * INSTRS_PER_ILINE


def charge_quantum_ooo(cpu, timing: Sequence, ipos: List[int],
                       ikern: List[bool]) -> None:
    """Replay one quantum's records through an out-of-order CPU.

    ``ipos``/``ikern`` are the quantum-relative positions and kernel
    flags of its instruction fetches.  The scalar loop calls
    ``busy(INSTRS_PER_ILINE, kernel)`` at each fetch *before* any
    stall that fetch produces, so the merge applies every fetch with
    ``ipos <= pos`` ahead of the stall at ``pos``.
    """
    busy = cpu.busy
    stall = cpu.stall
    n_i = len(ipos)
    ip = 0
    for pos, cycles, klass, dep, is_instr in timing:
        while ip < n_i and ipos[ip] <= pos:
            busy(INSTRS_PER_ILINE, ikern[ip])
            ip += 1
        stall(cycles, klass, dep, is_instr)
    while ip < n_i:
        busy(INSTRS_PER_ILINE, ikern[ip])
        ip += 1
