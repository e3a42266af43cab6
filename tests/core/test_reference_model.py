"""Differential test: every replay engine vs a clean reference.

The staged replay engines reach into cache internals for speed (the
uniprocessor kernel does not even keep per-reference cache state).  This
test re-implements the replay using only the public NodeCaches /
DirectoryProtocol / InterconnectModel APIs and checks that each engine
produces identical stall accounting and miss classification.  Engine
parity with each *other* is covered exhaustively by
``tests/core/test_differential.py``; here every engine is anchored to
the reference semantics directly, so a bug shared by all three cannot
hide.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coherence.homemap import HomeMap
from repro.coherence.network import InterconnectModel
from repro.coherence.protocol import DirectoryProtocol
from repro.core.machine import MachineConfig
from repro.core.system import System
from repro.cpu.events import encode
from repro.cpu.inorder import InOrderCPU
from repro.memsys.hierarchy import HierarchyLevel, NodeCaches
from repro.params import INSTRS_PER_ILINE, L1_ASSOC, MissKind
from repro.stats.breakdown import MissBreakdown
from repro.trace.synthetic import make_trace

PAGE = 256

_KIND_TO_STALL = {
    MissKind.LOCAL: 1,
    MissKind.REMOTE_CLEAN: 2,
    MissKind.REMOTE_DIRTY: 3,
}


def reference_run(machine: MachineConfig, trace):
    """Clean-room replay using only public component APIs."""
    nodes = [
        NodeCaches(
            machine.scaled_l2_size,
            machine.l2_assoc,
            l1_size=machine.scaled_l1_size,
            l1_assoc=L1_ASSOC,
            node_id=i,
        )
        for i in range(machine.ncpus)
    ]
    homemap = HomeMap(machine.ncpus, trace.page_bytes)
    protocol = DirectoryProtocol(homemap, nodes)
    net = InterconnectModel(machine.latencies)
    cpus = [InOrderCPU(i) for i in range(machine.ncpus)]
    misses = MissBreakdown()
    mp = machine.ncpus > 1

    for quantum in trace.quanta:
        cpu = cpus[quantum.cpu]
        node = nodes[quantum.cpu]
        for ref in quantum.refs:
            flags = ref & 15
            line = ref >> 4
            write = bool(flags & 1)
            instr = bool(flags & 2)
            if instr:
                cpu.busy(INSTRS_PER_ILINE, bool(flags & 4))
            result = node.access(line, write, instr)
            if result.victim is not None:
                protocol.handle_eviction(
                    quantum.cpu, result.victim, result.victim_dirty
                )
            if result.level is HierarchyLevel.MISS:
                outcome = protocol.service_miss(quantum.cpu, line, write, instr)
                cpu.stall(net.service_latency(outcome), _KIND_TO_STALL[outcome.kind])
                misses.record(outcome.kind, instr)
            else:
                if result.level is HierarchyLevel.L2:
                    cpu.stall(machine.latencies.l2_hit, 0)
                if write and mp:
                    outcome = protocol.ensure_owner(quantum.cpu, line)
                    if outcome is not None:
                        cpu.stall(
                            net.service_latency(outcome),
                            _KIND_TO_STALL[outcome.kind],
                        )
    total = sum(cpu.now for cpu in cpus)
    return total, misses


def random_trace(seed, ncpus, nquanta=40, nlines=48):
    rng = random.Random(seed)
    quanta = []
    for _ in range(nquanta):
        cpu = rng.randrange(ncpus)
        refs = []
        for _ in range(rng.randint(1, 30)):
            instr = rng.random() < 0.4
            refs.append(
                encode(
                    rng.randrange(nlines),
                    # Instruction fetches are never stores.
                    write=(not instr) and rng.random() < 0.4,
                    instr=instr,
                    kernel=rng.random() < 0.2,
                )
            )
        quanta.append((cpu, refs))
    return make_trace(ncpus, quanta, page_bytes=PAGE)


def machine_for(ncpus, l2_size, l2_assoc):
    return MachineConfig.base(ncpus, l2_size=l2_size, l2_assoc=l2_assoc, scale=1)


@pytest.mark.parametrize("engine", ["general", "vectorized"])
@given(st.integers(0, 10_000),
       st.sampled_from([(2048, 1), (4096, 2), (8192, 4)]))
@settings(max_examples=15, deadline=None)
def test_uniprocessor_engines_match_reference(engine, seed, geometry):
    l2_size, l2_assoc = geometry
    trace = random_trace(seed, 1)
    machine = machine_for(1, l2_size, l2_assoc)
    got = System(machine, engine=engine).run(trace)
    ref_total, ref_misses = reference_run(machine, random_trace(seed, 1))
    assert got.breakdown.total == ref_total
    assert got.misses.as_dict() == ref_misses.as_dict()


@pytest.mark.parametrize("engine", ["general", "vectorized-mp"])
@given(st.integers(0, 10_000), st.sampled_from([2, 4]),
       st.sampled_from([(2048, 1), (4096, 2), (8192, 4)]))
@settings(max_examples=15, deadline=None)
def test_multiprocessor_engines_match_reference(engine, seed, ncpus, geometry):
    l2_size, l2_assoc = geometry
    trace = random_trace(seed, ncpus)
    machine = machine_for(ncpus, l2_size, l2_assoc)
    got = System(machine, engine=engine).run(trace)
    ref_total, ref_misses = reference_run(machine, random_trace(seed, ncpus))
    assert got.breakdown.total == ref_total
    assert got.misses.as_dict() == ref_misses.as_dict()


@pytest.mark.parametrize("engine", ["general", "vectorized"])
def test_engines_match_reference_small_caches(engine):
    """Heavy eviction pressure: tiny L2 forces constant replacement."""
    trace = random_trace(99, 1, nquanta=120, nlines=200)
    machine = machine_for(1, 1024, 1)
    got = System(machine, engine=engine).run(trace)
    ref_total, ref_misses = reference_run(
        machine, random_trace(99, 1, nquanta=120, nlines=200)
    )
    assert got.breakdown.total == ref_total
    assert got.misses.as_dict() == ref_misses.as_dict()


def test_multiprocessor_small_caches_matches_reference():
    trace = random_trace(99, 4, nquanta=120, nlines=200)
    machine = machine_for(4, 1024, 1)
    got = System(machine).run(trace)
    ref_total, ref_misses = reference_run(
        machine, random_trace(99, 4, nquanta=120, nlines=200)
    )
    assert got.breakdown.total == ref_total
    assert got.misses.as_dict() == ref_misses.as_dict()
