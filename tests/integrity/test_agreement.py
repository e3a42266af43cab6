"""Property test: the checked scalar loop agrees with the staged engines.

The scalar ``general`` loop is the reference every staged engine is
held to.  Running it under per-quantum checking on randomized traces
asserts that every intermediate machine state it passes through is
legal, and comparing it with the engine ``auto`` selects (which
cannot host per-quantum checks) asserts that both produce the same
statistics.
"""

import random

import pytest

from repro.core.machine import MachineConfig
from repro.core.system import System
from repro.cpu.events import encode
from repro.trace.synthetic import make_trace


def _random_trace(seed, ncpus=4):
    rng = random.Random(seed)
    body = []
    for _ in range(80):
        refs = []
        for _ in range(rng.randint(1, 35)):
            instr = rng.random() < 0.35
            refs.append(encode(
                rng.randrange(500),
                write=not instr and rng.random() < 0.4,
                instr=instr,
                kernel=rng.random() < 0.25,
            ))
        body.append((rng.randrange(ncpus), refs))
    return make_trace(ncpus, body, page_bytes=256,
                      warmup_quanta=rng.randrange(20))


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_loops_agree_under_per_quantum_checking(seed):
    machine = MachineConfig.base(4, l2_size=8192, l2_assoc=2, scale=1)
    checked_sys = System(machine, check="per-quantum")
    checked = checked_sys.run(_random_trace(seed))
    staged_sys = System(machine)
    staged = staged_sys.run(_random_trace(seed))

    assert checked_sys.engine == "general"
    assert staged_sys.engine == "vectorized-mp"
    assert checked_sys.checker.checks_run > 1
    assert checked.breakdown.total == staged.breakdown.total
    assert checked.misses.as_dict() == staged.misses.as_dict()
    assert checked.l1.i_refs == staged.l1.i_refs
    assert checked.l1.d_refs == staged.l1.d_refs
    assert checked.l2_hits == staged.l2_hits
    assert checked.trace_refs == staged.trace_refs


@pytest.mark.parametrize("seed", [11, 12])
def test_uniprocessor_agreement(seed):
    machine = MachineConfig.integrated_l2_mc(l2_size=16384, l2_assoc=4, scale=1)
    checked_sys = System(machine, check="per-quantum")
    checked = checked_sys.run(_random_trace(seed, ncpus=1))
    staged_sys = System(machine)
    staged = staged_sys.run(_random_trace(seed, ncpus=1))
    assert checked_sys.engine == "general"
    assert staged_sys.engine == "vectorized"
    assert checked.breakdown.total == staged.breakdown.total
    assert checked.misses.as_dict() == staged.misses.as_dict()
