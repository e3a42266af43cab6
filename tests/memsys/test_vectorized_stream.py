"""Direct kernel calls with chunk-streamed traces.

The vectorized kernels normalize a
:class:`~repro.trace.stream.StreamedTrace` at their own entry by
collecting it, so ``System.run`` and *direct* callers — anything
invoking ``replay_uniprocessor`` / ``replay_multiprocessor`` without
going through ``System`` — get the same bit-identical results.  These
tests exercise that entry-point contract by driving the kernels
exactly the way ``System.run`` wires them up (homemap → protocol →
interconnect).
"""

from __future__ import annotations

import pytest

from repro.coherence.homemap import HomeMap
from repro.coherence.network import InterconnectModel
from repro.coherence.protocol import DirectoryProtocol
from repro.core.machine import MachineConfig
from repro.core.system import System
from repro.memsys.vectorized import replay_uniprocessor
from repro.memsys.vectorized_mp import replay_multiprocessor
from repro.trace.generator import build_trace
from repro.trace.stream import StreamedTrace

SCALE = 128

#: Chunkings per streamed replay: degenerate single-quantum chunks, a
#: prime stride that never divides the quantum count, and the whole
#: trace as one chunk.
CHUNKS = [1, 7, None]
CHUNK_IDS = ["chunk1", "chunk7", "whole"]


@pytest.fixture(scope="module")
def uni():
    return build_trace(ncpus=1, scale=SCALE, txns=40, warmup_txns=20,
                       seed=13)


@pytest.fixture(scope="module")
def mp():
    return build_trace(ncpus=2, scale=SCALE, txns=60, warmup_txns=24,
                       seed=13)


def run_kernel(machine: MachineConfig, trace, kernel, engine: str) -> dict:
    """Invoke a replay kernel the way ``System.run`` does, skipping the
    System-level stream pre-collect so the kernel's own normalization
    is what handles a streamed ``trace``."""
    system = System(machine, engine=engine)
    system._ran = True
    replicated = None
    if machine.replicate_code:
        text_pages = trace.text_pages
        page_lines_shift = (trace.page_bytes // 64).bit_length() - 1
        replicated = lambda line: (line >> page_lines_shift) in text_pages  # noqa: E731
    homemap = HomeMap(machine.num_nodes, trace.page_bytes, replicated)
    protocol = system.protocol = DirectoryProtocol(
        homemap, system.nodes, system.racs)
    net = InterconnectModel(machine.latencies)
    kernel(system, trace, protocol, net)
    for cpu in system.cpus:
        cpu.drain()
    return system._collect(trace, protocol, net).to_dict()


class TestUniprocessorKernel:
    @pytest.mark.parametrize("chunk", CHUNKS, ids=CHUNK_IDS)
    def test_streamed_input_identical(self, uni, chunk):
        machine = MachineConfig.base(1, scale=SCALE)
        base = run_kernel(machine, uni, replay_uniprocessor, "vectorized")
        stream = StreamedTrace.from_trace(uni, chunk)
        streamed = run_kernel(machine, stream, replay_uniprocessor,
                              "vectorized")
        assert streamed == base
        # The kernel consumed the stream via collect(): the validating
        # iterator saw every quantum and reference.
        assert stream.consumed
        assert stream.quanta_seen == len(uni.quanta)
        assert stream.refs_seen == uni.total_refs
        assert stream.measured_refs == base["trace_refs"]

    def test_stream_single_use_after_kernel(self, uni):
        machine = MachineConfig.base(1, scale=SCALE)
        stream = StreamedTrace.from_trace(uni, 5)
        run_kernel(machine, stream, replay_uniprocessor, "vectorized")
        with pytest.raises(Exception):
            stream.collect()


class TestMultiprocessorKernel:
    @pytest.mark.parametrize("chunk", CHUNKS, ids=CHUNK_IDS)
    def test_streamed_input_identical(self, mp, chunk):
        machine = MachineConfig.fully_integrated(2, scale=SCALE)
        base = run_kernel(machine, mp, replay_multiprocessor,
                          "vectorized-mp")
        stream = StreamedTrace.from_trace(mp, chunk)
        streamed = run_kernel(machine, stream, replay_multiprocessor,
                              "vectorized-mp")
        assert streamed == base
        assert stream.consumed
        assert stream.quanta_seen == len(mp.quanta)

    def test_matches_system_run(self, mp):
        """The direct-call path reproduces ``System.run`` end to end."""
        machine = MachineConfig.fully_integrated(2, scale=SCALE)
        via_system = System(machine, engine="vectorized-mp").run(
            StreamedTrace.from_trace(mp, 7)).to_dict()
        direct = run_kernel(machine, StreamedTrace.from_trace(mp, 7),
                            replay_multiprocessor, "vectorized-mp")
        assert direct == via_system
