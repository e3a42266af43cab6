"""Multi-engine differential harness.

Parametrized sweeps asserting that the replay engines — the scalar
``general`` loop, the numpy ``vectorized`` kernel and the staged
``vectorized-mp`` pipeline — produce **equal** ``RunResult.to_dict()``
payloads wherever their domains overlap, with ``general`` as the pivot.

The uniprocessor grid covers L2 sizes × associativities × SRAM/DRAM
technology × TLB on/off, in-order and out-of-order CPUs, with and
without a warmup window.  The multiprocessor grid covers 2/8 nodes ×
RAC on/off × instruction replication on/off × in-order/OOO, which
exercises both of the staged pipeline's execution modes (batch and
stream) and all three of its flat-L2 representations.

Equality of the full serialized result is the contract that lets
cached campaign results stay valid across engines without a
``CODE_VERSION`` bump: any field drifting — breakdowns, miss
taxonomies, L1 stats, directory counters — fails here first.

TLB-on cells are the negative half of the grid: the staged engines
must *refuse* them (ConfigError) and auto-selection must fall back to
the general engine, rather than silently mis-replaying.
"""

import random

import pytest

from repro.core.machine import MachineConfig
from repro.core.system import ENGINES, System
from repro.cpu.events import encode
from repro.integrity.errors import ConfigError
from repro.params import KB, IntegrationLevel, L2Technology
from repro.trace.synthetic import make_trace

PAGE = 256


def synthetic_trace(seed, *, nquanta=60, nlines=300, warmup=0):
    """Seeded uniprocessor trace with enough distinct lines to force
    eviction pressure on the small grid geometries."""
    rng = random.Random(seed)
    quanta = []
    for _ in range(nquanta):
        refs = []
        for _ in range(rng.randint(4, 40)):
            instr = rng.random() < 0.4
            refs.append(
                encode(
                    rng.randrange(nlines),
                    write=(not instr) and rng.random() < 0.4,
                    instr=instr,
                    kernel=rng.random() < 0.2,
                )
            )
        quanta.append((0, refs))
    return make_trace(1, quanta, page_bytes=PAGE, warmup_quanta=warmup)


def synthetic_mp_trace(seed, ncpus, *, nquanta=120, warmup=10,
                       replicate=False):
    """Seeded multiprocessor trace mixing per-CPU private working sets,
    a contended shared pool and (optionally replicated) kernel text, so
    every sharing class and miss kind shows up in the sweep."""
    rng = random.Random(seed)
    page_lines = PAGE // 64
    text_pages = frozenset(range(1000, 1004)) if replicate else frozenset()
    quanta = []
    for _ in range(nquanta):
        cpu = rng.randrange(ncpus)
        refs = []
        for _ in range(rng.randint(4, 60)):
            instr = rng.random() < 0.3
            if instr and text_pages and rng.random() < 0.5:
                line = 1000 * page_lines + rng.randrange(4 * page_lines)
            elif rng.random() < 0.5:
                line = 10000 * (cpu + 1) + rng.randrange(250)  # private
            else:
                line = 500 + rng.randrange(300)  # shared, contended
            refs.append(
                encode(
                    line,
                    write=(not instr) and rng.random() < 0.4,
                    instr=instr,
                    kernel=rng.random() < 0.2,
                    dependent=rng.random() < 0.3,
                )
            )
        quanta.append((cpu, refs))
    return make_trace(ncpus, quanta, page_bytes=PAGE,
                      warmup_quanta=warmup, text_pages=text_pages)


def grid_machine(l2_size, l2_assoc, technology, cpu_model="inorder",
                 tlb_entries=0):
    """One grid cell; scale=1 so the geometry is exactly as stated."""
    if technology is L2Technology.OFF_CHIP_SRAM:
        integration = IntegrationLevel.BASE
    else:
        integration = IntegrationLevel.L2
    return MachineConfig(
        label=f"diff {l2_size // KB}K{l2_assoc}w {technology.value}",
        ncpus=1,
        integration=integration,
        l2_size=l2_size,
        l2_assoc=l2_assoc,
        l2_technology=technology,
        cpu_model=cpu_model,
        tlb_entries=tlb_entries,
        scale=1,
    )


GEOMETRIES = [
    (2 * KB, 1),    # direct-mapped, heavy eviction
    (4 * KB, 2),    # hybrid: some sets overflow
    (8 * KB, 4),    # 4-way, overflow-dominated (specialized walk)
    (16 * KB, 4),   # 4-way, mixed overflow/known-outcome schedule
    (32 * KB, 8),   # no-evict: every set holds its footprint
]
TECHNOLOGIES = [
    L2Technology.OFF_CHIP_SRAM,
    L2Technology.ON_CHIP_SRAM,
    L2Technology.ON_CHIP_DRAM,
]


def run_all_engines(machine, trace):
    """Replay ``trace`` once per engine; Systems are single-use."""
    return {
        engine: System(machine, engine=engine).run(trace).to_dict()
        for engine in ("general", "vectorized")
    }


class TestThreeEngineEquivalence:
    @pytest.mark.parametrize("technology", TECHNOLOGIES,
                             ids=lambda t: t.value)
    @pytest.mark.parametrize("geometry", GEOMETRIES,
                             ids=lambda g: f"{g[0] // KB}K{g[1]}w")
    @pytest.mark.parametrize("seed,warmup", [(3, 0), (11, 12)])
    def test_runresults_identical(self, seed, warmup, geometry, technology):
        l2_size, l2_assoc = geometry
        machine = grid_machine(l2_size, l2_assoc, technology)
        trace = synthetic_trace(seed, warmup=warmup)
        results = run_all_engines(machine, trace)
        assert results["vectorized"] == results["general"]

    @pytest.mark.parametrize("geometry", [(2 * KB, 1), (2 * KB, 4),
                                          (4 * KB, 2), (16 * KB, 4),
                                          (32 * KB, 8)],
                             ids=lambda g: f"{g[0] // KB}K{g[1]}w")
    def test_runresults_identical_ooo(self, geometry):
        l2_size, l2_assoc = geometry
        machine = grid_machine(l2_size, l2_assoc,
                               L2Technology.ON_CHIP_SRAM, cpu_model="ooo")
        trace = synthetic_trace(17, warmup=8)
        results = run_all_engines(machine, trace)
        assert results["vectorized"] == results["general"]

    def test_auto_selection_matches_forced_engines(self):
        machine = grid_machine(4 * KB, 2, L2Technology.OFF_CHIP_SRAM)
        trace = synthetic_trace(5)
        auto_sys = System(machine)
        assert auto_sys.engine == "vectorized"
        auto = auto_sys.run(trace).to_dict()
        assert auto == System(machine, engine="general").run(trace).to_dict()


class TestTlbCells:
    """TLB-on half of the grid: only the general engine may replay."""

    def tlb_machine(self):
        return grid_machine(4 * KB, 2, L2Technology.OFF_CHIP_SRAM,
                            tlb_entries=4)

    def test_vectorized_refuses_tlb(self):
        with pytest.raises(ConfigError):
            System(self.tlb_machine(), engine="vectorized")

    def test_vectorized_mp_refuses_tlb(self):
        machine = mp_machine(2).with_(tlb_entries=4)
        with pytest.raises(ConfigError):
            System(machine, engine="vectorized-mp")

    def test_auto_falls_back_to_general(self):
        machine = self.tlb_machine()
        assert System.select_engine(machine) == "general"
        system = System(machine)
        assert system.engine == "general"
        system.run(synthetic_trace(5))  # replays without error

    def test_machine_reports_not_vectorizable(self):
        assert not self.tlb_machine().vectorizable
        assert grid_machine(4 * KB, 2, L2Technology.OFF_CHIP_SRAM).vectorizable


def mp_machine(ncpus, *, rac_size=None, replicate=False,
               cpu_model="inorder", l2_assoc=4):
    """One multiprocessor grid cell; scale=1 geometry."""
    return MachineConfig(
        label=f"mp-diff n{ncpus} {l2_assoc}w"
              f"{' rac' if rac_size else ''}{' repl' if replicate else ''}",
        ncpus=ncpus,
        integration=IntegrationLevel.L2,
        l2_size=16 * KB,
        l2_assoc=l2_assoc,
        l2_technology=L2Technology.ON_CHIP_SRAM,
        cpu_model=cpu_model,
        rac_size=rac_size,
        replicate_code=replicate,
        scale=1,
    )


def run_mp_engines(machine, trace):
    """Replay ``trace`` once per MP-capable engine."""
    return {
        engine: System(machine, engine=engine).run(trace).to_dict()
        for engine in ("general", "vectorized-mp")
    }


class TestMultiprocessorEquivalence:
    """The staged pipeline's differential cells: 2/8 nodes × RAC ×
    instruction replication × in-order/OOO."""

    @pytest.mark.parametrize("cpu_model", ["inorder", "ooo"])
    @pytest.mark.parametrize("replicate", [False, True],
                             ids=["plain", "repl"])
    @pytest.mark.parametrize("rac", [None, 256 * KB],
                             ids=["norac", "rac"])
    @pytest.mark.parametrize("ncpus", [2, 8])
    def test_runresults_identical(self, ncpus, rac, replicate, cpu_model):
        machine = mp_machine(ncpus, rac_size=rac, replicate=replicate,
                             cpu_model=cpu_model)
        trace = synthetic_mp_trace(9, ncpus, replicate=replicate)
        results = run_mp_engines(machine, trace)
        assert results["vectorized-mp"] == results["general"]

    @pytest.mark.parametrize("l2_assoc", [1, 2, 8],
                             ids=lambda a: f"{a}w")
    def test_runresults_identical_across_l2_modes(self, l2_assoc):
        """Direct-mapped, overflowing and no-evict L2 footprints pick
        different flat representations; all must stay exact."""
        machine = mp_machine(4, l2_assoc=l2_assoc)
        trace = synthetic_mp_trace(21, 4)
        results = run_mp_engines(machine, trace)
        assert results["vectorized-mp"] == results["general"]

    def test_no_warmup_boundary(self):
        machine = mp_machine(2)
        trace = synthetic_mp_trace(13, 2, warmup=0)
        results = run_mp_engines(machine, trace)
        assert results["vectorized-mp"] == results["general"]

    def test_end_of_run_checker_accepts_reconstructed_state(self):
        """The engine rebuilds directory entries for private lines at
        the end of the run; the integrity checker must see a state
        indistinguishable from the scalar loop's."""
        machine = mp_machine(8)
        trace = synthetic_mp_trace(9, 8)
        a = System(machine, engine="vectorized-mp",
                   check="end-of-run").run(trace).to_dict()
        b = System(machine, engine="general",
                   check="end-of-run").run(trace).to_dict()
        assert a == b

    def test_auto_selection_matches_forced(self):
        machine = mp_machine(8)
        trace = synthetic_mp_trace(9, 8)
        auto_sys = System(machine)
        assert auto_sys.engine == "vectorized-mp"
        auto = auto_sys.run(trace).to_dict()
        assert auto == System(machine, engine="general").run(trace).to_dict()


class TestEngineSelection:
    def test_engines_tuple_is_the_contract(self):
        assert ENGINES == ("auto", "general", "vectorized", "vectorized-mp")
        for retired in ("turbo", "fast"):
            with pytest.raises(ConfigError):
                System.select_engine(MachineConfig.base(1), engine=retired)

    def test_uniprocessor_auto_selects_vectorized(self):
        assert System.select_engine(MachineConfig.base(1)) == "vectorized"

    def test_multiprocessor_auto_selects_vectorized_mp(self):
        assert System.select_engine(MachineConfig.base(8)) == "vectorized-mp"

    def test_vectorized_mp_refuses_uniprocessor(self):
        with pytest.raises(ConfigError):
            System.select_engine(MachineConfig.base(1),
                                 engine="vectorized-mp")

    def test_per_quantum_checking_vetoes_vectorized(self):
        machine = MachineConfig.base(1)
        assert System.select_engine(machine, check="per-quantum") == "general"
        with pytest.raises(ConfigError):
            System.select_engine(machine, check="per-quantum",
                                 engine="vectorized")

    def test_per_quantum_checking_vetoes_vectorized_mp(self):
        machine = MachineConfig.base(8)
        assert System.select_engine(machine, check="per-quantum") == "general"
        with pytest.raises(ConfigError):
            System.select_engine(machine, check="per-quantum",
                                 engine="vectorized-mp")

    def test_fault_plan_vetoes_vectorized(self):
        machine = MachineConfig.base(1)
        assert System.select_engine(machine, fault_plan=object()) == "general"

    def test_fault_plan_vetoes_vectorized_mp(self):
        machine = MachineConfig.base(8)
        assert System.select_engine(machine, fault_plan=object()) == "general"

    def test_non_two_way_l1_routes_to_general(self, monkeypatch):
        """The staged engines' flat L1 state models 2-way L1s only."""
        import repro.core.system as system_module

        monkeypatch.setattr(system_module, "L1_ASSOC", 4)
        for machine, staged in ((MachineConfig.base(1), "vectorized"),
                                (MachineConfig.base(8), "vectorized-mp")):
            assert System.select_engine(machine) == "general"
            with pytest.raises(ConfigError):
                System.select_engine(machine, engine=staged)

    def test_engine_is_not_part_of_job_identity(self):
        """Cached results must stay valid whatever engine produced
        them: the SimJob content hash may not include the engine."""
        from repro.runner.jobs import SimJob
        from repro.runner.tracestore import TraceSpec

        spec = TraceSpec(ncpus=1, scale=64, txns=20, seed=1)
        job = SimJob(spec=spec, machine=MachineConfig.base(1))
        assert "engine" not in repr(job.payload()).lower()


class TestMalformedReferences:
    """An instruction fetch carrying the write flag is never emitted by
    the OLTP generator.  Every engine must reject it the same way,
    materialized or streamed, rather than replay it with
    engine-specific results."""

    @pytest.mark.parametrize("streamed", [False, True],
                             ids=["materialized", "streamed"])
    @pytest.mark.parametrize("engine",
                             ["general", "vectorized", "vectorized-mp"])
    def test_ifetch_with_write_flag_is_rejected(self, engine, streamed):
        from repro.integrity.errors import TraceMismatchError
        from repro.trace.stream import StreamedTrace

        if engine == "vectorized-mp":
            machine = mp_machine(2)
        else:
            machine = grid_machine(2 * KB, 1, L2Technology.OFF_CHIP_SRAM)
        last = machine.ncpus - 1
        trace = make_trace(machine.ncpus, [
            (0, [encode(1), encode(2, write=True), encode(3, instr=True)]),
            (last, [encode(4, instr=True), encode(5, write=True, instr=True)]),
        ], page_bytes=PAGE)
        if streamed:
            trace = StreamedTrace.from_trace(trace, 1)
        with pytest.raises(TraceMismatchError, match="write flag"):
            System(machine, engine=engine).run(trace)


# Chunk sizes for the streaming cells: single-quantum (maximum chunk
# count, boundary inside some chunk), a prime (misaligned with every
# geometry), and whole-trace (one chunk, the degenerate case).
STREAM_CHUNKS = [1, 7, None]
STREAM_CHUNK_IDS = ["q1", "q7", "whole"]


class TestStreamingEquivalence:
    """Chunked replay differential: every engine cell re-run through
    the streaming path must be value-identical to its materialized
    replay at every chunk size.

    ``StreamedTrace.from_trace`` re-presents the same trace as a
    single-use chunk iterator, so any divergence here isolates a bug
    in the streaming seam itself (chunk iteration, warmup-boundary
    normalization, ``collect()`` for the vectorized engines) rather
    than in an engine.
    """

    @pytest.mark.parametrize("technology", TECHNOLOGIES,
                             ids=lambda t: t.value)
    @pytest.mark.parametrize("geometry", GEOMETRIES,
                             ids=lambda g: f"{g[0] // KB}K{g[1]}w")
    def test_uniprocessor_cells(self, geometry, technology):
        from repro.trace.stream import StreamedTrace

        l2_size, l2_assoc = geometry
        machine = grid_machine(l2_size, l2_assoc, technology)
        trace = synthetic_trace(11, warmup=12)
        for engine in ("general", "vectorized"):
            base = System(machine, engine=engine).run(trace).to_dict()
            for chunk in STREAM_CHUNKS:
                streamed = System(machine, engine=engine).run(
                    StreamedTrace.from_trace(trace, chunk)
                ).to_dict()
                assert streamed == base, (engine, chunk)

    @pytest.mark.parametrize("chunk", STREAM_CHUNKS, ids=STREAM_CHUNK_IDS)
    def test_uniprocessor_no_warmup(self, chunk):
        from repro.trace.stream import StreamedTrace

        machine = grid_machine(4 * KB, 2, L2Technology.ON_CHIP_SRAM)
        trace = synthetic_trace(3, warmup=0)
        for engine in ("general", "vectorized"):
            base = System(machine, engine=engine).run(trace).to_dict()
            streamed = System(machine, engine=engine).run(
                StreamedTrace.from_trace(trace, chunk)
            ).to_dict()
            assert streamed == base, engine

    @pytest.mark.parametrize("ncpus", [2, 8])
    def test_multiprocessor_cells(self, ncpus):
        from repro.trace.stream import StreamedTrace

        machine = mp_machine(ncpus, rac_size=256 * KB, replicate=True)
        trace = synthetic_mp_trace(9, ncpus, replicate=True)
        for engine in ("general", "vectorized-mp"):
            base = System(machine, engine=engine).run(trace).to_dict()
            for chunk in STREAM_CHUNKS:
                streamed = System(machine, engine=engine).run(
                    StreamedTrace.from_trace(trace, chunk)
                ).to_dict()
                assert streamed == base, (engine, chunk)

    def test_ooo_streamed_cell(self):
        from repro.trace.stream import StreamedTrace

        machine = grid_machine(8 * KB, 4, L2Technology.ON_CHIP_SRAM,
                               cpu_model="ooo")
        trace = synthetic_trace(17, warmup=8)
        base = System(machine, engine="general").run(trace).to_dict()
        streamed = System(machine, engine="general").run(
            StreamedTrace.from_trace(trace, 7)).to_dict()
        assert streamed == base

    def test_stream_is_single_use(self):
        from repro.integrity.errors import StateError
        from repro.trace.stream import StreamedTrace

        machine = grid_machine(4 * KB, 2, L2Technology.OFF_CHIP_SRAM)
        trace = synthetic_trace(5)
        stream = StreamedTrace.from_trace(trace, 7)
        System(machine, engine="general").run(stream)
        with pytest.raises(StateError):
            System(machine, engine="general").run(stream)
