"""The system simulator: replays a trace against one machine config.

This is the reproduction's equivalent of SimOS-Alpha's memory-system
timing loop.  For every packed reference in the trace it walks the
node's L1/L2 hierarchy, invokes the directory protocol on L2 misses
and ownership upgrades, charges the configuration's Figure-3 latencies
through the CPU timing model, and accumulates the paper's statistics.

Three replay engines implement identical semantics:

* ``_run_general`` — the scalar reference loop over the
  :class:`~repro.memsys.hierarchy.NodeCaches` API.  It replays every
  configuration (chip multiprocessing, victim buffers, software TLBs,
  fault plans, per-quantum checking) and is the contract the other two
  engines are held to.
* ``vectorized`` — the numpy kernel in :mod:`repro.memsys.vectorized`
  for coherence-free uniprocessor configurations; selected
  automatically and value-identical to ``_run_general`` by contract.
* ``vectorized-mp`` — the staged multiprocessor pipeline in
  :mod:`repro.memsys.vectorized_mp`: a sharing-census pre-pass
  (:func:`repro.trace.census.sharing_census`) splits lines into
  provably-private and potentially-shared classes, per-quantum walks
  replay the private hierarchy in bulk, and only the compact
  shared-line event stream reaches the directory protocol
  (:class:`repro.coherence.core.CoherenceCore`), with timing charged
  per quantum by :mod:`repro.cpu.timing`.  Also value-identical to
  ``_run_general`` by contract.

:meth:`System.select_engine` is the single source of truth for the
dispatch; ``engine=`` overrides it so every path stays reachable.  The
test suite cross-checks the engines against an independent reference
implementation (``tests/core/test_reference_model.py``) and against
each other (``tests/core/test_differential.py``).
"""

from __future__ import annotations

from typing import List, Optional

from repro.coherence.core import KIND_TO_STALL
from repro.coherence.homemap import HomeMap
from repro.coherence.network import InterconnectModel
from repro.coherence.protocol import DirectoryProtocol
from repro.core.machine import MachineConfig
from repro.core.results import RunResult
from repro.cpu.inorder import InOrderCPU
from repro.cpu.ooo import OutOfOrderCPU
from repro.integrity.checker import Checker, CheckLevel
from repro.integrity.errors import ConfigError, StateError, TraceMismatchError
from repro.memsys.hierarchy import HierarchyLevel, NodeCaches
from repro.memsys.rac import RemoteAccessCache
from repro.obs import NULL_TRACER, current_metrics, current_tracer
from repro.params import (
    INSTRS_PER_ILINE,
    L1_ASSOC,
    LINE_SIZE,
    TLB_WALK_CYCLES,
    VICTIM_HIT_EXTRA,
)
from repro.stats.breakdown import (
    ExecutionBreakdown,
    L1Stats,
    MissBreakdown,
    ProtocolStats,
    RacStats,
)
from repro.trace.stream import is_streaming, iter_quanta

#: Replay engines accepted by :class:`System` and :func:`simulate`.
ENGINES = ("auto", "general", "vectorized", "vectorized-mp")


class System:
    """A single-use simulator instance for one machine configuration.

    ``check`` selects the integrity-checking tier (``"off"``,
    ``"end-of-run"``, ``"per-quantum"``; see
    :class:`~repro.integrity.checker.CheckLevel`).  ``fault_plan``
    deliberately corrupts state mid-run to mutation-test the checker
    (see :class:`~repro.integrity.faults.FaultPlan`).

    ``engine`` pins the replay engine: ``"auto"`` (default) applies
    :meth:`select_engine`, the explicit names force one path and raise
    :class:`~repro.integrity.errors.ConfigError` when the configuration
    cannot run on it.  All engines produce value-identical results
    wherever their domains overlap.
    """

    def __init__(self, machine: MachineConfig, *, check="off",
                 fault_plan=None, engine: str = "auto"):
        self.machine = machine
        self.checker = Checker(check)
        self.fault_plan = fault_plan
        self.engine = self.select_engine(
            machine, check=check, fault_plan=fault_plan, engine=engine,
        )
        self.nodes: List[NodeCaches] = [
            NodeCaches(
                machine.scaled_l2_size,
                machine.l2_assoc,
                l1_size=machine.scaled_l1_size,
                l1_assoc=L1_ASSOC,
                num_cores=machine.cores_per_node,
                victim_entries=machine.victim_entries,
                node_id=i,
            )
            for i in range(machine.num_nodes)
        ]
        cpu_cls = OutOfOrderCPU if machine.cpu_model == "ooo" else InOrderCPU
        self.cpus = [cpu_cls(i) for i in range(machine.ncpus)]
        self.racs: Optional[List[RemoteAccessCache]] = None
        if machine.scaled_rac_size is not None:
            self.racs = [
                RemoteAccessCache(machine.scaled_rac_size, machine.rac_assoc, node_id=i)
                for i in range(machine.num_nodes)
            ]
        self.misses = MissBreakdown()
        self.l1 = L1Stats()
        self.l2_hits = 0
        self.victim_hits = 0
        self.tlb_misses = 0
        self.writes = 0
        self.protocol: Optional[DirectoryProtocol] = None
        self._ran = False
        # Observability: bound per-run by run() from the process-wide
        # tracer/metrics.  The null defaults keep every engine's
        # instrumentation site a no-op when observability is off.
        self._tracer = NULL_TRACER
        self._sampler = None

    # -- engine selection ---------------------------------------------------------

    @staticmethod
    def select_engine(machine: MachineConfig, *, check="off",
                      fault_plan=None, engine: str = "auto") -> str:
        """Resolve the replay engine for a configuration.

        This is the dispatch rule ``run`` uses and the provenance the
        campaign runner records per job; it depends only on the machine
        and run options, never on the trace.  ``auto`` picks a staged
        engine where one accepts the configuration and ``general``
        everywhere else.
        """
        if engine not in ENGINES:
            raise ConfigError(
                f"unknown engine {engine!r}; choose one of {', '.join(ENGINES)}"
            )
        if engine == "general":
            return "general"
        # The staged engines keep flat state that reaches the cache
        # objects only when the run ends, so they host neither a fault
        # plan nor per-quantum checks; their flat L1s are 2-way only.
        staged_ok = (
            fault_plan is None
            and CheckLevel.coerce(check) is not CheckLevel.PER_QUANTUM
            and L1_ASSOC == 2
        )
        vector_ok = staged_ok and machine.vectorizable
        mp_ok = staged_ok and machine.mp_vectorizable
        if engine == "vectorized":
            if not vector_ok:
                raise ConfigError(
                    "engine='vectorized' supports only single-node, "
                    "single-core machines with 2-way L1s and no victim "
                    "buffer, TLB, RAC, fault plan or per-quantum checking"
                )
            return "vectorized"
        if engine == "vectorized-mp":
            if not mp_ok:
                raise ConfigError(
                    "engine='vectorized-mp' supports only multi-node "
                    "machines with one core per node, 2-way L1s and no "
                    "victim buffer, TLB, fault plan or per-quantum checking"
                )
            return "vectorized-mp"
        if vector_ok:
            return "vectorized"
        if mp_ok:
            return "vectorized-mp"
        return "general"

    # -- measurement reset at the warmup boundary --------------------------------

    def _reset_measurement(self, protocol: DirectoryProtocol,
                           net: InterconnectModel) -> None:
        self.misses = MissBreakdown()
        self.l1 = L1Stats()
        self.l2_hits = 0
        self.victim_hits = 0
        self.tlb_misses = 0
        self.writes = 0
        for cpu in self.cpus:
            cpu.reset()
        for node in self.nodes:
            node.reset_stats()
        if self.racs is not None:
            for rac in self.racs:
                rac.reset_stats()
        protocol.upgrades = 0
        protocol.invalidations = 0
        protocol.writebacks = 0
        protocol.interventions = 0
        net.counters.reset()

    def _measurement_boundary(self, protocol: DirectoryProtocol,
                              net: InterconnectModel, i_refs, i_miss,
                              d_refs, d_miss, l2hits, writes,
                              victimhits=0):
        """Cross the warmup/measurement boundary, one way for all engines.

        Flushes the engine's run-long accumulators, zeroes every
        statistic, and returns the fresh ``misses.record`` bound method
        so engines that cache it can rebind in one step.
        """
        self._flush_counters(
            i_refs, i_miss, d_refs, d_miss, l2hits, writes, victimhits
        )
        self._reset_measurement(protocol, net)
        return self.misses.record

    # -- public entry ---------------------------------------------------------------

    def _validate_trace(self, trace) -> None:
        """Reject traces this machine cannot meaningfully replay."""
        machine = self.machine
        if trace.ncpus != machine.ncpus:
            raise TraceMismatchError(
                f"trace was generated for {trace.ncpus} CPUs, machine has "
                f"{machine.ncpus}; regenerate the trace or pick a matching "
                "machine configuration"
            )
        page_lines = trace.page_bytes // LINE_SIZE
        if (trace.page_bytes % LINE_SIZE or page_lines < 1
                or page_lines & (page_lines - 1)):
            raise TraceMismatchError(
                f"page_bytes={trace.page_bytes} must be a power-of-two "
                f"multiple of the {LINE_SIZE} B line size"
            )
        if is_streaming(trace):
            # The quanta-dependent checks (emptiness, warmup range,
            # per-quantum CPU range) fire inside the stream's
            # validating chunk iterator as it is consumed.
            return
        if not trace.quanta:
            raise TraceMismatchError(
                "trace has no scheduling quanta; nothing to replay"
            )
        warmup = trace.warmup_quanta
        if not 0 <= warmup < len(trace.quanta):
            raise TraceMismatchError(
                f"warmup_quanta={warmup} leaves no measured quanta "
                f"(trace has {len(trace.quanta)}); lower the warmup or "
                "lengthen the trace"
            )
        bad = next((q.cpu for q in trace.quanta
                    if not 0 <= q.cpu < machine.ncpus), None)
        if bad is not None:
            raise TraceMismatchError(
                f"trace schedules CPU {bad}, but the machine has CPUs "
                f"0..{machine.ncpus - 1}"
            )

    def run(self, trace) -> RunResult:
        """Replay ``trace`` and return the measured statistics."""
        machine = self.machine
        self._validate_trace(trace)
        if self._ran:
            raise StateError("System instances are single-use; build a new one")
        self._ran = True

        tracer = self._tracer = current_tracer()
        metrics = current_metrics()
        if metrics.enabled and self.engine != "vectorized":
            # The vectorized uniprocessor kernel replays out of trace
            # order (batched by structure, not by quantum), so it has
            # no per-quantum sampling point; it reports end-of-run
            # aggregates only.
            self._sampler = metrics.new_series(
                label=machine.label, engine=self.engine,
                ncpus=machine.ncpus, num_nodes=machine.num_nodes,
                l2_bytes=machine.scaled_l2_size, l2_assoc=machine.l2_assoc,
            )

        replicated = None
        if machine.replicate_code:
            text_pages = trace.text_pages
            page_lines_shift = (trace.page_bytes // 64).bit_length() - 1
            replicated = lambda line: (line >> page_lines_shift) in text_pages  # noqa: E731
        homemap = HomeMap(machine.num_nodes, trace.page_bytes, replicated)
        protocol = self.protocol = DirectoryProtocol(homemap, self.nodes, self.racs)
        net = InterconnectModel(machine.latencies, machine.topology)

        with tracer.span("system.run", label=machine.label,
                         engine=self.engine, ncpus=machine.ncpus):
            with tracer.span(f"engine.{self.engine}"):
                # The staged engines collect a chunk-streamed trace:
                # their structural passes need the whole stream at once.
                if self.engine == "vectorized":
                    from repro.memsys.vectorized import replay_uniprocessor
                    replay_uniprocessor(self, trace, protocol, net)
                elif self.engine == "vectorized-mp":
                    from repro.memsys.vectorized_mp import (
                        replay_multiprocessor,
                    )
                    replay_multiprocessor(self, trace, protocol, net)
                else:
                    self._run_general(trace, protocol, net)

            for cpu in self.cpus:
                cpu.drain()
            if self.checker.enabled:
                self.checker.check_system(self, protocol)
            result = self._collect(trace, protocol, net)
            if self.checker.enabled:
                result.verify()
        return result

    # -- the scalar reference loop -------------------------------------------------------

    def _run_general(self, trace, protocol: DirectoryProtocol,
                     net: InterconnectModel) -> None:
        machine = self.machine
        lat_l2hit = machine.latencies.l2_hit
        lat_victim = lat_l2hit + VICTIM_HIT_EXTRA
        cores = machine.cores_per_node
        mp = machine.num_nodes > 1
        ooo = machine.cpu_model == "ooo"
        owner_get = protocol.directory._owner.get
        kind_to_stall = KIND_TO_STALL
        i_refs = i_miss = d_refs = d_miss = l2hits = victimhits = writes = 0
        # Per-core software-filled TLBs (LRU over physical pages).
        tlb_entries = machine.tlb_entries
        page_shift = (trace.page_bytes // 64).bit_length() - 1
        from collections import OrderedDict
        tlbs = [OrderedDict() for _ in range(machine.ncpus)] if tlb_entries else None
        tlb_miss_count = 0
        checker = self.checker if self.checker.per_quantum else None
        sampler = self._sampler
        racs = self.racs
        dir_sharers = protocol.directory._sharers
        plan = self.fault_plan if (
            self.fault_plan is not None and not self.fault_plan.applied
        ) else None
        refs_done = 0

        for qi, quantum, at_boundary, measured in iter_quanta(trace,
                                                              "general"):
            if at_boundary:
                self._measurement_boundary(
                    protocol, net, i_refs, i_miss, d_refs, d_miss,
                    l2hits, writes, victimhits,
                )
                i_refs = i_miss = d_refs = d_miss = l2hits = victimhits = writes = 0
                # Warmup TLB walks were discarded with the rest of the
                # warmup cycles; discard their count too.
                tlb_miss_count = 0

            cpu_id = quantum.cpu
            node_id = cpu_id // cores
            core = cpu_id % cores
            node = self.nodes[node_id]
            cpu = self.cpus[cpu_id]
            tlb = tlbs[cpu_id] if tlbs is not None else None
            q_instr = 0
            q_kinstr = 0

            for ref in quantum.refs:
                flags = ref & 15
                line = ref >> 4
                write = bool(flags & 1)
                is_instr = bool(flags & 2)
                if tlb is not None:
                    page = line >> page_shift
                    if page in tlb:
                        tlb.move_to_end(page)
                    else:
                        # Software fill: PALcode instructions execute,
                        # charged as kernel busy time.
                        tlb_miss_count += 1
                        cpu.busy(TLB_WALK_CYCLES, True)
                        tlb[page] = True
                        if len(tlb) > tlb_entries:
                            tlb.popitem(last=False)
                if is_instr:
                    if write:
                        raise TraceMismatchError(
                            "trace contains an instruction fetch with the "
                            f"write flag set (quantum {qi})"
                        )
                    i_refs += 1
                    q_instr += 1
                    if flags & 4:
                        q_kinstr += 1
                    if ooo:
                        cpu.busy(INSTRS_PER_ILINE, flags & 4)
                else:
                    d_refs += 1
                    if write:
                        writes += 1

                result = node.access(line, write, is_instr, core)
                level = result.level
                if result.victim is not None:
                    protocol.handle_eviction(node_id, result.victim, result.victim_dirty)

                if level is HierarchyLevel.MISS:
                    if is_instr:
                        i_miss += 1
                    else:
                        d_miss += 1
                    outcome = protocol.service_miss(node_id, line, write, is_instr)
                    cpu.stall(
                        net.service_latency(outcome),
                        kind_to_stall[outcome.kind],
                        flags & 8,
                        is_instr,
                    )
                    self.misses.record(outcome.kind, is_instr)
                    continue

                if level is not HierarchyLevel.L1:
                    if is_instr:
                        i_miss += 1
                    else:
                        d_miss += 1
                # Ownership upgrades stall before the hit latency — the
                # OOO model is order-sensitive, so every engine issues
                # its stalls in this order.
                if write and mp and owner_get(line) != node_id:
                    outcome = protocol.ensure_owner(node_id, line)
                    if outcome is not None:
                        cpu.stall(
                            net.service_latency(outcome),
                            kind_to_stall[outcome.kind],
                            flags & 8,
                            False,
                        )
                if level is HierarchyLevel.L2:
                    l2hits += 1
                    cpu.stall(lat_l2hit, 0, flags & 8, is_instr)
                elif level is HierarchyLevel.VICTIM:
                    victimhits += 1
                    cpu.stall(lat_victim, 0, flags & 8, is_instr)

            if not ooo and q_instr:
                cpu.busy(q_instr * INSTRS_PER_ILINE, False)
                if q_kinstr:
                    cpu.kernel_busy_cycles += q_kinstr * INSTRS_PER_ILINE

            if plan is not None:
                refs_done += len(quantum.refs)
                if refs_done >= plan.at_ref:
                    plan.apply(self, protocol)
                    plan = None
            if checker is not None:
                checker.check_system(self, protocol)
            if sampler is not None and measured:
                if racs is not None:
                    rp = sum(r.probes for r in racs)
                    rh = sum(r.hits for r in racs)
                else:
                    rp = rh = 0
                sampler.sample(qi, self.misses, i_refs, len(dir_sharers),
                               rp, rh)

        if plan is not None:
            plan.apply(self, protocol)
        self._flush_counters(
            i_refs, i_miss, d_refs, d_miss, l2hits, writes, victimhits
        )
        self.tlb_misses += tlb_miss_count

    # -- result assembly -----------------------------------------------------------------

    def _flush_counters(self, i_refs, i_miss, d_refs, d_miss, l2hits, writes,
                        victimhits=0) -> None:
        self.l1.i_refs += i_refs
        self.l1.i_misses += i_miss
        self.l1.d_refs += d_refs
        self.l1.d_misses += d_miss
        self.l2_hits += l2hits
        self.victim_hits += victimhits
        self.writes += writes

    def _collect(self, trace, protocol: DirectoryProtocol,
                 net: InterconnectModel) -> RunResult:
        per_cpu = [cpu.breakdown() for cpu in self.cpus]
        total = ExecutionBreakdown()
        for b in per_cpu:
            total.add(b)
        protocol_stats = ProtocolStats(
            upgrades=protocol.upgrades,
            invalidations=protocol.invalidations,
            writebacks=protocol.writebacks,
            interventions=protocol.interventions,
            writes=self.writes,
        )
        rac_stats = RacStats()
        if self.racs is not None:
            rac_stats.probes = sum(r.probes for r in self.racs)
            rac_stats.hits = sum(r.hits for r in self.racs)
        # For a materialized trace this is the post-warmup reference
        # sum; a consumed stream reports the identical count from its
        # validating iterator's accounting.
        trace_refs = trace.measured_refs
        return RunResult(
            machine=self.machine,
            breakdown=total,
            per_cpu=per_cpu,
            misses=self.misses,
            l1=self.l1,
            protocol=protocol_stats,
            rac=rac_stats,
            network=net.counters,
            measured_txns=getattr(trace, "measured_txns", 0),
            tlb_misses=self.tlb_misses,
            l2_hits=self.l2_hits,
            victim_hits=self.victim_hits,
            trace_refs=trace_refs,
        )


def simulate(machine: MachineConfig, trace, *, check="off", fault_plan=None,
             engine: str = "auto") -> RunResult:
    """Convenience wrapper: build a System, replay ``trace``, return stats.

    ``check``, ``fault_plan`` and ``engine`` pass through to
    :class:`System`.
    """
    return System(machine, check=check, fault_plan=fault_plan,
                  engine=engine).run(trace)
