"""Scalar coherence core: the event interface of the staged pipeline.

Phase 3 of the staged replay pipeline (census → private hierarchy →
coherence → timing).  The batched multiprocessor engine
(:mod:`repro.memsys.vectorized_mp`) replays each node's cache
hierarchy in bulk and emits a *compact* event stream — only the
references that must consult the directory protocol — which this
module services one event at a time through the unchanged
:class:`~repro.coherence.protocol.DirectoryProtocol`.

Three event codes cover every protocol interaction the scalar replay
loops perform:

* ``EV_MISS``  — an L2 miss; calls ``protocol.service_miss`` and
  yields a timing record charged through the interconnect model.
* ``EV_EVICT`` — an L2 victim; calls ``protocol.handle_eviction``
  (no timing: evictions are not charged in the scalar loops either).
* ``EV_WCHECK`` — a write hit whose line may need an ownership
  upgrade; calls ``protocol.ensure_owner`` when the directory's owner
  record disagrees with the requester.

Events are 4-tuples ``(code, pos, line, aux)``: ``pos`` is the
reference's position within its quantum (so the timing phase can
merge stalls back into program order for the out-of-order model),
``aux`` carries the reference flags for MISS/WCHECK and the victim's
dirty bit for EVICT.  Servicing appends *timing records*
``(pos, cycles, klass, dep, is_instr)`` to the caller's list; the
timing phase (:mod:`repro.cpu.timing`) charges them through the CPU
models.

The call order into the protocol is identical to the scalar reference
loop ``System._run_general`` by construction, so directory, RAC and
interconnect state evolve bit-for-bit the same — the exactness
contract of the differential harness rests on that.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from repro.coherence.network import InterconnectModel
from repro.coherence.protocol import DirectoryProtocol
from repro.cpu.events import (
    STALL_LOCAL,
    STALL_REMOTE_CLEAN,
    STALL_REMOTE_DIRTY,
)
from repro.params import MissKind

#: Canonical MissKind -> stall-class map shared by every engine.
KIND_TO_STALL = {
    MissKind.LOCAL: STALL_LOCAL,
    MissKind.REMOTE_CLEAN: STALL_REMOTE_CLEAN,
    MissKind.REMOTE_DIRTY: STALL_REMOTE_DIRTY,
}

EV_MISS = 1
EV_EVICT = 2
EV_WCHECK = 3

Event = Tuple[int, int, int, int]
TimingRecord = Tuple[int, int, int, int, int]


class CoherenceCore:
    """Services a shared-line event stream against the directory.

    ``record_miss`` is rebound by the driver at the warmup boundary
    (the measurement window gets a fresh
    :class:`~repro.stats.breakdown.MissBreakdown`), mirroring the
    fresh breakdown ``System._measurement_boundary`` installs for the
    scalar loop.
    """

    __slots__ = ("protocol", "net", "record_miss", "_owner_get")

    def __init__(self, protocol: DirectoryProtocol, net: InterconnectModel,
                 record_miss: Callable[[MissKind, bool], None]):
        self.protocol = protocol
        self.net = net
        self.record_miss = record_miss
        self._owner_get = protocol.directory._owner.get

    def service_one(self, node: int, code: int, pos: int, line: int,
                    aux: int, timing: List[TimingRecord]) -> None:
        """Service one event for ``node``, appending timing records."""
        protocol = self.protocol
        if code == EV_MISS:
            outcome = protocol.service_miss(
                node, line, bool(aux & 1), bool(aux & 2)
            )
            timing.append((
                pos,
                self.net.service_latency(outcome),
                KIND_TO_STALL[outcome.kind],
                aux & 8,
                aux & 2,
            ))
            self.record_miss(outcome.kind, bool(aux & 2))
        elif code == EV_EVICT:
            protocol.handle_eviction(node, line, bool(aux))
        else:  # EV_WCHECK
            if self._owner_get(line) != node:
                outcome = protocol.ensure_owner(node, line)
                if outcome is not None:
                    timing.append((
                        pos,
                        self.net.service_latency(outcome),
                        KIND_TO_STALL[outcome.kind],
                        aux & 8,
                        0,
                    ))

    def service(self, node: int, events: List[Event],
                timing: List[TimingRecord]) -> None:
        """Service a quantum's event stream in emission order."""
        for code, pos, line, aux in events:
            self.service_one(node, code, pos, line, aux, timing)
