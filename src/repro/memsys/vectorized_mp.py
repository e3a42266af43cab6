"""Staged multiprocessor replay: the ``vectorized-mp`` engine.

This module is phases 2–4 of the staged replay pipeline; phase 1 is
:func:`repro.trace.census.sharing_census`.  The pipeline replaces the
reference-interleaved scalar loop of ``System._run_general`` for
multiprocessor machines while remaining **value-identical** by
construction (the differential, reference-model and golden suites
enforce it; see ``tests/core/test_reference_model.py``):

1. **Census** — classify every line as provably private to one node
   or potentially shared, and pre-compute per-reference effective
   flags (write/instr/kernel/dependent + private + local-home bits).
2. **Private hierarchy** — replay each scheduling quantum's
   references through flat per-node cache state.  Private lines never
   interact with the directory: their misses and upgrades are
   aggregated into four counters per quantum and charged in bulk.
3. **Coherence** — shared-line misses, evictions and write-upgrades
   are serviced as they occur.  Batch mode inlines a flat
   transcription of the no-RAC
   :class:`~repro.coherence.protocol.DirectoryProtocol` paths onto
   plain dicts (sharer sets and owners keyed by line) directly in the
   walks, accumulating aggregate counters instead of per-event
   outcome objects; the real directory is materialized from the flat
   entries when the run ends.  Stream mode emits compact events
   (``EV_MISS``/``EV_EVICT``/``EV_WCHECK``) serviced through
   :class:`repro.coherence.core.CoherenceCore` against the unchanged
   protocol object.
4. **Timing** — deferred timing records are charged through the CPU
   models by :mod:`repro.cpu.timing` once per quantum.

Batching the coherence work to the quantum boundary is exact because
of two structural facts: only the scheduled node issues requests
within a quantum, and (without RACs) the protocol never reads or
mutates the *requester's* caches — it only touches other, idle,
nodes.  Private lines are exact by the census guarantee: no second
node ever touches them, so the directory would only ever record this
node's own fills and evictions, which the engine reconstructs at the
end of the run.

Two execution modes cover the machine space:

* **batch mode** — in-order CPUs without RACs (the paper's Figures
  6 and 8 sweeps).  Per-node cache state lives in flat lists; the
  directory sees only shared lines, via lightweight node facades.
* **stream mode** — OOO CPUs (order-sensitive timing) or RAC
  configurations (the protocol probes and fills the requester's RAC
  mid-quantum).  The walk runs on the real cache objects and services
  events inline, deferring only the timing phase.

``System.select_engine`` admits only configurations the engine replays
exactly; an instruction fetch carrying the write flag is rejected
before any state is touched, as on every engine.
"""

from __future__ import annotations

from time import perf_counter
from typing import List

import numpy as np

from repro.coherence.core import EV_EVICT, EV_MISS, EV_WCHECK, CoherenceCore
from repro.cpu.timing import charge_quantum_inorder, charge_quantum_ooo
from repro.integrity.errors import TraceMismatchError
from repro.memsys.vectorized import _materialize_l1
from repro.trace.census import sharing_census

__all__ = ["replay_multiprocessor"]

# Effective-flag bits layered on top of the trace's four flag bits.
EFF_PRIVATE = 16  # line provably touched by a single node
EFF_LOCAL = 32    # line's home is the requesting node (or replicated)

MODE_DM = 0     # direct-mapped: flat occupant-per-set array
MODE_SET = 1    # footprint fits: residency set, provably no evictions
MODE_ASSOC = 2  # general LRU: list-of-lists, mirrors SetAssocCache


class _NodeState:
    """Flat per-node cache state with coherence entry points.

    ``invalidate``/``downgrade``/``holds``/``holds_dirty`` mirror
    :class:`~repro.memsys.hierarchy.NodeCaches` semantics exactly;
    the batch walks drive them when another node's miss or upgrade
    must strip this node's copy of a *shared* line.
    """

    __slots__ = (
        "mode", "ia", "ib", "da", "db", "dmset", "resident", "sets2",
        "dirty", "owned", "l1_n", "l2_n", "l2_assoc",
    )

    def __init__(self, mode: int, l1_n: int, l2_n: int, l2_assoc: int):
        self.mode = mode
        self.l1_n = l1_n
        self.l2_n = l2_n
        self.l2_assoc = l2_assoc
        self.ia = [-1] * l1_n
        self.ib = [-1] * l1_n
        self.da = [-1] * l1_n
        self.db = [-1] * l1_n
        self.dmset = [-1] * l2_n if mode == MODE_DM else None
        # ASSOC mode keeps a flat membership set alongside the per-set
        # LRU lists so hit/miss probes hash instead of scanning ways.
        self.resident = set() if mode != MODE_DM else None
        self.sets2 = (
            [[] for _ in range(l2_n)] if mode == MODE_ASSOC else None
        )
        self.dirty = set()
        self.owned = set()

    # -- coherence entry points (mirror NodeCaches semantics exactly) ---

    def invalidate(self, line: int) -> bool:
        """Drop ``line`` everywhere; True when dirty data was lost.

        L1 lines are never dirty in the fast representation (write
        hits mark the L2 copy), so dirtiness is L2-level only —
        exactly like ``NodeCaches.invalidate`` on scalar-engine state.
        """
        mode = self.mode
        if mode == MODE_SET:
            self.resident.discard(line)
        elif mode == MODE_DM:
            s2 = line % self.l2_n
            if self.dmset[s2] == line:
                self.dmset[s2] = -1
        else:
            r = self.resident
            if line in r:
                r.remove(line)
                self.sets2[line % self.l2_n].remove(line)
        s = line % self.l1_n
        ia, ib = self.ia, self.ib
        if ia[s] == line:
            ia[s] = ib[s]
            ib[s] = -1
        elif ib[s] == line:
            ib[s] = -1
        da, db = self.da, self.db
        if da[s] == line:
            da[s] = db[s]
            db[s] = -1
        elif db[s] == line:
            db[s] = -1
        self.owned.discard(line)
        dirty = self.dirty
        if line in dirty:
            dirty.remove(line)
            return True
        return False

    def downgrade(self, line: int) -> bool:
        """Demote to shared/clean; True when the line was dirty."""
        dirty = self.dirty
        if line in dirty:
            dirty.remove(line)
            return True
        return False

    def holds(self, line: int) -> bool:
        mode = self.mode
        if mode == MODE_DM:
            return self.dmset[line % self.l2_n] == line
        return line in self.resident

    def holds_dirty(self, line: int) -> bool:
        return line in self.dirty


# ---------------------------------------------------------------------------
# Batch-mode walks.  One specialized inner loop per L2 mode; all three
# share the same structure, mirroring ``_run_general`` reference for
# reference.
#
# Shared-line coherence is serviced *inline*, transcribing the no-RAC
# ``DirectoryProtocol`` paths (``service_miss`` / ``ensure_owner`` /
# ``handle_eviction``) onto plain dicts: ``dsh`` maps line -> sharer
# set, ``down`` maps line -> owning node — the exact payload of
# ``DirectoryState``, materialized into the real directory when the
# run ends.  Inlining is sound because a node's own service actions
# never touch its own cache state, and the walk never reads the
# directory on its fast paths, so inline-at-the-reference equals the
# scalar engine's service-in-trace-order exactly.  Aggregate counts
# replace per-event ``ServiceOutcome`` objects; in-order stall
# accounting is commutative, so sums per latency class lose nothing.
#
# Each walk returns ``(i_l1m, d_l1m, l2h, c_li, c_ri, c_ld, c_rd,
# u_l, u_r, ml_i, ml_d, mc_i, mc_d, md_i, md_d, upg_l, upg_rc,
# inv_msgs, intervs, wbacks)``: L1I/L1D *misses* (hits are the
# quantum's ref counts minus these, so the hot hit path carries no
# counter), L2 hits, private miss counts and ownership upgrades
# (instr/data x local/remote-clean; local/remote), then the
# shared-line aggregates — misses by kind (local / remote-clean /
# remote-dirty, instruction vs data), ownership upgrades (local /
# 2-hop), invalidation messages, interventions and writebacks —
# everything the protocol, network and miss-breakdown counters need.
# ---------------------------------------------------------------------------


def _walk_set(L, E, S1, nid, states, dsh, down):
    st = states[nid]
    ia, ib, da, db = st.ia, st.ib, st.da, st.db
    resident = st.resident
    dirty = st.dirty
    owned = st.owned
    dsh_get = dsh.get
    down_get = down.get
    i_l1m = d_l1m = l2h = 0
    c_li = c_ri = c_ld = c_rd = u_l = u_r = 0
    ml_i = ml_d = mc_i = mc_d = md_i = md_d = 0
    upg_l = upg_rc = inv_msgs = intervs = wbacks = 0
    for line, f, s1 in zip(L, E, S1):
        if f & 2:
            a = ia[s1]
            if a == line or ib[s1] == line:
                if a != line:
                    ib[s1] = a
                    ia[s1] = line
                continue
        else:
            a = da[s1]
            if a == line or db[s1] == line:
                if a != line:
                    db[s1] = a
                    da[s1] = line
                if f & 1:
                    dirty.add(line)
                    if f & 16:
                        if line not in owned:
                            owned.add(line)
                            if f & 32:
                                u_l += 1
                            else:
                                u_r += 1
                    elif down_get(line) != nid:
                        s = dsh_get(line)
                        if s:
                            for other in tuple(s):
                                if other != nid:
                                    states[other].invalidate(line)
                                    inv_msgs += 1
                        dsh[line] = {nid}
                        down[line] = nid
                        if f & 32:
                            upg_l += 1
                        else:
                            upg_rc += 1
                continue
        # ---- L1 miss: probe the L2 (no evictions in SET mode) ----
        if line in resident:
            l2h += 1
            if f & 1:
                dirty.add(line)
                if f & 16:
                    if line not in owned:
                        owned.add(line)
                        if f & 32:
                            u_l += 1
                        else:
                            u_r += 1
                elif down_get(line) != nid:
                    s = dsh_get(line)
                    if s:
                        for other in tuple(s):
                            if other != nid:
                                states[other].invalidate(line)
                                inv_msgs += 1
                    dsh[line] = {nid}
                    down[line] = nid
                    if f & 32:
                        upg_l += 1
                    else:
                        upg_rc += 1
        else:
            resident.add(line)
            if f & 1:
                dirty.add(line)
            if f & 16:
                if f & 2:
                    if f & 32:
                        c_li += 1
                    else:
                        c_ri += 1
                elif f & 32:
                    c_ld += 1
                else:
                    c_rd += 1
                if f & 1:
                    owned.add(line)
            else:
                o = down_get(line)
                if o == nid:
                    # Stale ownership (should be unreachable —
                    # evictions notify the directory); recover like
                    # the protocol.
                    s = dsh_get(line)
                    if s is not None:
                        s.discard(nid)
                        if not s:
                            del dsh[line]
                        if down_get(line) == nid:
                            del down[line]
                    o = None
                if o is not None:
                    # A remote node owns the line: intervene.
                    intervs += 1
                    ost = states[o]
                    odirty = line in ost.dirty
                    if f & 1:
                        ost.invalidate(line)
                        inv_msgs += 1
                        dsh[line] = {nid}
                        down[line] = nid
                    else:
                        if odirty:
                            ost.dirty.remove(line)  # downgrade
                            wbacks += 1  # sharing writeback to home
                        del down[line]
                        s = dsh_get(line)
                        if s is None:
                            dsh[line] = {nid}
                        else:
                            s.add(nid)
                    if odirty:
                        if f & 2:
                            md_i += 1
                        else:
                            md_d += 1
                    elif f & 32:
                        if f & 2:
                            ml_i += 1
                        else:
                            ml_d += 1
                    elif f & 2:
                        mc_i += 1
                    else:
                        mc_d += 1
                else:
                    if f & 1:
                        s = dsh_get(line)
                        if s:
                            for other in tuple(s):
                                if other != nid:
                                    states[other].invalidate(line)
                                    inv_msgs += 1
                        dsh[line] = {nid}
                        down[line] = nid
                    else:
                        s = dsh_get(line)
                        if s is None:
                            dsh[line] = {nid}
                        else:
                            s.add(nid)
                    if f & 32:
                        if f & 2:
                            ml_i += 1
                        else:
                            ml_d += 1
                    elif f & 2:
                        mc_i += 1
                    else:
                        mc_d += 1
        if f & 2:
            i_l1m += 1
            ib[s1] = ia[s1]
            ia[s1] = line
        else:
            d_l1m += 1
            db[s1] = da[s1]
            da[s1] = line
    return (i_l1m, d_l1m, l2h, c_li, c_ri, c_ld, c_rd, u_l, u_r,
            ml_i, ml_d, mc_i, mc_d, md_i, md_d,
            upg_l, upg_rc, inv_msgs, intervs, wbacks)


def _walk_dm(L, E, S1, S2, nid, states, dsh, down):
    st = states[nid]
    ia, ib, da, db = st.ia, st.ib, st.da, st.db
    dmset = st.dmset
    dirty = st.dirty
    owned = st.owned
    l1_n = st.l1_n
    dsh_get = dsh.get
    down_get = down.get
    i_l1m = d_l1m = l2h = 0
    c_li = c_ri = c_ld = c_rd = u_l = u_r = 0
    ml_i = ml_d = mc_i = mc_d = md_i = md_d = 0
    upg_l = upg_rc = inv_msgs = intervs = wbacks = 0
    for line, f, s1, s2 in zip(L, E, S1, S2):
        if f & 2:
            a = ia[s1]
            if a == line or ib[s1] == line:
                if a != line:
                    ib[s1] = a
                    ia[s1] = line
                continue
        else:
            a = da[s1]
            if a == line or db[s1] == line:
                if a != line:
                    db[s1] = a
                    da[s1] = line
                if f & 1:
                    dirty.add(line)
                    if f & 16:
                        if line not in owned:
                            owned.add(line)
                            if f & 32:
                                u_l += 1
                            else:
                                u_r += 1
                    elif down_get(line) != nid:
                        s = dsh_get(line)
                        if s:
                            for other in tuple(s):
                                if other != nid:
                                    states[other].invalidate(line)
                                    inv_msgs += 1
                        dsh[line] = {nid}
                        down[line] = nid
                        if f & 32:
                            upg_l += 1
                        else:
                            upg_rc += 1
                continue
        occ = dmset[s2]
        if occ == line:
            l2h += 1
            if f & 1:
                dirty.add(line)
                if f & 16:
                    if line not in owned:
                        owned.add(line)
                        if f & 32:
                            u_l += 1
                        else:
                            u_r += 1
                elif down_get(line) != nid:
                    s = dsh_get(line)
                    if s:
                        for other in tuple(s):
                            if other != nid:
                                states[other].invalidate(line)
                                inv_msgs += 1
                    dsh[line] = {nid}
                    down[line] = nid
                    if f & 32:
                        upg_l += 1
                    else:
                        upg_rc += 1
        else:
            if occ != -1:
                if occ in dirty:
                    dirty.remove(occ)
                    wbacks += 1
                vs = occ % l1_n
                if ia[vs] == occ:
                    ia[vs] = ib[vs]
                    ib[vs] = -1
                elif ib[vs] == occ:
                    ib[vs] = -1
                if da[vs] == occ:
                    da[vs] = db[vs]
                    db[vs] = -1
                elif db[vs] == occ:
                    db[vs] = -1
                owned.discard(occ)
                s = dsh_get(occ)
                if s is not None:
                    s.discard(nid)
                    if not s:
                        del dsh[occ]
                    if down_get(occ) == nid:
                        del down[occ]
            dmset[s2] = line
            if f & 1:
                dirty.add(line)
            if f & 16:
                if f & 2:
                    if f & 32:
                        c_li += 1
                    else:
                        c_ri += 1
                elif f & 32:
                    c_ld += 1
                else:
                    c_rd += 1
                if f & 1:
                    owned.add(line)
            else:
                o = down_get(line)
                if o == nid:
                    # Stale ownership (should be unreachable —
                    # evictions notify the directory); recover like
                    # the protocol.
                    s = dsh_get(line)
                    if s is not None:
                        s.discard(nid)
                        if not s:
                            del dsh[line]
                        if down_get(line) == nid:
                            del down[line]
                    o = None
                if o is not None:
                    # A remote node owns the line: intervene.
                    intervs += 1
                    ost = states[o]
                    odirty = line in ost.dirty
                    if f & 1:
                        ost.invalidate(line)
                        inv_msgs += 1
                        dsh[line] = {nid}
                        down[line] = nid
                    else:
                        if odirty:
                            ost.dirty.remove(line)  # downgrade
                            wbacks += 1  # sharing writeback to home
                        del down[line]
                        s = dsh_get(line)
                        if s is None:
                            dsh[line] = {nid}
                        else:
                            s.add(nid)
                    if odirty:
                        if f & 2:
                            md_i += 1
                        else:
                            md_d += 1
                    elif f & 32:
                        if f & 2:
                            ml_i += 1
                        else:
                            ml_d += 1
                    elif f & 2:
                        mc_i += 1
                    else:
                        mc_d += 1
                else:
                    if f & 1:
                        s = dsh_get(line)
                        if s:
                            for other in tuple(s):
                                if other != nid:
                                    states[other].invalidate(line)
                                    inv_msgs += 1
                        dsh[line] = {nid}
                        down[line] = nid
                    else:
                        s = dsh_get(line)
                        if s is None:
                            dsh[line] = {nid}
                        else:
                            s.add(nid)
                    if f & 32:
                        if f & 2:
                            ml_i += 1
                        else:
                            ml_d += 1
                    elif f & 2:
                        mc_i += 1
                    else:
                        mc_d += 1
        if f & 2:
            i_l1m += 1
            ib[s1] = ia[s1]
            ia[s1] = line
        else:
            d_l1m += 1
            db[s1] = da[s1]
            da[s1] = line
    return (i_l1m, d_l1m, l2h, c_li, c_ri, c_ld, c_rd, u_l, u_r,
            ml_i, ml_d, mc_i, mc_d, md_i, md_d,
            upg_l, upg_rc, inv_msgs, intervs, wbacks)


def _walk_assoc(L, E, S1, S2, nid, states, dsh, down):
    st = states[nid]
    ia, ib, da, db = st.ia, st.ib, st.da, st.db
    sets2 = st.sets2
    resident = st.resident
    dirty = st.dirty
    owned = st.owned
    l1_n = st.l1_n
    l2_assoc = st.l2_assoc
    dsh_get = dsh.get
    down_get = down.get
    i_l1m = d_l1m = l2h = 0
    c_li = c_ri = c_ld = c_rd = u_l = u_r = 0
    ml_i = ml_d = mc_i = mc_d = md_i = md_d = 0
    upg_l = upg_rc = inv_msgs = intervs = wbacks = 0
    for line, f, s1, s2 in zip(L, E, S1, S2):
        if f & 2:
            a = ia[s1]
            if a == line or ib[s1] == line:
                if a != line:
                    ib[s1] = a
                    ia[s1] = line
                continue
        else:
            a = da[s1]
            if a == line or db[s1] == line:
                if a != line:
                    db[s1] = a
                    da[s1] = line
                if f & 1:
                    dirty.add(line)
                    if f & 16:
                        if line not in owned:
                            owned.add(line)
                            if f & 32:
                                u_l += 1
                            else:
                                u_r += 1
                    elif down_get(line) != nid:
                        s = dsh_get(line)
                        if s:
                            for other in tuple(s):
                                if other != nid:
                                    states[other].invalidate(line)
                                    inv_msgs += 1
                        dsh[line] = {nid}
                        down[line] = nid
                        if f & 32:
                            upg_l += 1
                        else:
                            upg_rc += 1
                continue
        ways2 = sets2[s2]
        if ways2 and ways2[0] == line:
            # MRU slot — the common L2 hit — without a way scan.
            l2h += 1
            if f & 1:
                dirty.add(line)
                if f & 16:
                    if line not in owned:
                        owned.add(line)
                        if f & 32:
                            u_l += 1
                        else:
                            u_r += 1
                elif down_get(line) != nid:
                    s = dsh_get(line)
                    if s:
                        for other in tuple(s):
                            if other != nid:
                                states[other].invalidate(line)
                                inv_msgs += 1
                    dsh[line] = {nid}
                    down[line] = nid
                    if f & 32:
                        upg_l += 1
                    else:
                        upg_rc += 1
        elif line in resident:
            l2h += 1
            ways2.remove(line)
            ways2.insert(0, line)
            if f & 1:
                dirty.add(line)
                if f & 16:
                    if line not in owned:
                        owned.add(line)
                        if f & 32:
                            u_l += 1
                        else:
                            u_r += 1
                elif down_get(line) != nid:
                    s = dsh_get(line)
                    if s:
                        for other in tuple(s):
                            if other != nid:
                                states[other].invalidate(line)
                                inv_msgs += 1
                    dsh[line] = {nid}
                    down[line] = nid
                    if f & 32:
                        upg_l += 1
                    else:
                        upg_rc += 1
        else:
            if len(ways2) >= l2_assoc:
                victim = ways2.pop()
                resident.remove(victim)
                if victim in dirty:
                    dirty.remove(victim)
                    wbacks += 1
                vs = victim % l1_n
                if ia[vs] == victim:
                    ia[vs] = ib[vs]
                    ib[vs] = -1
                elif ib[vs] == victim:
                    ib[vs] = -1
                if da[vs] == victim:
                    da[vs] = db[vs]
                    db[vs] = -1
                elif db[vs] == victim:
                    db[vs] = -1
                owned.discard(victim)
                s = dsh_get(victim)
                if s is not None:
                    s.discard(nid)
                    if not s:
                        del dsh[victim]
                    if down_get(victim) == nid:
                        del down[victim]
            ways2.insert(0, line)
            resident.add(line)
            if f & 1:
                dirty.add(line)
            if f & 16:
                if f & 2:
                    if f & 32:
                        c_li += 1
                    else:
                        c_ri += 1
                elif f & 32:
                    c_ld += 1
                else:
                    c_rd += 1
                if f & 1:
                    owned.add(line)
            else:
                o = down_get(line)
                if o == nid:
                    # Stale ownership (should be unreachable —
                    # evictions notify the directory); recover like
                    # the protocol.
                    s = dsh_get(line)
                    if s is not None:
                        s.discard(nid)
                        if not s:
                            del dsh[line]
                        if down_get(line) == nid:
                            del down[line]
                    o = None
                if o is not None:
                    # A remote node owns the line: intervene.
                    intervs += 1
                    ost = states[o]
                    odirty = line in ost.dirty
                    if f & 1:
                        ost.invalidate(line)
                        inv_msgs += 1
                        dsh[line] = {nid}
                        down[line] = nid
                    else:
                        if odirty:
                            ost.dirty.remove(line)  # downgrade
                            wbacks += 1  # sharing writeback to home
                        del down[line]
                        s = dsh_get(line)
                        if s is None:
                            dsh[line] = {nid}
                        else:
                            s.add(nid)
                    if odirty:
                        if f & 2:
                            md_i += 1
                        else:
                            md_d += 1
                    elif f & 32:
                        if f & 2:
                            ml_i += 1
                        else:
                            ml_d += 1
                    elif f & 2:
                        mc_i += 1
                    else:
                        mc_d += 1
                else:
                    if f & 1:
                        s = dsh_get(line)
                        if s:
                            for other in tuple(s):
                                if other != nid:
                                    states[other].invalidate(line)
                                    inv_msgs += 1
                        dsh[line] = {nid}
                        down[line] = nid
                    else:
                        s = dsh_get(line)
                        if s is None:
                            dsh[line] = {nid}
                        else:
                            s.add(nid)
                    if f & 32:
                        if f & 2:
                            ml_i += 1
                        else:
                            ml_d += 1
                    elif f & 2:
                        mc_i += 1
                    else:
                        mc_d += 1
        if f & 2:
            i_l1m += 1
            ib[s1] = ia[s1]
            ia[s1] = line
        else:
            d_l1m += 1
            db[s1] = da[s1]
            da[s1] = line
    return (i_l1m, d_l1m, l2h, c_li, c_ri, c_ld, c_rd, u_l, u_r,
            ml_i, ml_d, mc_i, mc_d, md_i, md_d,
            upg_l, upg_rc, inv_msgs, intervs, wbacks)


# ---------------------------------------------------------------------------
# Stream-mode walk: real cache objects, events serviced inline (the
# protocol may probe/fill the requester's RAC mid-quantum), timing
# still deferred to the per-quantum charge functions.
# ---------------------------------------------------------------------------


def _walk_stream(L, F, node, node_id, core, timing, ooo, lat_l2hit,
                 l2_assoc):
    l1i, l1d, l2 = node.l1i, node.l1d, node.l2
    l1i_sets = l1i._sets
    l1i_n = l1i.num_sets
    l1d_sets = l1d._sets
    l1d_n = l1d.num_sets
    l2_sets = l2._sets
    l2_n = l2.num_sets
    l2_dirty = l2._dirty
    service_one = core.service_one
    i_l1m = d_l1m = l2h = 0
    for pos in range(len(L)):
        line = L[pos]
        f = F[pos]
        if f & 2:
            ways = l1i_sets[line % l1i_n]
            if line in ways:
                if ways[0] != line:
                    ways.remove(line)
                    ways.insert(0, line)
                continue
            i_l1m += 1
            l1_assoc_here = l1i.assoc
        else:
            ways = l1d_sets[line % l1d_n]
            if line in ways:
                if ways[0] != line:
                    ways.remove(line)
                    ways.insert(0, line)
                if f & 1:
                    l2_dirty[line % l2_n].add(line)
                    service_one(node_id, EV_WCHECK, pos, line, f, timing)
                continue
            d_l1m += 1
            l1_assoc_here = l1d.assoc

        idx2 = line % l2_n
        ways2 = l2_sets[idx2]
        if line in ways2:
            l2h += 1
            if ways2[0] != line:
                ways2.remove(line)
                ways2.insert(0, line)
            if f & 1:
                l2_dirty[idx2].add(line)
                service_one(node_id, EV_WCHECK, pos, line, f, timing)
            if ooo:
                timing.append((pos, lat_l2hit, 0, f & 8, f & 2))
        else:
            if len(ways2) >= l2_assoc:
                victim = ways2.pop()
                vdirty_set = l2_dirty[idx2]
                if victim in vdirty_set:
                    vdirty_set.remove(victim)
                    vd = 1
                else:
                    vd = 0
                vways = l1i_sets[victim % l1i_n]
                if victim in vways:
                    vways.remove(victim)
                vways = l1d_sets[victim % l1d_n]
                if victim in vways:
                    vways.remove(victim)
                service_one(node_id, EV_EVICT, pos, victim, vd, timing)
            ways2.insert(0, line)
            if f & 1:
                l2_dirty[idx2].add(line)
            service_one(node_id, EV_MISS, pos, line, f, timing)

        if len(ways) >= l1_assoc_here:
            ways.pop()
        ways.insert(0, line)
    return i_l1m, d_l1m, l2h


# ---------------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------------


def _per_quantum_counts(mask: np.ndarray, q_off: np.ndarray) -> List[int]:
    """Per-quantum sums of a boolean mask via cumulative differences."""
    c = np.concatenate(([0], np.cumsum(mask)))
    return (c[q_off[1:]] - c[q_off[:-1]]).tolist()


def _derived(sc, key, build, cap=4):
    """Fetch/build an entry in the census' derived-projection cache.

    Entries are keyed ``(family, *params)``; at most ``cap`` entries
    per family are kept (the large per-L2-geometry lists would
    otherwise accumulate across a config sweep).
    """
    d = sc.derived
    v = d.get(key)
    if v is None:
        kin = [k for k in d if k[0] == key[0]]
        if len(kin) >= cap:
            for k in kin:
                del d[k]
        v = d[key] = build()
    return v


def _select_l2_modes(sc, nnodes: int, l2_n: int, l2_assoc: int) -> List[int]:
    """Choose the flat-L2 representation per node.

    A node whose busiest L2 set never sees more than ``l2_assoc``
    distinct lines over the whole trace can never evict (invalidations
    only *remove* lines), so a plain residency set is exact — and far
    faster than LRU bookkeeping.
    """
    if l2_assoc == 1:
        return [MODE_DM] * nnodes
    keys = _derived(
        sc, ("pairs", nnodes),
        lambda: np.unique(sc.lines * nnodes + sc.nodes),
    )
    knodes = keys % nnodes
    ksets = (keys // nnodes) % l2_n
    per = np.bincount(
        knodes * l2_n + ksets, minlength=nnodes * l2_n
    ).reshape(nnodes, l2_n)
    worst = per.max(axis=1)
    return [
        MODE_SET if worst[n] <= l2_assoc else MODE_ASSOC
        for n in range(nnodes)
    ]


def replay_multiprocessor(system, trace, protocol, net) -> None:
    """Replay ``trace`` on a multiprocessor machine, staged and exact.

    ``System.select_engine`` routes only one-core-per-node machines
    with 2-way L1s and no victim buffer, TLB or fault plan here; RACs
    and OOO CPUs route to stream mode internally.

    A chunk-streamed trace is materialized here: the census pre-pass
    and the staged walks traverse the trace multiple times, and
    collection reconstructs the exact trace, so streamed results stay
    value-identical to materialized ones.
    """
    from repro.trace.stream import is_streaming

    if is_streaming(trace):
        trace = trace.collect()
    machine = system.machine
    nodes = system.nodes
    node0 = nodes[0]

    nnodes = machine.num_nodes
    ooo = machine.cpu_model == "ooo"
    # Stream mode services every miss through CoherenceCore →
    # protocol → InterconnectModel, so it is per-hop exact; the batch
    # walks below charge class-aggregate latencies and are only valid
    # when every remote hop costs the same.  Non-flat topologies
    # therefore route to stream mode alongside RACs and OOO.
    stream = (ooo or system.racs is not None
              or not machine.topology.is_flat)
    lat = machine.latencies
    lat_l2hit = lat.l2_hit
    lat_loc = lat.local
    lat_rc = lat.remote_clean
    lat_upg = lat.remote_upgrade
    l2_assoc = machine.l2_assoc
    l1_n = node0.l1i.num_sets
    l2_n = node0.l2.num_sets
    warmup_end = trace.warmup_quanta
    cpus = system.cpus

    # Observability: spans and the per-quantum sampler are bound by
    # System.run; both default to inert objects, so the hot loops pay
    # one flag test per phase segment (tracing) and one None test per
    # quantum (metrics) when disabled.
    tracer = system._tracer
    traced = tracer.enabled
    sampler = system._sampler

    with tracer.span("mp.census", refs=trace.total_refs):
        sc = sharing_census(trace, machine.cores_per_node)
        q_off = sc.q_offsets
        flags = sc.flags
        lines = sc.lines

        def _build_base():
            if np.any((flags & 3) == 3):
                raise TraceMismatchError(
                    "trace contains an instruction fetch with the write "
                    "flag set"
                )
            return (
                sc.q_nodes.tolist(),
                _per_quantum_counts((flags & 2) != 0, q_off),
                _per_quantum_counts((flags & 6) == 6, q_off),
                _per_quantum_counts((flags & 3) == 1, q_off),
                (q_off[1:] - q_off[:-1]).tolist(),
                q_off[:-1].tolist(),
                lines.tolist(),
            )

        (q_nodes, n_i_q, n_ki_q, n_w_q,
         q_len, q_start, L_all) = _derived(sc, ("base",), _build_base)
        S1_all = _derived(
            sc, ("s1", l1_n), lambda: (lines % l1_n).tolist(), cap=2
        )

    i_refs = i_miss = d_refs = d_miss = l2hits = writes = 0

    if stream:
        core = CoherenceCore(protocol, net, system.misses.record)
        timing: list = []
        with tracer.span("mp.census", phase="projections"):
            F_all = _derived(sc, ("flags",), flags.tolist)
        racs = system.racs
        dir_sharers = protocol.directory._sharers
        t_walk = t_charge = 0.0
        loop_start = perf_counter() if traced else 0.0
        for qi in range(len(q_len)):
            if qi == warmup_end:
                core.record_miss = system._measurement_boundary(
                    protocol, net, i_refs, i_miss, d_refs, d_miss,
                    l2hits, writes,
                )
                i_refs = i_miss = d_refs = d_miss = l2hits = writes = 0
            start = q_start[qi]
            end = start + q_len[qi]
            nid = q_nodes[qi]
            F = F_all[start:end]
            if traced:
                t0 = perf_counter()
            i_l1m, d_l1m, l2h = _walk_stream(
                L_all[start:end], F, nodes[nid], nid, core, timing,
                ooo, lat_l2hit, l2_assoc,
            )
            if traced:
                t1 = perf_counter()
                t_walk += t1 - t0
            cpu = cpus[nid]
            n_i = n_i_q[qi]
            if ooo:
                fl = flags[start:end]
                ip = np.flatnonzero(fl & 2)
                charge_quantum_ooo(
                    cpu, timing, ip.tolist(),
                    ((fl[ip] & 4) != 0).tolist(),
                )
            else:
                charge_quantum_inorder(
                    cpu, timing, l2h, lat_l2hit, n_i, n_ki_q[qi],
                )
            if traced:
                t_charge += perf_counter() - t1
            timing.clear()
            n = q_len[qi]
            i_refs += n_i
            d_refs += n - n_i
            i_miss += i_l1m
            d_miss += d_l1m
            l2hits += l2h
            writes += n_w_q[qi]
            if sampler is not None and qi >= warmup_end:
                if racs is not None:
                    rp = sum(r.probes for r in racs)
                    rh = sum(r.hits for r in racs)
                else:
                    rp = rh = 0
                sampler.sample(qi, system.misses, i_refs,
                               len(dir_sharers), rp, rh)
        if traced:
            # Stream mode services coherence events inside the walk,
            # so walk time includes the coherence phase; the two
            # aggregate phase spans tile the loop's real window.
            tracer.add_span("mp.walks", loop_start, t_walk,
                            mode="stream", coherence="inline")
            tracer.add_span("mp.timing", loop_start + t_walk, t_charge,
                            mode="stream")
        system._flush_counters(i_refs, i_miss, d_refs, d_miss, l2hits, writes)
        return

    # ---- batch mode -----------------------------------------------------
    def _build_eff():
        shift = (trace.page_bytes // 64).bit_length() - 1
        home = (lines >> shift) % nnodes
        local = home == sc.nodes
        if machine.replicate_code and trace.text_pages:
            tp = np.fromiter(
                trace.text_pages, dtype=np.int64,
                count=len(trace.text_pages),
            )
            local = local | np.isin(lines >> shift, tp)
        eff = (
            flags
            | (sc.private.astype(np.int64) << 4)
            | (local.astype(np.int64) << 5)
        )
        return eff.tolist()

    with tracer.span("mp.census", phase="projections"):
        E_all = _derived(
            sc, ("eff", nnodes, machine.replicate_code), _build_eff, cap=2
        )
        modes = _derived(
            sc, ("modes", nnodes, l2_n, l2_assoc),
            lambda: _select_l2_modes(sc, nnodes, l2_n, l2_assoc), cap=8,
        )
        states = [
            _NodeState(modes[n], l1_n, l2_n, l2_assoc) for n in range(nnodes)
        ]
        need_s2 = any(m != MODE_SET for m in modes)
        S2_all = (
            _derived(sc, ("s2", l2_n), lambda: (lines % l2_n).tolist(), cap=2)
            if need_s2 else None
        )
    lat_rd = lat.remote_dirty
    dsh: dict = {}   # line -> sharer set (DirectoryState._sharers)
    down: dict = {}  # line -> owning node (DirectoryState._owner)

    t_walk = t_coh = t_charge = 0.0
    loop_start = perf_counter() if traced else 0.0
    for qi in range(len(q_len)):
        if qi == warmup_end:
            system._measurement_boundary(
                protocol, net, i_refs, i_miss, d_refs, d_miss,
                l2hits, writes,
            )
            i_refs = i_miss = d_refs = d_miss = l2hits = writes = 0
        start = q_start[qi]
        end = start + q_len[qi]
        nid = q_nodes[qi]
        mode = states[nid].mode
        L = L_all[start:end]
        E = E_all[start:end]
        S1 = S1_all[start:end]
        if traced:
            t0 = perf_counter()
        if mode == MODE_SET:
            res = _walk_set(L, E, S1, nid, states, dsh, down)
        elif mode == MODE_DM:
            res = _walk_dm(L, E, S1, S2_all[start:end], nid, states,
                           dsh, down)
        else:
            res = _walk_assoc(L, E, S1, S2_all[start:end], nid, states,
                              dsh, down)
        if traced:
            t1 = perf_counter()
            t_walk += t1 - t0
        (i_l1m, d_l1m, l2h,
         c_li, c_ri, c_ld, c_rd, u_l, u_r,
         ml_i, ml_d, mc_i, mc_d, md_i, md_d,
         upg_l, upg_rc, inv_msgs, intervs, wbacks) = res
        # Apply the quantum's aggregates — shared-line service first,
        # then the private fast path — exactly as service_miss /
        # ensure_owner / service_latency would have, in bulk.  Read
        # the stats objects fresh: the boundary above swaps them out.
        cpu = cpus[nid]
        if ml_i or ml_d or mc_i or mc_d or md_i or md_d or inv_msgs \
                or upg_l or upg_rc or intervs or wbacks:
            m = system.misses
            m.i_local += ml_i
            m.i_remote += mc_i + md_i
            m.d_local += ml_d
            m.d_remote_clean += mc_d
            m.d_remote_dirty += md_d
            protocol.upgrades += upg_l + upg_rc
            protocol.invalidations += inv_msgs
            protocol.interventions += intervs
            protocol.writebacks += wbacks
            counters = net.counters
            counters.local_requests += ml_i + ml_d + upg_l
            counters.requests_2hop += mc_i + mc_d + upg_rc
            counters.requests_3hop += md_i + md_d
            counters.invalidations += inv_msgs
            stall = cpu.stall_cycles
            stall[1] += (ml_i + ml_d + upg_l) * lat_loc
            stall[2] += (mc_i + mc_d) * lat_rc + upg_rc * lat_upg
            stall[3] += (md_i + md_d) * lat_rd
        if c_li or c_ri or c_ld or c_rd or u_l or u_r:
            m = system.misses
            m.i_local += c_li
            m.i_remote += c_ri
            m.d_local += c_ld
            m.d_remote_clean += c_rd
            protocol.upgrades += u_l + u_r
            counters = net.counters
            counters.local_requests += c_li + c_ld + u_l
            counters.requests_2hop += c_ri + c_rd + u_r
            stall = cpu.stall_cycles
            stall[1] += (c_li + c_ld + u_l) * lat_loc
            stall[2] += (c_ri + c_rd) * lat_rc + u_r * lat_upg
        if traced:
            t2 = perf_counter()
            t_coh += t2 - t1
        n_i = n_i_q[qi]
        charge_quantum_inorder(
            cpu, (), l2h, lat_l2hit, n_i, n_ki_q[qi],
        )
        if traced:
            t_charge += perf_counter() - t2
        n = q_len[qi]
        i_refs += n_i
        d_refs += n - n_i
        i_miss += i_l1m
        d_miss += d_l1m
        l2hits += l2h
        writes += n_w_q[qi]
        if sampler is not None and qi >= warmup_end:
            sampler.sample(qi, system.misses, i_refs, len(dsh))

    if traced:
        # Aggregate phase spans reconstructed from accumulated segment
        # timings; laid out sequentially from the loop start so they
        # nest inside the live engine span (their sum <= elapsed).
        tracer.add_span("mp.walks", loop_start, t_walk, mode="batch")
        tracer.add_span("mp.coherence", loop_start + t_walk, t_coh,
                        mode="batch")
        tracer.add_span("mp.timing", loop_start + t_walk + t_coh,
                        t_charge, mode="batch")

    # ---- materialize flat state back into the real objects --------------
    with tracer.span("mp.materialize"):
        priv = set(sc.uniq[sc.uniq_private].tolist())
        directory = protocol.directory
        # The run began with an empty directory and only this engine
        # wrote to it, so the flat shared-line entries transplant
        # wholesale.
        directory._sharers.update(dsh)
        directory._owner.update(down)
        for nid, (node, st) in enumerate(zip(nodes, states)):
            _materialize_l1(node.l1i, st.ia, st.ib)
            _materialize_l1(node.l1d, st.da, st.db)
            l2_sets = node.l2._sets
            if st.mode == MODE_DM:
                for s2, occ in enumerate(st.dmset):
                    l2_sets[s2][:] = () if occ == -1 else (occ,)
            elif st.mode == MODE_SET:
                for ways in l2_sets:
                    ways.clear()
                for ln in sorted(st.resident):
                    l2_sets[ln % l2_n].append(ln)
            else:
                for s2, ways in enumerate(st.sets2):
                    l2_sets[s2][:] = ways
            l2_dirty = node.l2._dirty
            for dset in l2_dirty:
                dset.clear()
            for ln in st.dirty:
                l2_dirty[ln % l2_n].add(ln)
            # Private lines never consulted the directory during the
            # run; reconstruct the entries the scalar loop would have
            # left behind.
            owned = st.owned
            if st.mode == MODE_DM:
                resident_iter = (occ for occ in st.dmset if occ != -1)
            elif st.mode == MODE_SET:
                resident_iter = iter(st.resident)
            else:
                resident_iter = (ln for ways in st.sets2 for ln in ways)
            for ln in resident_iter:
                if ln in priv:
                    if ln in owned:
                        directory.set_owner(ln, nid)
                    else:
                        directory.add_sharer(ln, nid)

    system._flush_counters(i_refs, i_miss, d_refs, d_miss, l2hits, writes)
