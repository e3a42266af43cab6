"""Vectorized uniprocessor replay kernel.

The scalar reference loop in :mod:`repro.core.system` walks every
packed reference through the L1/L2 hierarchy one at a time; for the
coherence-free uniprocessor configurations that dominate Figures 5, 7,
10 and 13 this is pure Python overhead.  This module replays the same
trace with numpy doing the heavy lifting and produces statistics that
are **bit-identical** to ``System._run_general`` — the contract the
differential harness (``tests/core/test_differential.py``) and the
independent reference model (``tests/core/test_reference_model.py``)
enforce — so cached campaign results stay valid across engines.

The kernel rests on two exact structural facts:

* **Direct-mapped L2 schedule.**  With inclusion, a reference to a
  line absent from the L2 is necessarily an L1 miss, so a
  direct-mapped L2's content after *any* reference is simply the last
  line referenced in that L2 set.  Consequently the exact L2 miss
  positions, victim lines, writeback flags and final L2 state are all
  computable with array operations alone (a stable sort by L2 set plus
  segmented reductions), independent of L1 state.  Only the 2-way L1s
  are then replayed, by a lean flat-array walk that consumes the
  precomputed purge schedule.

* **MRU-run compression.**  A reference whose predecessor in its
  (stream, L1 set) group touches the same line is an MRU hit that
  changes no state — unless an inclusion purge removed the line in the
  gap.  Dropping those references shrinks the replayed stream by
  ~20 %.  Every purge is checked (vectorized) against the dropped
  positions; any conflict falls back to the uncompressed walk, so the
  optimization is exact by construction.

Associative L2s split on a cheap occupancy test: if no L2 set is ever
asked to hold more distinct lines than it has ways, the L2 can never
evict — every L2 miss is exactly a first touch, no purge can reach the
L1s, and the L2 needs no replay at all (misses, dirty bits and final
state all come from array reductions; only the flat L1 walk runs, on
the compressed stream).  Otherwise the L2 is replayed scalar, jointly
with the L1s (list-based, mirroring ``_run_general`` reference for
reference).  Out-of-order CPUs are handled by recording the
(position, l2-hit) event list during the walk and replaying the exact
``busy``/``stall`` call sequence against the CPU model afterwards.

Multiprocessor traces are out of scope here: the staged coherence
pipeline in :mod:`repro.memsys.vectorized_mp` (the ``vectorized-mp``
engine) extends the same flat-state, exact-by-construction approach
to directory-coherent machines, and reuses this module's
``_materialize_l1``.  An instruction fetch carrying the write flag is
rejected while the trace view is built, as on every engine.
"""

from __future__ import annotations

import weakref
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.integrity.errors import TraceMismatchError
from repro.params import INSTRS_PER_ILINE, LINE_SIZE

__all__ = ["replay_uniprocessor"]


# ---------------------------------------------------------------------------
# Cached per-trace views
# ---------------------------------------------------------------------------

class _L1View:
    """Arrays derived from a trace for one L1 geometry (``l1_n`` sets)."""

    __slots__ = (
        "l1_n", "s1_w", "s1_m", "keep", "kept_idx", "warm_f",
        "drop_i_w", "drop_i_m", "drop_d_w", "drop_d_m",
        "_tv", "_s1", "_eff_c", "_f", "_v",
    )

    def __init__(self, tv: "_TraceView", l1_n: int):
        self.l1_n = l1_n
        self._tv = tv
        lines, flags, warm, n = tv.lines, tv.flags, tv.warm, tv.n
        s1 = lines % l1_n
        self._s1 = s1
        self.s1_w = s1[:warm].tolist()
        self.s1_m = s1[warm:].tolist()

        # MRU-run compression: group by (L1 set, stream); a reference
        # whose in-group predecessor has the same line is a state-free
        # MRU hit and can be dropped from the walk.
        stream = (flags >> 1) & 1
        key = s1 * 2 + stream
        order = np.argsort(key, kind="stable")
        ko = key[order]
        lo = lines[order]
        same = np.zeros(n, dtype=bool)
        same[1:] = (ko[1:] == ko[:-1]) & (lo[1:] == lo[:-1])
        keep_sorted = ~same
        keep = np.empty(n, dtype=bool)
        keep[order] = keep_sorted
        self.keep = keep

        # Each kept reference heading a run of data MRU hits carries
        # the OR of the run's write flags in bit 4, so a single walked
        # reference performs the run's aggregate L2 dirty marking.
        wo = flags[order] & 1
        starts = np.flatnonzero(keep_sorted)
        run_or = np.maximum.reduceat(wo, starts) if len(starts) else wo[:0]
        eff = tv.eff.copy()
        heads = order[starts]
        eff[heads] = flags[heads] | (run_or << 4)
        self._eff_c = eff

        kept_idx = np.flatnonzero(keep)
        self.kept_idx = kept_idx
        self.warm_f = int(np.searchsorted(kept_idx, warm))

        # Dropped references are all hits; credit them per phase/stream.
        drop = ~keep
        is_i = stream.astype(bool)
        self.drop_i_w = int(np.count_nonzero(drop[:warm] & is_i[:warm]))
        self.drop_i_m = int(np.count_nonzero(drop[warm:] & is_i[warm:]))
        self.drop_d_w = int(np.count_nonzero(drop[:warm] & ~is_i[:warm]))
        self.drop_d_m = int(np.count_nonzero(drop[warm:] & ~is_i[warm:]))

        self._f: Optional[tuple] = None
        self._v: Optional[tuple] = None

    def fl(self):
        """Compressed per-phase (lines, eff, s1, pos) lists, lazily.

        Only walks that actually run compressed pay for the list
        conversions; the paper's scaled-down traces typically do not.
        """
        if self._f is None:
            tv = self._tv
            kept_idx = self.kept_idx
            wf = self.warm_f
            fl = tv.lines[kept_idx]
            fe = self._eff_c[kept_idx]
            fs = self._s1[kept_idx]
            self._f = (
                fl[:wf].tolist(), fl[wf:].tolist(),
                fe[:wf].tolist(), fe[wf:].tolist(),
                fs[:wf].tolist(), fs[wf:].tolist(),
                kept_idx[:wf].tolist(), kept_idx[wf:].tolist(),
            )
        return self._f

    def violates(self, vics: np.ndarray, poss: np.ndarray) -> bool:
        """True if any purge invalidates the MRU-run compression."""
        if len(vics) == 0:
            return False
        if self._v is None:
            # Purge-violation lookup: per stream, references sorted by
            # (dense line id, position) with their keep flags.  A purge
            # of line v at position k is only compatible with
            # compression if the next reference to v in each stream is
            # kept.
            tv = self._tv
            lines, n = tv.lines, tv.n
            stream = (tv.flags >> 1) & 1
            uniq = np.unique(lines)
            dense = np.searchsorted(uniq, lines)
            mul = np.int64(1) << np.int64(max(n, 1).bit_length() + 1)
            vkeys, vkept = [], []
            pos = np.arange(n, dtype=np.int64)
            for sel in (np.flatnonzero(stream == 1),
                        np.flatnonzero(stream == 0)):
                skey = dense[sel] * mul + pos[sel]
                o2 = np.argsort(skey, kind="stable")
                vkeys.append(skey[o2])
                vkept.append(self.keep[sel][o2])
            self._v = (uniq, mul, vkeys, vkept)
        uniq, mul, vkeys, vkept = self._v
        dv = np.searchsorted(uniq, vics)
        q = dv * mul + poss + 1
        for skey, skept in zip(vkeys, vkept):
            if not len(skey):
                continue
            i = np.searchsorted(skey, q)
            ii = np.minimum(i, len(skey) - 1)
            inline = (i < len(skey)) & (skey[ii] // mul == dv)
            if np.any(inline & ~skept[ii]):
                return True
        return False


class _DmSchedule:
    """Exact L2 activity for one direct-mapped L2 geometry."""

    __slots__ = (
        "l2_n", "vic", "pos_ev", "vic_line", "wb_m", "l2m_i", "l2m_m",
        "final_set", "final_lines", "final_dirty", "final_fillw",
        "_vic_lists",
    )

    def __init__(self, tv: "_TraceView", l2_n: int):
        self.l2_n = l2_n
        lines, flags, warm, n = tv.lines, tv.flags, tv.warm, tv.n
        s2 = lines % l2_n
        order = np.argsort(s2, kind="stable")
        so_l = lines[order]
        so_s = s2[order]
        newg = np.zeros(n, dtype=bool)
        newg[0] = True
        newg[1:] = so_s[1:] != so_s[:-1]
        chg = newg.copy()
        chg[1:] |= so_l[1:] != so_l[:-1]
        starts = np.flatnonzero(chg)
        so_w = flags[order] & 1
        span_dirty = np.maximum.reduceat(so_w, starts)
        span_fillw = so_w[starts]
        span_idx = np.cumsum(chg) - 1

        ev_so = np.flatnonzero(chg & ~newg)
        self.vic_line = so_l[ev_so - 1]
        self.pos_ev = order[ev_so]
        vic_dirty = span_dirty[span_idx[ev_so] - 1] != 0

        pos_change = order[starts]
        vic = np.full(n, -1, dtype=np.int64)
        vic[pos_change] = -2
        vic[self.pos_ev] = self.vic_line
        self.vic = vic

        self.wb_m = int(np.count_nonzero(vic_dirty & (self.pos_ev >= warm)))
        mi = pos_change >= warm
        is_i = (flags[pos_change] & 2) != 0
        self.l2m_i = int(np.count_nonzero(mi & is_i))
        self.l2m_m = int(np.count_nonzero(mi & ~is_i))

        gends = np.append(np.flatnonzero(newg)[1:] - 1, n - 1)
        self.final_set = so_s[gends].tolist()
        self.final_lines = so_l[gends].tolist()
        self.final_dirty = (span_dirty[span_idx[gends]] != 0).tolist()
        self.final_fillw = (span_fillw[span_idx[gends]] != 0).tolist()
        self._vic_lists: Dict[object, tuple] = {}

    def vic_lists(self, tv: "_TraceView", lv: Optional[_L1View]):
        """Per-phase victim lists, compressed to ``lv`` if given."""
        key = None if lv is None else lv.l1_n
        cached = self._vic_lists.get(key)
        if cached is None:
            if lv is None:
                vw = self.vic[:tv.warm]
                vm = self.vic[tv.warm:]
            else:
                vf = self.vic[lv.kept_idx]
                vw = vf[:lv.warm_f]
                vm = vf[lv.warm_f:]
            cached = (vw.tolist(), vm.tolist())
            self._vic_lists[key] = cached
        return cached


class _TraceView:
    """Numpy projection of an :class:`OltpTrace`, cached per trace."""

    __slots__ = (
        "n", "warm", "lines", "flags", "eff",
        "i_refs_m", "d_refs_m", "writes_m", "kinstr_m",
        "_lists", "_l1views", "_dm", "_ooo", "_ft", "_setmax", "_noev",
        "_hyb",
    )

    def __init__(self, trace):
        chunks = [np.frombuffer(q.refs, dtype=np.int64) for q in trace.quanta]
        refs = np.concatenate(chunks) if chunks else np.empty(0, np.int64)
        self.n = len(refs)
        self.warm = sum(len(q.refs) for q in trace.quanta[:trace.warmup_quanta])
        self.lines = refs >> 4
        self.flags = refs & 15
        if np.any((self.flags & 3) == 3):
            raise TraceMismatchError(
                "trace contains an instruction fetch with the write flag set"
            )
        # Uncompressed walks read the own-write flag from bit 4 too, so
        # one walk implementation serves both modes.
        self.eff = self.flags | ((self.flags & 1) << 4)

        mf = self.flags[self.warm:]
        is_i = (mf & 2) != 0
        self.i_refs_m = int(np.count_nonzero(is_i))
        self.d_refs_m = int(len(mf) - self.i_refs_m)
        self.writes_m = int(np.count_nonzero(~is_i & ((mf & 1) != 0)))
        self.kinstr_m = int(np.count_nonzero(is_i & ((mf & 4) != 0)))

        self._lists: Optional[tuple] = None
        self._l1views: Dict[int, _L1View] = {}
        self._dm: Dict[int, _DmSchedule] = {}
        self._ooo: Optional[tuple] = None
        self._ft: Optional[tuple] = None
        self._setmax: Dict[int, int] = {}
        self._noev: Dict[int, tuple] = {}
        self._hyb: Dict[Tuple[int, int], tuple] = {}

    def lists(self):
        """Uncompressed per-phase (lines, eff, positions) python lists."""
        if self._lists is None:
            w, n = self.warm, self.n
            self._lists = (
                self.lines[:w].tolist(), self.lines[w:].tolist(),
                self.eff[:w].tolist(), self.eff[w:].tolist(),
                list(range(w)), list(range(w, n)),
            )
        return self._lists

    def l1view(self, l1_n: int) -> _L1View:
        view = self._l1views.get(l1_n)
        if view is None:
            view = self._l1views[l1_n] = _L1View(self, l1_n)
        return view

    def dm(self, l2_n: int) -> _DmSchedule:
        sched = self._dm.get(l2_n)
        if sched is None:
            sched = self._dm[l2_n] = _DmSchedule(self, l2_n)
        return sched

    def first_touch(self):
        """No-eviction L2 model, valid whenever no set can overflow.

        Returns ``(uniq, vic, l2m_i, l2m_d, dirty_u, fillw_u)`` where
        ``vic`` holds -2 at each line's first reference (an L2 miss
        with no victim) and -1 elsewhere, ``l2m_*`` count measured-phase
        first touches per stream, and ``dirty_u``/``fillw_u`` give each
        unique line's any-write and fill-was-write flags.  None of it
        depends on the L2 geometry, so every no-eviction configuration
        shares this one computation.
        """
        if self._ft is None:
            uniq, first_idx = np.unique(self.lines, return_index=True)
            vic = np.full(self.n, -1, dtype=np.int64)
            vic[first_idx] = -2
            mi = first_idx >= self.warm
            is_i = (self.flags[first_idx] & 2) != 0
            l2m_i = int(np.count_nonzero(mi & is_i))
            l2m_d = int(np.count_nonzero(mi & ~is_i))
            dense = np.searchsorted(uniq, self.lines)
            wsel = dense[(self.flags & 1) != 0]
            dirty_u = np.bincount(wsel, minlength=len(uniq)) > 0
            fillw_u = (self.flags[first_idx] & 1) != 0
            self._ft = (uniq, vic, l2m_i, l2m_d, dirty_u, fillw_u)
        return self._ft

    def max_set_occupancy(self, l2_n: int) -> int:
        """Most distinct lines any single L2 set is ever asked to hold."""
        out = self._setmax.get(l2_n)
        if out is None:
            uniq = self.first_touch()[0]
            counts = np.bincount(uniq % l2_n)
            out = self._setmax[l2_n] = int(counts.max(initial=0))
        return out

    def hybrid_vic_lists(self, l2_n: int, l2_assoc: int):
        """Per-phase schedules for the hybrid associative walk.

        Each reference carries -1 (L2 hit in a set that can never
        overflow), -2 (first touch: an L2 miss with no victim) or -3
        (the set may overflow, so the walk must consult the scalar L2).
        Also returns the overflow set ids and the per-unique-line
        overflow mask used to assemble the final L2 state.
        """
        key = (l2_n, l2_assoc)
        cached = self._hyb.get(key)
        if cached is None:
            uniq, vic_ft = self.first_touch()[:2]
            setcnt = np.bincount(uniq % l2_n, minlength=l2_n)
            ovf = setcnt > l2_assoc
            ovf_u = ovf[uniq % l2_n]
            if ovf_u.all():
                # Every line lives in an overflow-capable set (typical
                # for the paper's scaled-down caches): the schedule
                # would be uniformly -3, so skip building it and let
                # the caller run the pure scalar walk.
                cached = (None, None, np.flatnonzero(ovf), ovf_u)
            else:
                vic = np.where(ovf[self.lines % l2_n], -3, vic_ft)
                if np.count_nonzero(vic == -3) >= 0.95 * len(vic):
                    # Nearly every reference would consult the scalar
                    # L2 anyway; the per-reference schedule costs more
                    # than the few known outcomes save.  Fall back to
                    # the pure scalar walk — every touched set then
                    # materializes from the scalar L2 state, so report
                    # them all as overflow sets.
                    cached = (
                        None, None, np.flatnonzero(setcnt > 0),
                        np.ones_like(ovf_u),
                    )
                else:
                    cached = (
                        vic[:self.warm].tolist(), vic[self.warm:].tolist(),
                        np.flatnonzero(ovf), ovf_u,
                    )
            self._hyb[key] = cached
        return cached

    def noev_vic_lists(self, lv: _L1View):
        """Per-phase first-touch schedules compressed to ``lv``."""
        cached = self._noev.get(lv.l1_n)
        if cached is None:
            vic = self.first_touch()[1]
            vf = vic[lv.kept_idx]
            cached = self._noev[lv.l1_n] = (
                vf[:lv.warm_f].tolist(), vf[lv.warm_f:].tolist()
            )
        return cached

    def ooo_events(self):
        """Per-phase instruction positions/kernel flags + full flag list."""
        if self._ooo is None:
            ipos = np.flatnonzero((self.flags & 2) != 0)
            ik = (self.flags[ipos] & 4).tolist()
            split = int(np.searchsorted(ipos, self.warm))
            ipos_l = ipos.tolist()
            self._ooo = (
                ipos_l[:split], ik[:split], ipos_l[split:], ik[split:],
                self.flags.tolist(),
            )
        return self._ooo


#: Most-recently-used trace views; identity-keyed with a weakref guard
#: so a recycled id never serves stale arrays.
_VIEW_CACHE: List[Tuple[int, "weakref.ref", _TraceView]] = []
_VIEW_CACHE_SIZE = 2


def _view_for(trace) -> _TraceView:
    for i, (tid, ref, view) in enumerate(_VIEW_CACHE):
        if tid == id(trace) and ref() is trace:
            if i:
                _VIEW_CACHE.insert(0, _VIEW_CACHE.pop(i))
            return view
    view = _TraceView(trace)
    try:
        ref = weakref.ref(trace)
    except TypeError:  # pragma: no cover - OltpTrace is weakref-able
        return view
    _VIEW_CACHE.insert(0, (id(trace), ref, view))
    del _VIEW_CACHE[_VIEW_CACHE_SIZE:]
    return view


# ---------------------------------------------------------------------------
# L1 walks (flat two-way arrays; -1 marks an empty way)
# ---------------------------------------------------------------------------

def _walk_dm(lines, effs, s1s, vics, l1_n, ia, ib, da, db):
    """Replay one phase against the L1s with a precomputed L2 schedule.

    Returns ``(i_hits, d_hits)`` over the walked references.
    """
    i_hit = d_hit = 0
    for line, f, s, v in zip(lines, effs, s1s, vics):
        if f & 2:
            if ia[s] == line:
                i_hit += 1
                continue
            if ib[s] == line:
                ib[s] = ia[s]
                ia[s] = line
                i_hit += 1
                continue
            if v >= 0:
                vs = v % l1_n
                if ia[vs] == v:
                    ia[vs] = ib[vs]
                    ib[vs] = -1
                elif ib[vs] == v:
                    ib[vs] = -1
                if da[vs] == v:
                    da[vs] = db[vs]
                    db[vs] = -1
                elif db[vs] == v:
                    db[vs] = -1
            ib[s] = ia[s]
            ia[s] = line
        else:
            if da[s] == line:
                d_hit += 1
                continue
            if db[s] == line:
                db[s] = da[s]
                da[s] = line
                d_hit += 1
                continue
            if v >= 0:
                vs = v % l1_n
                if ia[vs] == v:
                    ia[vs] = ib[vs]
                    ib[vs] = -1
                elif ib[vs] == v:
                    ib[vs] = -1
                if da[vs] == v:
                    da[vs] = db[vs]
                    db[vs] = -1
                elif db[vs] == v:
                    db[vs] = -1
            db[s] = da[s]
            da[s] = line
    return i_hit, d_hit


def _walk_dm_rec(lines, effs, s1s, vics, poss, l1_n, ia, ib, da, db, mrec):
    """Like :func:`_walk_dm` but records (position, l2_hit) per L1 miss."""
    i_hit = d_hit = 0
    append = mrec.append
    k = 0
    for line, f, s, v in zip(lines, effs, s1s, vics):
        if f & 2:
            if ia[s] == line:
                i_hit += 1
                k += 1
                continue
            if ib[s] == line:
                ib[s] = ia[s]
                ia[s] = line
                i_hit += 1
                k += 1
                continue
            if v >= 0:
                vs = v % l1_n
                if ia[vs] == v:
                    ia[vs] = ib[vs]
                    ib[vs] = -1
                elif ib[vs] == v:
                    ib[vs] = -1
                if da[vs] == v:
                    da[vs] = db[vs]
                    db[vs] = -1
                elif db[vs] == v:
                    db[vs] = -1
            append((poss[k], v == -1))
            ib[s] = ia[s]
            ia[s] = line
        else:
            if da[s] == line:
                d_hit += 1
                k += 1
                continue
            if db[s] == line:
                db[s] = da[s]
                da[s] = line
                d_hit += 1
                k += 1
                continue
            if v >= 0:
                vs = v % l1_n
                if ia[vs] == v:
                    ia[vs] = ib[vs]
                    ib[vs] = -1
                elif ib[vs] == v:
                    ib[vs] = -1
                if da[vs] == v:
                    da[vs] = db[vs]
                    db[vs] = -1
                elif db[vs] == v:
                    db[vs] = -1
            append((poss[k], v == -1))
            db[s] = da[s]
            da[s] = line
        k += 1
    return i_hit, d_hit


def _walk_scalar4(lines, effs, s1s, l1_n, l2_n,
                  ia, ib, da, db, sets2, dirty2, fw):
    """``_walk_scalar`` specialized for the 4-way L2, in-order CPUs.

    Four-way off-chip L2s dominate the paper's uniprocessor sweeps
    (five of Figure 5's nine geometries), so the generic per-set
    list's ``remove``/``insert``/``pop`` method calls are worth
    eliminating: the four ways unroll into flat slot lists (MRU first,
    -1 = empty) exactly like the two L1 ways, making every LRU move a
    few C-level index assignments.  State enters and leaves through
    ``sets2``/``dirty2`` so callers see the same list-of-lists
    representation the generic walk uses, and the walk stays resumable
    across the warmup/measured phases.
    """
    wa = [-1] * l2_n
    wb_ = [-1] * l2_n
    wc = [-1] * l2_n
    wd = [-1] * l2_n
    dirty = set()
    for i2, ways in enumerate(sets2):
        for way, slots in zip(ways, (wa, wb_, wc, wd)):
            slots[i2] = way
        dirty.update(dirty2[i2])
    i_hit = d_hit = l2m_i = l2m_d = wb = 0
    for line, f, s in zip(lines, effs, s1s):
        if f & 2:
            if ia[s] == line:
                i_hit += 1
                continue
            if ib[s] == line:
                ib[s] = ia[s]
                ia[s] = line
                i_hit += 1
                continue
            i2 = line % l2_n
            if wa[i2] != line:
                if wb_[i2] == line:
                    wb_[i2] = wa[i2]
                    wa[i2] = line
                elif wc[i2] == line:
                    wc[i2] = wb_[i2]
                    wb_[i2] = wa[i2]
                    wa[i2] = line
                elif wd[i2] == line:
                    wd[i2] = wc[i2]
                    wc[i2] = wb_[i2]
                    wb_[i2] = wa[i2]
                    wa[i2] = line
                else:
                    victim = wd[i2]
                    wd[i2] = wc[i2]
                    wc[i2] = wb_[i2]
                    wb_[i2] = wa[i2]
                    wa[i2] = line
                    if victim != -1:
                        if victim in dirty:
                            dirty.remove(victim)
                            wb += 1
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
                        fw.pop(victim, None)
                    fw[line] = False
                    l2m_i += 1
            ib[s] = ia[s]
            ia[s] = line
        else:
            if da[s] == line:
                d_hit += 1
                if f & 16:
                    dirty.add(line)
                continue
            if db[s] == line:
                db[s] = da[s]
                da[s] = line
                d_hit += 1
                if f & 16:
                    dirty.add(line)
                continue
            i2 = line % l2_n
            if wa[i2] != line:
                if wb_[i2] == line:
                    wb_[i2] = wa[i2]
                    wa[i2] = line
                elif wc[i2] == line:
                    wc[i2] = wb_[i2]
                    wb_[i2] = wa[i2]
                    wa[i2] = line
                elif wd[i2] == line:
                    wd[i2] = wc[i2]
                    wc[i2] = wb_[i2]
                    wb_[i2] = wa[i2]
                    wa[i2] = line
                else:
                    victim = wd[i2]
                    wd[i2] = wc[i2]
                    wc[i2] = wb_[i2]
                    wb_[i2] = wa[i2]
                    wa[i2] = line
                    if victim != -1:
                        if victim in dirty:
                            dirty.remove(victim)
                            wb += 1
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
                        fw.pop(victim, None)
                    fw[line] = bool(f & 1)
                    l2m_d += 1
            if f & 16:
                dirty.add(line)
            db[s] = da[s]
            da[s] = line
    for i2 in range(l2_n):
        sets2[i2][:] = [
            way for way in (wa[i2], wb_[i2], wc[i2], wd[i2]) if way != -1
        ]
        dirty2[i2] = {ln for ln in sets2[i2] if ln in dirty}
    return i_hit, d_hit, l2m_i, l2m_d, wb


def _walk_scalar(lines, effs, s1s, poss, l1_n, l2_n, l2_assoc,
                 ia, ib, da, db, sets2, dirty2, fw, mrec):
    """Joint L1 + associative-L2 walk with no precomputed schedule.

    Used when every line maps to an overflow-capable L2 set, so the
    hybrid schedule would mark every reference -3 anyway; dropping the
    per-reference schedule (and, in-order, the position bookkeeping)
    keeps the loop lean.  Mirrors ``_run_general`` reference for
    reference.  Returns ``(i_hits, d_hits, l2m_i, l2m_d, writebacks)``.
    """
    i_hit = d_hit = l2m_i = l2m_d = wb = 0
    if mrec is None:
        if l2_assoc == 4:
            return _walk_scalar4(lines, effs, s1s, l1_n, l2_n,
                                 ia, ib, da, db, sets2, dirty2, fw)
        for line, f, s in zip(lines, effs, s1s):
            if f & 2:
                if ia[s] == line:
                    i_hit += 1
                    continue
                if ib[s] == line:
                    ib[s] = ia[s]
                    ia[s] = line
                    i_hit += 1
                    continue
                i2 = line % l2_n
                ways2 = sets2[i2]
                if line in ways2:
                    if ways2[0] != line:
                        ways2.remove(line)
                        ways2.insert(0, line)
                else:
                    if len(ways2) >= l2_assoc:
                        victim = ways2.pop()
                        ds = dirty2[i2]
                        if victim in ds:
                            ds.remove(victim)
                            wb += 1
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
                        fw.pop(victim, None)
                    ways2.insert(0, line)
                    fw[line] = False
                    l2m_i += 1
                ib[s] = ia[s]
                ia[s] = line
            else:
                if da[s] == line:
                    d_hit += 1
                    if f & 16:
                        dirty2[line % l2_n].add(line)
                    continue
                if db[s] == line:
                    db[s] = da[s]
                    da[s] = line
                    d_hit += 1
                    if f & 16:
                        dirty2[line % l2_n].add(line)
                    continue
                i2 = line % l2_n
                ways2 = sets2[i2]
                if line in ways2:
                    if ways2[0] != line:
                        ways2.remove(line)
                        ways2.insert(0, line)
                    if f & 16:
                        dirty2[i2].add(line)
                else:
                    if len(ways2) >= l2_assoc:
                        victim = ways2.pop()
                        ds = dirty2[i2]
                        if victim in ds:
                            ds.remove(victim)
                            wb += 1
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
                        fw.pop(victim, None)
                    ways2.insert(0, line)
                    if f & 16:
                        dirty2[i2].add(line)
                    fw[line] = bool(f & 1)
                    l2m_d += 1
                db[s] = da[s]
                da[s] = line
        return i_hit, d_hit, l2m_i, l2m_d, wb

    append = mrec.append
    k = 0
    for line, f, s in zip(lines, effs, s1s):
        if f & 2:
            if ia[s] == line:
                i_hit += 1
                k += 1
                continue
            if ib[s] == line:
                ib[s] = ia[s]
                ia[s] = line
                i_hit += 1
                k += 1
                continue
            i2 = line % l2_n
            ways2 = sets2[i2]
            if line in ways2:
                if ways2[0] != line:
                    ways2.remove(line)
                    ways2.insert(0, line)
                append((poss[k], True))
            else:
                if len(ways2) >= l2_assoc:
                    victim = ways2.pop()
                    ds = dirty2[i2]
                    if victim in ds:
                        ds.remove(victim)
                        wb += 1
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
                    fw.pop(victim, None)
                ways2.insert(0, line)
                fw[line] = False
                l2m_i += 1
                append((poss[k], False))
            ib[s] = ia[s]
            ia[s] = line
        else:
            if da[s] == line:
                d_hit += 1
                if f & 16:
                    dirty2[line % l2_n].add(line)
                k += 1
                continue
            if db[s] == line:
                db[s] = da[s]
                da[s] = line
                d_hit += 1
                if f & 16:
                    dirty2[line % l2_n].add(line)
                k += 1
                continue
            i2 = line % l2_n
            ways2 = sets2[i2]
            if line in ways2:
                if ways2[0] != line:
                    ways2.remove(line)
                    ways2.insert(0, line)
                if f & 16:
                    dirty2[i2].add(line)
                append((poss[k], True))
            else:
                if len(ways2) >= l2_assoc:
                    victim = ways2.pop()
                    ds = dirty2[i2]
                    if victim in ds:
                        ds.remove(victim)
                        wb += 1
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
                    fw.pop(victim, None)
                ways2.insert(0, line)
                if f & 16:
                    dirty2[i2].add(line)
                fw[line] = bool(f & 1)
                l2m_d += 1
                append((poss[k], False))
            db[s] = da[s]
            da[s] = line
        k += 1
    return i_hit, d_hit, l2m_i, l2m_d, wb


def _walk_assoc4(lines, effs, s1s, vics, l1_n, l2_n,
                 ia, ib, da, db, sets2, dirty2, fw):
    """``_walk_assoc`` specialized for the 4-way L2, in-order CPUs.

    Same flat-slot unrolling as :func:`_walk_scalar4` (the overflow
    sets' four ways become index assignments instead of list method
    calls), applied only to the -3 references; -1/-2 references keep
    their precomputed outcome.  State round-trips through ``sets2`` /
    ``dirty2`` as in the generic walk.
    """
    wa = [-1] * l2_n
    wb_ = [-1] * l2_n
    wc = [-1] * l2_n
    wd = [-1] * l2_n
    dirty = set()
    for i2, ways in enumerate(sets2):
        for way, slots in zip(ways, (wa, wb_, wc, wd)):
            slots[i2] = way
        dirty.update(dirty2[i2])
    i_hit = d_hit = l2m_i = l2m_d = wb = 0
    for line, f, s, v in zip(lines, effs, s1s, vics):
        if f & 2:
            if ia[s] == line:
                i_hit += 1
                continue
            if ib[s] == line:
                ib[s] = ia[s]
                ia[s] = line
                i_hit += 1
                continue
            if v == -3:
                i2 = line % l2_n
                if wa[i2] != line:
                    if wb_[i2] == line:
                        wb_[i2] = wa[i2]
                        wa[i2] = line
                    elif wc[i2] == line:
                        wc[i2] = wb_[i2]
                        wb_[i2] = wa[i2]
                        wa[i2] = line
                    elif wd[i2] == line:
                        wd[i2] = wc[i2]
                        wc[i2] = wb_[i2]
                        wb_[i2] = wa[i2]
                        wa[i2] = line
                    else:
                        victim = wd[i2]
                        wd[i2] = wc[i2]
                        wc[i2] = wb_[i2]
                        wb_[i2] = wa[i2]
                        wa[i2] = line
                        if victim != -1:
                            if victim in dirty:
                                dirty.remove(victim)
                                wb += 1
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
                            fw.pop(victim, None)
                        fw[line] = False
                        l2m_i += 1
            elif v == -2:
                l2m_i += 1
            ib[s] = ia[s]
            ia[s] = line
        else:
            if da[s] == line:
                d_hit += 1
                if f & 16 and v == -3:
                    dirty.add(line)
                continue
            if db[s] == line:
                db[s] = da[s]
                da[s] = line
                d_hit += 1
                if f & 16 and v == -3:
                    dirty.add(line)
                continue
            if v == -3:
                i2 = line % l2_n
                if wa[i2] != line:
                    if wb_[i2] == line:
                        wb_[i2] = wa[i2]
                        wa[i2] = line
                    elif wc[i2] == line:
                        wc[i2] = wb_[i2]
                        wb_[i2] = wa[i2]
                        wa[i2] = line
                    elif wd[i2] == line:
                        wd[i2] = wc[i2]
                        wc[i2] = wb_[i2]
                        wb_[i2] = wa[i2]
                        wa[i2] = line
                    else:
                        victim = wd[i2]
                        wd[i2] = wc[i2]
                        wc[i2] = wb_[i2]
                        wb_[i2] = wa[i2]
                        wa[i2] = line
                        if victim != -1:
                            if victim in dirty:
                                dirty.remove(victim)
                                wb += 1
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
                            fw.pop(victim, None)
                        fw[line] = bool(f & 1)
                        l2m_d += 1
                if f & 16:
                    dirty.add(line)
            elif v == -2:
                l2m_d += 1
            db[s] = da[s]
            da[s] = line
    for i2 in range(l2_n):
        sets2[i2][:] = [
            way for way in (wa[i2], wb_[i2], wc[i2], wd[i2]) if way != -1
        ]
        dirty2[i2] = {ln for ln in sets2[i2] if ln in dirty}
    return i_hit, d_hit, l2m_i, l2m_d, wb


def _walk_assoc(lines, effs, s1s, vics, poss, l1_n, l2_n, l2_assoc,
                ia, ib, da, db, sets2, dirty2, fw, mrec):
    """Hybrid L1 + associative-L2 walk, exact w.r.t. ``_run_general``.

    ``vics`` (from :meth:`_TraceView.hybrid_vic_lists`) partitions the
    references: -3 means the line's L2 set may overflow, so the scalar
    L2 lists are consulted (mirroring ``_run_general`` reference for
    reference, including inclusion purges); -1/-2 mean the set can
    never overflow, so the L2 outcome is already known (hit / first-
    touch miss) and its state needs no upkeep — the two set
    populations are disjoint, so skipping the probe is unobservable.
    ``mrec`` (out-of-order) collects (position, l2_hit) per L1 miss.
    Returns ``(i_hits, d_hits, l2_miss_i, l2_miss_d, writebacks)``.
    """
    if mrec is None and l2_assoc == 4:
        return _walk_assoc4(lines, effs, s1s, vics, l1_n, l2_n,
                            ia, ib, da, db, sets2, dirty2, fw)
    i_hit = d_hit = l2m_i = l2m_d = wb = 0
    k = 0
    for line, f, s, v in zip(lines, effs, s1s, vics):
        if f & 2:
            if ia[s] == line:
                i_hit += 1
                k += 1
                continue
            if ib[s] == line:
                ib[s] = ia[s]
                ia[s] = line
                i_hit += 1
                k += 1
                continue
            if v == -3:
                i2 = line % l2_n
                ways2 = sets2[i2]
                if line in ways2:
                    if ways2[0] != line:
                        ways2.remove(line)
                        ways2.insert(0, line)
                    if mrec is not None:
                        mrec.append((poss[k], True))
                else:
                    if len(ways2) >= l2_assoc:
                        victim = ways2.pop()
                        ds = dirty2[i2]
                        if victim in ds:
                            ds.remove(victim)
                            wb += 1
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
                        fw.pop(victim, None)
                    ways2.insert(0, line)
                    fw[line] = False
                    l2m_i += 1
                    if mrec is not None:
                        mrec.append((poss[k], False))
            else:
                if v == -2:
                    l2m_i += 1
                if mrec is not None:
                    mrec.append((poss[k], v == -1))
            ib[s] = ia[s]
            ia[s] = line
        else:
            if da[s] == line:
                d_hit += 1
                if f & 16 and v == -3:
                    dirty2[line % l2_n].add(line)
                k += 1
                continue
            if db[s] == line:
                db[s] = da[s]
                da[s] = line
                d_hit += 1
                if f & 16 and v == -3:
                    dirty2[line % l2_n].add(line)
                k += 1
                continue
            if v == -3:
                i2 = line % l2_n
                ways2 = sets2[i2]
                if line in ways2:
                    if ways2[0] != line:
                        ways2.remove(line)
                        ways2.insert(0, line)
                    if f & 16:
                        dirty2[i2].add(line)
                    if mrec is not None:
                        mrec.append((poss[k], True))
                else:
                    if len(ways2) >= l2_assoc:
                        victim = ways2.pop()
                        ds = dirty2[i2]
                        if victim in ds:
                            ds.remove(victim)
                            wb += 1
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
                        fw.pop(victim, None)
                    ways2.insert(0, line)
                    if f & 16:
                        dirty2[i2].add(line)
                    fw[line] = bool(f & 1)
                    l2m_d += 1
                    if mrec is not None:
                        mrec.append((poss[k], False))
            else:
                if v == -2:
                    l2m_d += 1
                if mrec is not None:
                    mrec.append((poss[k], v == -1))
            db[s] = da[s]
            da[s] = line
        k += 1
    return i_hit, d_hit, l2m_i, l2m_d, wb


# ---------------------------------------------------------------------------
# Out-of-order event replay
# ---------------------------------------------------------------------------

def _replay_ooo(cpu, tv: _TraceView, mrec_w, mrec_m, lat) -> None:
    """Re-issue the exact busy/stall call sequence of ``_run_general``.

    Float accumulation in the out-of-order model is order-sensitive, so
    bit-identity requires replaying per-fetch ``busy`` calls and
    per-miss ``stall`` calls in trace order, with the statistics reset
    (but not the pipeline clock) at the warmup boundary.
    """
    ipos_w, ik_w, ipos_m, ik_m, flags_l = tv.ooo_events()
    lat_hit = lat.l2_hit
    lat_loc = lat.local
    for ipos, ik, mrec, is_warm in (
        (ipos_w, ik_w, mrec_w, True),
        (ipos_m, ik_m, mrec_m, False),
    ):
        busy = cpu.busy
        stall = cpu.stall
        n_i = len(ipos)
        ip = 0
        for pos, l2h in mrec:
            while ip < n_i and ipos[ip] <= pos:
                busy(INSTRS_PER_ILINE, ik[ip])
                ip += 1
            f = flags_l[pos]
            if l2h:
                stall(lat_hit, 0, f & 8, f & 2)
            else:
                stall(lat_loc, 1, f & 8, f & 2)
        while ip < n_i:
            busy(INSTRS_PER_ILINE, ik[ip])
            ip += 1
        if is_warm:
            cpu.reset()


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _materialize_l1(cache, flat_a, flat_b) -> None:
    for s, ways in enumerate(cache._sets):
        ways.clear()
        a = flat_a[s]
        if a != -1:
            ways.append(a)
            b = flat_b[s]
            if b != -1:
                ways.append(b)


def replay_uniprocessor(system, trace, protocol, net) -> None:
    """Replay ``trace`` and populate ``system`` state and counters.

    ``System.select_engine`` routes only single-node, single-core
    machines with 2-way L1s and no victim buffer, TLB, RAC or fault
    plan here.

    A chunk-streamed trace is materialized here: the kernel's
    structural algorithms (global argsort runs, first-touch
    ``np.unique``) need the whole reference stream at once, and
    collection reconstructs the exact trace, so streamed results stay
    value-identical to materialized ones.
    """
    from repro.trace.stream import is_streaming

    if is_streaming(trace):
        trace = trace.collect()
    machine = system.machine
    node = system.nodes[0]
    l1i, l1d, l2 = node.l1i, node.l1d, node.l2
    l1_n = l1i.num_sets
    l2_n = l2.num_sets
    l2_assoc = l2.assoc
    ooo = machine.cpu_model == "ooo"
    lat = machine.latencies

    # Observability: the kernel has no quantum loop (it replays out of
    # trace order), so it publishes three synthetic phase spans from
    # perf_counter checkpoints instead of live nested spans — and pays
    # nothing when tracing is disabled.
    tracer = system._tracer
    traced = tracer.enabled
    t_start = perf_counter() if traced else 0.0

    tv = _view_for(trace)
    if tv.n == 0:
        return
    lv = tv.l1view(l1_n)
    t_views = perf_counter() if traced else 0.0

    ia = [-1] * l1_n
    ib = [-1] * l1_n
    da = [-1] * l1_n
    db = [-1] * l1_n
    mrec_w: Optional[list] = [] if ooo else None
    mrec_m: Optional[list] = [] if ooo else None

    if l2_assoc == 1:
        sched = tv.dm(l2_n)
        compressed = not (
            np.any(~lv.keep[np.flatnonzero(sched.vic != -1)])
            or lv.violates(sched.vic_line, sched.pos_ev)
        )
        if compressed:
            (lines_w, lines_m, eff_w, eff_m,
             s1_w, s1_m, pos_w, pos_m) = lv.fl()
            vic_w, vic_m = sched.vic_lists(tv, lv)
            drop_i_m, drop_d_m = lv.drop_i_m, lv.drop_d_m
        else:
            lines_full = tv.lists()
            lines_w, lines_m, eff_w, eff_m, pos_w, pos_m = lines_full
            s1_w, s1_m = lv.s1_w, lv.s1_m
            vic_w, vic_m = sched.vic_lists(tv, None)
            drop_i_m = drop_d_m = 0

        if ooo:
            _walk_dm_rec(lines_w, eff_w, s1_w, vic_w, pos_w,
                         l1_n, ia, ib, da, db, mrec_w)
            i_hit, d_hit = _walk_dm_rec(lines_m, eff_m, s1_m, vic_m, pos_m,
                                        l1_n, ia, ib, da, db, mrec_m)
        else:
            _walk_dm(lines_w, eff_w, s1_w, vic_w, l1_n, ia, ib, da, db)
            i_hit, d_hit = _walk_dm(lines_m, eff_m, s1_m, vic_m,
                                    l1_n, ia, ib, da, db)
        i_hit += drop_i_m
        d_hit += drop_d_m
        l2m_i, l2m_d, wb_m = sched.l2m_i, sched.l2m_m, sched.wb_m

        # Final L2 + directory state straight from the schedule.
        sets2 = l2._sets
        dirty2 = l2._dirty
        sharers = protocol.directory._sharers
        owner = protocol.directory._owner
        for s, line, dirty, fillw in zip(sched.final_set, sched.final_lines,
                                         sched.final_dirty, sched.final_fillw):
            sets2[s].append(line)
            if dirty:
                dirty2[s].add(line)
            sharers[line] = {0}
            if fillw:
                owner[line] = 0
    elif tv.max_set_occupancy(l2_n) <= l2_assoc:
        # No L2 set is ever asked to hold more distinct lines than it
        # has ways, so the L2 never evicts: every L2 miss is exactly a
        # first touch and no inclusion purge can reach the L1s.  The L2
        # side then needs no replay at all — misses, dirty bits and
        # final state come from array reductions shared by every
        # no-eviction geometry — and MRU-run compression is trivially
        # exact, so only the compressed L1 walk runs.
        uniq, _, l2m_i, l2m_d, dirty_u, fillw_u = tv.first_touch()
        vic_w, vic_m = tv.noev_vic_lists(lv)
        (fl_w, fl_m, fe_w, fe_m, fs_w, fs_m, fp_w, fp_m) = lv.fl()
        if ooo:
            _walk_dm_rec(fl_w, fe_w, fs_w, vic_w, fp_w,
                         l1_n, ia, ib, da, db, mrec_w)
            i_hit, d_hit = _walk_dm_rec(fl_m, fe_m, fs_m, vic_m, fp_m,
                                        l1_n, ia, ib, da, db, mrec_m)
        else:
            _walk_dm(fl_w, fe_w, fs_w, vic_w, l1_n, ia, ib, da, db)
            i_hit, d_hit = _walk_dm(fl_m, fe_m, fs_m, vic_m,
                                    l1_n, ia, ib, da, db)
        i_hit += lv.drop_i_m
        d_hit += lv.drop_d_m
        wb_m = 0
        sets2 = l2._sets
        dirty2 = l2._dirty
        sharers = protocol.directory._sharers
        owner = protocol.directory._owner
        # Lines land in ascending order rather than the scalar recency
        # order; per-set LRU order is unobservable once the run is over
        # (results carry no cache state and the checker tests membership
        # and set mapping only).
        for line, dirty, fillw in zip(uniq.tolist(), dirty_u.tolist(),
                                      fillw_u.tolist()):
            s = line % l2_n
            sets2[s].append(line)
            if dirty:
                dirty2[s].add(line)
            sharers[line] = {0}
            if fillw:
                owner[line] = 0
    else:
        # Some set may overflow, so those sets (usually a handful) are
        # replayed scalar, jointly with the L1s — inclusion purges
        # couple the levels — while the never-overflowing majority
        # follows the precomputed first-touch schedule.  The walk runs
        # uncompressed: purges land inside MRU runs on essentially any
        # trace that overflows a set, so a compressed attempt would be
        # wasted work.
        vic_w, vic_m, ovf_sets, ovf_u = tv.hybrid_vic_lists(l2_n, l2_assoc)
        sets2 = l2._sets
        dirty2 = l2._dirty
        fw: Dict[int, bool] = {}
        lw, lm, ew, em, pw, pm = tv.lists()
        if vic_w is None:
            _walk_scalar(lw, ew, lv.s1_w, pw, l1_n, l2_n, l2_assoc,
                         ia, ib, da, db, sets2, dirty2, fw, mrec_w)
            i_hit, d_hit, l2m_i, l2m_d, wb_m = _walk_scalar(
                lm, em, lv.s1_m, pm, l1_n, l2_n, l2_assoc,
                ia, ib, da, db, sets2, dirty2, fw, mrec_m)
        else:
            _walk_assoc(lw, ew, lv.s1_w, vic_w, pw, l1_n, l2_n, l2_assoc,
                        ia, ib, da, db, sets2, dirty2, fw, mrec_w)
            i_hit, d_hit, l2m_i, l2m_d, wb_m = _walk_assoc(
                lm, em, lv.s1_m, vic_m, pm, l1_n, l2_n, l2_assoc,
                ia, ib, da, db, sets2, dirty2, fw, mrec_m)

        uniq, _, _, _, dirty_u, fillw_u = tv.first_touch()
        sharers = protocol.directory._sharers
        owner = protocol.directory._owner
        nov = ~ovf_u
        # Never-overflowing sets: every touched line is still resident;
        # lines land in ascending order rather than the scalar recency
        # order, which is unobservable once the run is over (results
        # carry no cache state and the checker tests membership only).
        for line, dirty, fillw in zip(uniq[nov].tolist(),
                                      dirty_u[nov].tolist(),
                                      fillw_u[nov].tolist()):
            s = line % l2_n
            sets2[s].append(line)
            if dirty:
                dirty2[s].add(line)
            sharers[line] = {0}
            if fillw:
                owner[line] = 0
        for sid in ovf_sets.tolist():
            for line in sets2[sid]:
                sharers[line] = {0}
        for line, w in fw.items():
            if w:
                owner[line] = 0

    t_walk = perf_counter() if traced else 0.0

    _materialize_l1(l1i, ia, ib)
    _materialize_l1(l1d, da, db)

    # -- measured statistics, assembled to match _run_general bit-for-bit --
    i_refs = tv.i_refs_m
    d_refs = tv.d_refs_m
    i_miss = i_refs - i_hit
    d_miss = d_refs - d_hit
    l2_misses = l2m_i + l2m_d
    l2_hits = (i_miss + d_miss) - l2_misses

    system.l1.i_refs += i_refs
    system.l1.i_misses += i_miss
    system.l1.d_refs += d_refs
    system.l1.d_misses += d_miss
    system.l2_hits += l2_hits
    system.writes += tv.writes_m
    system.misses.i_local += l2m_i
    system.misses.d_local += l2m_d
    protocol.writebacks += wb_m
    net.counters.local_requests += l2_misses

    cpu = system.cpus[0]
    if ooo:
        _replay_ooo(cpu, tv, mrec_w, mrec_m, lat)
    else:
        cpu.busy_cycles = i_refs * INSTRS_PER_ILINE
        cpu.kernel_busy_cycles = tv.kinstr_m * INSTRS_PER_ILINE
        cpu.stall_cycles[0] = l2_hits * lat.l2_hit
        cpu.stall_cycles[1] = l2_misses * lat.local

    if traced:
        t_end = perf_counter()
        tracer.add_span("uni.views", t_start, t_views - t_start)
        tracer.add_span("uni.walk", t_views, t_walk - t_views)
        tracer.add_span("uni.finalize", t_walk, t_end - t_walk)
