"""One workload's run: set-up, passes, output checks and metrics.

``run.py`` is the command; this module does the measuring.  Every timed
operation is one call into the program -- one replayed job, one read
half, one write half, one trace set-up; garbage collection, host-speed
samples, output checks and clean-up happen between them.  End-to-end
times are in reference-host seconds (see ``hostspeed.py``); the run
also prints them in plain host seconds.
"""

from __future__ import annotations

import gc
import resource
import shutil
import statistics
import time
from contextlib import nullcontext
from pathlib import Path

from repro.runner import CampaignRunner, ResultCache, default_trace_store

from hostspeed import HostSpeed
from layers import SpanTable, instrumented
from workloads import Checks, read_half, run_one, write_half

#: Set-ups per run; setup_s reports their median.
SETUPS = 3
#: A cached-rerun write half is loaded back every this many passes.
READBACK_EVERY = 16

END_TO_END_UNITS = {
    "setup_s": "s",
    "first_pass_s": "s",
    "refs_per_s": "refs/s",
    "jobs_per_s": "jobs/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "trace.build_s": "s",
    "trace.refs": "count",
    "mp.census_s": "s",
    "uni.views_s": "s",
    "uni.walk_s": "s",
    "uni.walk_ns_per_ref": "ns/ref",
    "uni.finalize_s": "s",
    "mp.walks_s": "s",
    "mp.walks_ns_per_ref": "ns/ref",
    "mp.coherence_s": "s",
    "mp.timing_s": "s",
    "mp.materialize_s": "s",
    "system.self_s": "s",
    "l1.misses": "count",
    "l2.hits": "count",
    "l2.misses": "count",
    "misses.remote_clean": "count",
    "misses.remote_dirty": "count",
    "rac.hits": "count",
    "job.hash_s": "s",
    "cache.load_s": "s",
    "cache.loads": "count",
    "cache.hits": "count",
    "runner.self_s": "s",
    "cache.store_s": "s",
    "cache.stores": "count",
    "obs.overhead_s": "s",
}


class Bench:
    """One workload's run: set-up, passes, checks and metrics."""

    def __init__(self, workload, seed: int, tmp: Path, traced: bool):
        self.w = workload
        self.jobs = workload.jobs(seed)
        self.labels = workload.labels
        self.specs = workload.specs(seed)
        self.tmp = tmp
        self.cache_dir = str(tmp / "cache")
        self.checks = Checks()
        self.host = HostSpeed()
        self.table = SpanTable() if traced else None

    # -- timing --------------------------------------------------------------

    def _timed(self, traced: bool, fn, *args):
        """``fn(*args)`` as one timed operation: its value and its
        ``(start, end)``, instrumented if ``traced``."""
        self.host.maybe_sample()
        with instrumented(self.table) if traced else nullcontext():
            t0 = time.perf_counter()
            value = fn(*args)
            t1 = time.perf_counter()
        return value, (t0, t1)

    def _scaled(self, spans) -> float:
        """Reference-host seconds of the operations; needs a host
        sample taken after the last of them."""
        return sum(self.host.scaled(t0, t1) for t0, t1 in spans)

    @staticmethod
    def _raw(spans) -> float:
        return sum(t1 - t0 for t0, t1 in spans)

    # -- phases --------------------------------------------------------------

    def _build(self) -> dict:
        store = default_trace_store()
        return {spec: store.get(spec) for spec in self.specs}

    def setup(self) -> list:
        """Build the workload's traces from scratch, several times; keep
        the last.  One span per set-up."""
        spans = []
        for _ in range(SETUPS):
            default_trace_store().clear()
            gc.collect()
            self.traces, span = self._timed(False, self._build)
            spans.append(span)
        # Trace references each pass covers, however its results are made.
        self.pass_refs = sum(self.traces[j.spec].measured_refs
                             for j in self.jobs)
        return spans

    def _replay(self, traced: bool, cache=None):
        """Simulate every job, one at a time, through one serial runner;
        with ``cache`` (an empty one) the runner also stores each result."""
        results, spans = [], []
        with CampaignRunner(jobs=1, cache=cache) as runner:
            for job in self.jobs:
                result, span = self._timed(traced, run_one, runner, job)
                results.append(result)
                spans.append(span)
        return results, spans

    def first_pass(self, traced: bool) -> list:
        """The cold pass: replay, or for cached-rerun the fill of an
        empty cache.  Its results are the reference for every later
        pass.  Returns its spans."""
        gc.collect()
        cache = None if self.w.replay else ResultCache(self.cache_dir)
        results, spans = self._replay(traced, cache)
        self.first = results
        self.reference = [r.to_dict() for r in results]
        self.checks.attempt("run", self.labels)
        self.checks.verified(self.labels, results)
        return spans

    def warm_pass(self, i: int, traced: bool):
        """One timed pass; returns its (main, write) spans.

        A replay pass simulates every job.  A cached-rerun pass has a
        read half (every job served from the cache) and a write half
        (every result stored into a fresh, empty cache).  The checks of
        the pass run after it.
        """
        checks, labels = self.checks, self.labels
        gc.collect()
        if self.w.replay:
            results, main = self._replay(traced)
            write = []
            what = "first pass"
        else:
            (results, stats), read = self._timed(
                traced, read_half, self.jobs, self.cache_dir)
            write_dir = str(self.tmp / f"write-{i}")
            _, span = self._timed(
                traced, write_half, self.jobs, results, write_dir)
            main, write = [read], [span]
            what = "stored result"
            if stats.hits != len(self.jobs) or stats.misses or stats.rejected:
                for label in labels:
                    checks.fail("run", label,
                                f"read half not all hits: {stats}")
            checks.attempt("store", labels)
            if i % READBACK_EVERY == 0:
                checks.readback(self.jobs, labels, self.reference, write_dir)
            shutil.rmtree(write_dir)
        checks.attempt("run", labels)
        checks.verified(labels, results)
        checks.same_as(labels, results, self.reference, what)
        return main, write

    def final_checks(self) -> None:
        """The general engine on one config, and the paper's properties."""
        w, checks = self.w, self.checks
        if w.general_check is not None:
            i = self.labels.index(w.general_check)
            job = self.jobs[i]
            checks.general_engine(w.general_check, job,
                                  self.traces[job.spec], self.first[i])
        checks.model_properties(w, self.traces, self.jobs, self.first)

    # -- the two kinds of run ------------------------------------------------

    def end_to_end(self, seconds: float, import_s: float) -> dict:
        n = len(self.jobs)
        setups = self.setup()
        first = self.first_pass(traced=False)
        passes = []
        start = time.perf_counter()
        while True:
            main, write = self.warm_pass(len(passes), traced=False)
            passes.append((main, write))
            # Whole passes only; stop at the one that ends nearest to
            # the run length.
            half = self._raw(main + write) / 2
            if time.perf_counter() - start + half >= seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.host.sample()
        self.final_checks()

        def metrics(secs):
            return {
                "setup_s": import_s + statistics.median(
                    secs([span]) for span in setups),
                "first_pass_s": secs(first),
                "refs_per_s": statistics.median(
                    self.pass_refs / secs(main) for main, _ in passes),
                "jobs_per_s": statistics.median(
                    n / secs(main) for main, _ in passes),
                "peak_rss_mb": peak_rss_mb,
            }

        raw = metrics(self._raw)
        print(f"{self.w.name}: {len(passes)} warm pass(es); in plain host "
              "seconds: " + ", ".join(f"{k}={v:.6g}" for k, v in raw.items())
              + f"; median host speed {self.host.median_factor:.3f} of the "
              "reference")
        return metrics(self._scaled)

    def per_layer(self) -> dict:
        table = self.table
        build_s = statistics.median(self._raw([s]) for s in self.setup())
        self.first_pass(traced=True)
        passes = self.w.traced_passes
        untraced = [self.warm_pass(i, traced=False) for i in range(passes)]
        traced = [self.warm_pass(passes + i, traced=True)
                  for i in range(passes)]
        self.host.sample()
        self.final_checks()
        untraced_s = sum(self._scaled(m + w) for m, w in untraced)
        traced_s = sum(self._scaled(m + w) for m, w in traced)

        s, c = table.self_s, table.count
        first = self.first

        def per_ref_ns(stage):
            refs = table.refs[stage]
            return s[stage] / refs * 1e9 if refs else 0.0

        print(table.render(
            f"{self.w.name}: self time (host s) over the first pass and "
            f"{passes} traced warm pass(es)"))
        print(f"obs.overhead_s: {traced_s:.4f} s traced - {untraced_s:.4f} s "
              f"untraced (reference-host s) over the same {passes} warm "
              "pass(es)")
        return {
            "trace.build_s": build_s,
            "trace.refs": sum(t.total_refs for t in self.traces.values()),
            "mp.census_s": s["mp.census"],
            "uni.views_s": s["uni.views"],
            "uni.walk_s": s["uni.walk"],
            "uni.walk_ns_per_ref": per_ref_ns("uni.walk"),
            "uni.finalize_s": s["uni.finalize"],
            "mp.walks_s": s["mp.walks"],
            "mp.walks_ns_per_ref": per_ref_ns("mp.walks"),
            "mp.coherence_s": s["mp.coherence"],
            "mp.timing_s": s["mp.timing"],
            "mp.materialize_s": s["mp.materialize"],
            "system.self_s": s["system.run"],
            "l1.misses": sum(r.l1.i_misses + r.l1.d_misses for r in first),
            "l2.hits": sum(r.l2_hits for r in first),
            "l2.misses": sum(r.misses.total for r in first),
            "misses.remote_clean": sum(
                r.misses.i_remote + r.misses.d_remote_clean for r in first),
            "misses.remote_dirty": sum(r.misses.d_remote_dirty for r in first),
            "rac.hits": sum(r.rac.hits for r in first),
            "job.hash_s": s["job.hash"],
            "cache.load_s": s["cache.load"],
            "cache.loads": c["cache.load"],
            "cache.hits": c["cache.hits"],
            "runner.self_s": s["runner.run_jobs"],
            "cache.store_s": s["cache.store"],
            "cache.stores": c["cache.store"],
            "obs.overhead_s": traced_s - untraced_s,
        }
