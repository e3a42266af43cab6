"""Per-layer accounting for the traced run.

The traced run wraps the program's public calls -- ``CampaignRunner.run_jobs``,
``SimJob.content_hash``, ``ResultCache.load``/``store`` and ``System.run`` --
in spans of its own, and inside ``System.run`` installs the program's
tracer (``repro.obs.use_tracer``) to collect the stage spans the replay
engines already emit (``uni.*``, ``mp.*``).  A span's self time is its
duration minus the time of the spans it encloses, so the self times of
one pass add up to the pass.

The wrappers are installed only for the traced passes and removed after
them; the untraced passes run the program's own methods.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Iterator

from repro import System
from repro.obs import Tracer, use_tracer
from repro.runner import CampaignRunner, ResultCache, SimJob

#: Engine stage spans taken from the program's tracer inside System.run.
STAGE_PREFIXES = ("uni.", "mp.")


class SpanTable:
    """Self time and count per span name, for spans nested on one thread."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.count = Counter()
        #: Trace references walked under each walk stage span.
        self.refs = Counter()
        self._child_time = []  # one accumulator per open span

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self._child_time.append(0.0)
        t0 = perf_counter()
        try:
            yield
        finally:
            dur = perf_counter() - t0
            self._record(name, dur, dur - self._child_time.pop())

    def _record(self, name: str, dur: float, self_time: float) -> None:
        self.self_s[name] += self_time
        self.count[name] += 1
        if self._child_time:
            self._child_time[-1] += dur

    def add_stage(self, name: str, dur: float) -> None:
        """A leaf span measured by the program, inside the open span."""
        self._record(name, dur, dur)

    def render(self, title: str) -> str:
        total = sum(self.self_s.values()) or 1.0
        lines = [title, f"{'span':<20s} {'self s':>10s} {'share':>7s} "
                        f"{'count':>8s}"]
        for name, secs in sorted(self.self_s.items(), key=lambda kv: -kv[1]):
            if not self.count[name]:
                continue
            lines.append(f"{name:<20s} {secs:10.4f} {secs / total:7.1%} "
                         f"{self.count[name]:8d}")
        return "\n".join(lines)


def _wrap(table: SpanTable, name: str, method):
    def wrapper(*args, **kwargs):
        with table.span(name):
            return method(*args, **kwargs)
    return wrapper


@contextmanager
def instrumented(table: SpanTable) -> Iterator[SpanTable]:
    """Record spans around the program's public calls for the block."""
    run = System.run
    load = ResultCache.load

    def traced_run(system, trace):
        tracer = Tracer()
        with table.span("system.run"):
            with use_tracer(tracer):
                result = run(system, trace)
            for span in tracer.spans:
                if span.name.startswith(STAGE_PREFIXES):
                    table.add_stage(span.name, span.dur)
                if span.name in ("uni.walk", "mp.walks"):
                    table.refs[span.name] += trace.total_refs
        return result

    def traced_load(cache, job):
        with table.span("cache.load"):
            result = load(cache, job)
        if result is not None:
            table.count["cache.hits"] += 1
        return result

    patches = [
        (System, "run", traced_run),
        (ResultCache, "load", traced_load),
        (ResultCache, "store",
         _wrap(table, "cache.store", ResultCache.store)),
        (SimJob, "content_hash",
         _wrap(table, "job.hash", SimJob.content_hash)),
        (CampaignRunner, "run_jobs",
         _wrap(table, "runner.run_jobs", CampaignRunner.run_jobs)),
    ]
    originals = [(cls, attr, cls.__dict__[attr]) for cls, attr, _ in patches]
    try:
        for cls, attr, replacement in patches:
            setattr(cls, attr, replacement)
        yield table
    finally:
        for cls, attr, original in originals:
            setattr(cls, attr, original)
