"""Structured error taxonomy for the reproduction.

Every failure the simulator can diagnose gets a class here, rooted at
:class:`ReproError`, so callers can catch "anything this project
raises" with one except clause while the CLI turns each into an
actionable one-line message instead of a traceback.

Classes double-inherit from the builtin exception they historically
replaced (``ValueError``/``RuntimeError``) so existing callers that
catch the builtin keep working.
"""

from __future__ import annotations

from typing import Any, Dict, Optional


class ReproError(Exception):
    """Base class for every error raised by the repro package."""


class ConfigError(ReproError, ValueError):
    """A :class:`~repro.core.machine.MachineConfig` (or workload
    configuration) is internally inconsistent or physically meaningless."""


class TraceFormatError(ReproError, ValueError):
    """A stored trace archive is corrupt, truncated, incomplete, or was
    written by an incompatible format version."""


class TraceMismatchError(ReproError, ValueError):
    """A trace cannot be replayed against the requested machine
    (CPU-count mismatch, bad page size, empty or mis-bounded quanta, an
    instruction fetch carrying the write flag)."""


class JournalFormatError(ReproError, ValueError):
    """A campaign journal passed to ``--resume`` is not a journal at
    all, or was written by a future format version.  (Damage *within*
    a journal — torn or corrupt lines — is healed silently instead.)"""


class CampaignJobError(ReproError, RuntimeError):
    """One or more jobs of a campaign batch failed terminally.

    Raised by the campaign runner after the supervised executor has
    driven every job of a batch to a terminal outcome, so the caller
    still gets a complete picture: ``failures`` holds one structured
    :class:`~repro.runner.supervisor.JobFailure` per dead job (label,
    hash, failure kind, message, attempt count).  All successful jobs
    of the batch were already persisted to the cache/journal before
    this was raised — a rerun only repeats the failures.
    """

    def __init__(self, failures):
        self.failures = list(failures)
        shown = ", ".join(
            f"{f.label} [{f.kind} after {f.attempts} attempt"
            f"{'s' if f.attempts != 1 else ''}: {f.message}]"
            for f in self.failures[:3]
        )
        more = len(self.failures) - 3
        if more > 0:
            shown += f", and {more} more"
        super().__init__(
            f"{len(self.failures)} job"
            f"{'s' if len(self.failures) != 1 else ''} failed: {shown}"
        )


class ServiceError(ReproError, RuntimeError):
    """Base class for job-service submission rejections.

    These map onto HTTP statuses at the service boundary (the wire
    taxonomy): :class:`QueueFullError` and
    :class:`ServiceUnavailableError` become 503 responses a client may
    retry, while :class:`ConfigError` from a malformed job spec
    becomes a 400 it must not.
    """


class QueueFullError(ServiceError):
    """The service's bounded submission queue is at capacity."""


class ServiceUnavailableError(ServiceError):
    """The service is draining or stopped and accepts no new jobs."""


class StateError(ReproError, RuntimeError):
    """An object was driven through an illegal lifecycle transition
    (e.g. reusing a single-use :class:`~repro.core.system.System`)."""


class FaultInjectionError(ReproError, RuntimeError):
    """A :class:`~repro.integrity.faults.FaultPlan` could not find an
    eligible target in the current simulator state."""


class InvariantViolation(ReproError):
    """A runtime invariant of the simulation was violated.

    Carries a forensic payload locating the corruption: which
    invariant failed, at which node, in which cache, at which set
    index, for which line.  ``details`` holds any extra key/value
    context (counter values, expected-vs-actual, ...).
    """

    def __init__(
        self,
        invariant: str,
        message: str,
        *,
        node: Optional[int] = None,
        cache: Optional[str] = None,
        set_index: Optional[int] = None,
        line: Optional[int] = None,
        details: Optional[Dict[str, Any]] = None,
    ):
        self.invariant = invariant
        self.node = node
        self.cache = cache
        self.set_index = set_index
        self.line = line
        self.details = dict(details) if details else {}
        where = []
        if node is not None:
            where.append(f"node={node}")
        if cache is not None:
            where.append(f"cache={cache}")
        if set_index is not None:
            where.append(f"set={set_index}")
        if line is not None:
            where.append(f"line={line:#x}")
        for key, value in self.details.items():
            where.append(f"{key}={value}")
        suffix = f" [{', '.join(where)}]" if where else ""
        super().__init__(f"invariant '{invariant}' violated: {message}{suffix}")

    @property
    def forensics(self) -> Dict[str, Any]:
        """The structured location payload as one dict (for reports)."""
        payload: Dict[str, Any] = {"invariant": self.invariant}
        if self.node is not None:
            payload["node"] = self.node
        if self.cache is not None:
            payload["cache"] = self.cache
        if self.set_index is not None:
            payload["set"] = self.set_index
        if self.line is not None:
            payload["line"] = self.line
        payload.update(self.details)
        return payload
