"""The campaign job model: one simulation point, content-addressed.

Every bar of every figure is the simulation of one
``(TraceSpec, MachineConfig, check-level)`` triple.  A :class:`SimJob`
captures that triple and derives a **content hash** over its canonical
JSON payload plus two version numbers:

* :data:`CODE_VERSION` — bump whenever simulator semantics change in a
  way that alters results, invalidating every cached result at once;
* :data:`~repro.trace.storage.FORMAT_VERSION` — the trace archive
  format, so regenerated workloads invalidate their dependent results.

The hash is the job's identity everywhere: result-cache filenames,
telemetry records, and cross-process deduplication.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from repro.core.machine import MachineConfig
from repro.integrity.errors import ConfigError
from repro.runner.tracestore import TraceSpec
from repro.scenario.workload import BASELINE_WORKLOAD, WorkloadSpec
from repro.trace.storage import FORMAT_VERSION

#: Simulation-semantics version baked into every job hash.  Bump on any
#: change that makes previously cached results wrong (latency tables,
#: protocol behaviour, replay-loop fixes, ...).  2: scenario subsystem
#: (workload specs in trace payloads, topology in machine payloads).
CODE_VERSION = 2

#: Integrity-check tiers a job may request (mirrors
#: :class:`~repro.integrity.checker.CheckLevel` spellings).
CHECK_LEVELS = ("off", "end-of-run", "per-quantum")


def canonical_json(payload) -> str:
    """Deterministic JSON encoding used for hashing and checksums."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class SimJob:
    """One independent simulation: a machine replaying a workload."""

    spec: TraceSpec
    machine: MachineConfig
    check: str = "off"

    def __post_init__(self):
        if self.check not in CHECK_LEVELS:
            raise ValueError(
                f"unknown check level {self.check!r}; expected one of "
                f"{CHECK_LEVELS}"
            )

    @property
    def label(self) -> str:
        """Display name (the machine's paper-style label)."""
        return self.machine.label

    def payload(self) -> dict:
        """Everything that determines this job's result, canonically."""
        return {
            "code_version": CODE_VERSION,
            "trace_format": FORMAT_VERSION,
            "trace": self.spec.to_dict(),
            "machine": self.machine.to_dict(),
            "check": self.check,
        }

    def content_hash(self) -> str:
        """Stable hex digest identifying this job's result.

        Every field is frozen, so the digest is computed once and kept
        in ``__dict__``: equality and ``repr`` ignore it, pickling
        carries it."""
        digest = self.__dict__.get("_content_hash")
        if digest is None:
            digest = hashlib.sha256(
                canonical_json(self.payload()).encode()
            ).hexdigest()
            object.__setattr__(self, "_content_hash", digest)
        return digest

    # -- wire format -----------------------------------------------------------

    def to_dict(self) -> dict:
        """The version-free wire form (service submissions, journals).

        Unlike :meth:`payload`, the version numbers are *not* part of
        the encoding: a reader hashes the job under its own versions,
        so a spec submitted to a newer build simply resolves to a new
        content hash instead of smuggling stale semantics in.
        """
        return {
            "trace": self.spec.to_dict(),
            "machine": self.machine.to_dict(),
            "check": self.check,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SimJob":
        """Rebuild a job from its wire form; :class:`ConfigError` on
        anything malformed (missing keys, wrong types, invalid machine
        geometry) so transports can map every bad spec to one error
        class."""
        if not isinstance(data, dict):
            raise ConfigError(
                f"job spec must be an object, got {type(data).__name__}"
            )
        try:
            trace = data["trace"]
            workload = trace.get("workload")
            spec = TraceSpec(
                ncpus=int(trace["ncpus"]),
                scale=int(trace["scale"]),
                txns=int(trace["txns"]),
                seed=int(trace["seed"]),
                warmup_txns=(
                    None if trace.get("warmup_txns") is None
                    else int(trace["warmup_txns"])
                ),
                workload=(
                    BASELINE_WORKLOAD if workload is None
                    else WorkloadSpec.from_dict(workload)
                ),
            )
            machine = MachineConfig.from_dict(data["machine"])
            check = data.get("check", "off")
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed job spec: {exc}") from None
        try:
            return cls(spec=spec, machine=machine, check=check)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
