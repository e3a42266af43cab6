"""Runtime invariant checking for the simulator's cache/directory state.

The :class:`Checker` walks the complete memory-system state of a
running :class:`~repro.core.system.System` and verifies every
structural invariant the replay loops rely on:

* **set discipline** — per-set occupancy never exceeds associativity,
  no line appears twice in a set, and every line sits in the set its
  index maps to (a corrupted LRU move lands a line in the wrong set);
* **dirty discipline** — a cache's dirty-set only ever names resident
  lines;
* **inclusion** — every L1-resident line is also L2-resident, and the
  victim buffer never overlaps the L2;
* **directory/cache agreement** — every cached line is tracked for
  that node by the directory, every directory entry is backed by a
  real copy, owners hold what they own exclusively, and (multi-node)
  a dirty line implies ownership;
* **RAC exclusion** — a remote access cache only ever holds lines
  whose home is a *remote* node.

Conservation laws over the measured statistics (references, misses,
cycle components) live in :meth:`repro.core.results.RunResult.verify`,
which the system calls at the same checkpoints.

Cost tiers: ``off`` does nothing and costs nothing (no replay
loop takes a per-reference branch for it); ``end-of-run`` walks the
state once after the replay; ``per-quantum`` walks it at every
scheduling-quantum boundary, catching corruption within one quantum of
its introduction.  The walk is written set-arithmetic-first (bulk
difference/subset operations, falling back to slow per-line loops only
to localize an already-detected violation) so ``end-of-run`` stays
well under 5 % of a figure run's wall clock.
"""

from __future__ import annotations

import enum
from typing import Set, Union

from repro.integrity.errors import ConfigError, InvariantViolation
from repro.obs import current_metrics, current_tracer


class CheckLevel(enum.Enum):
    """How often (and whether) invariants are verified during a run."""

    OFF = "off"
    END_OF_RUN = "end-of-run"
    PER_QUANTUM = "per-quantum"

    @classmethod
    def coerce(cls, value: Union["CheckLevel", str]) -> "CheckLevel":
        """Accept a level, its string value, or an underscored alias."""
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower().replace("_", "-"))
        except ValueError:
            options = ", ".join(repr(level.value) for level in cls)
            raise ConfigError(
                f"unknown check level {value!r} (choose one of {options})"
            ) from None


class Checker:
    """Verifies simulator state invariants at a configurable cadence.

    Raises :class:`InvariantViolation` (with node/cache/set/line
    forensics) on the first violated invariant.  ``checks_run`` counts
    completed full-state walks so tests can assert the checker
    actually executed.
    """

    def __init__(self, level: Union[CheckLevel, str] = CheckLevel.OFF):
        self.level = CheckLevel.coerce(level)
        self.checks_run = 0

    @property
    def enabled(self) -> bool:
        return self.level is not CheckLevel.OFF

    @property
    def per_quantum(self) -> bool:
        return self.level is CheckLevel.PER_QUANTUM

    # -- entry point -------------------------------------------------------

    def check_system(self, system, protocol) -> None:
        """Walk all cache, victim-buffer, RAC and directory state.

        Each walk opens one ``integrity.check`` span tagged with the
        checking tier and bumps ``integrity.checks_run`` on success /
        ``integrity.violations`` on the first violated invariant
        (re-raised unchanged), so campaign metrics show how much
        verification ran and whether it ever fired.
        """
        metrics = current_metrics()
        with current_tracer().span("integrity.check", tier=self.level.value):
            nodes = system.nodes
            racs = system.racs
            try:
                for node_id, node in enumerate(nodes):
                    for cache in (*node.l1is, *node.l1ds, node.l2):
                        self._check_cache_structure(node_id, cache)
                    self._check_inclusion(node_id, node)
                    if node.victim is not None:
                        self._check_victim(node_id, node)
                    if racs is not None:
                        self._check_cache_structure(
                            node_id, racs[node_id].cache)
                        self._check_rac_exclusion(
                            node_id, racs[node_id], protocol.homemap)
                self._check_directory_agreement(system, protocol)
            except InvariantViolation:
                metrics.count("integrity.violations")
                raise
        self.checks_run += 1
        metrics.count("integrity.checks_run")

    # -- per-cache structural invariants -----------------------------------

    def _check_cache_structure(self, node_id: int, cache) -> None:
        assoc = cache.assoc
        num_sets = cache.num_sets
        for idx, (ways, dirty) in enumerate(cache.sets()):
            n = len(ways)
            if not n and not dirty:
                continue
            if n > assoc:
                raise InvariantViolation(
                    "set-occupancy",
                    f"{n} lines in a {assoc}-way set",
                    node=node_id, cache=cache.name, set_index=idx,
                )
            ways_set = set(ways)
            if len(ways_set) != n:
                dup = next(line for line in ways if ways.count(line) > 1)
                raise InvariantViolation(
                    "duplicate-line",
                    "the same line is resident twice in one set",
                    node=node_id, cache=cache.name, set_index=idx, line=dup,
                )
            for line in ways:
                if line % num_sets != idx:
                    raise InvariantViolation(
                        "set-index",
                        f"line maps to set {line % num_sets} but is resident "
                        f"in set {idx} (corrupted placement/LRU move)",
                        node=node_id, cache=cache.name, set_index=idx, line=line,
                    )
            if not dirty <= ways_set:
                orphan = next(iter(dirty - ways_set))
                raise InvariantViolation(
                    "dirty-not-resident",
                    "dirty bit set for a line that is not resident",
                    node=node_id, cache=cache.name, set_index=idx, line=orphan,
                )

    def _check_inclusion(self, node_id: int, node) -> None:
        l2_resident = set(node.l2.resident_lines())
        for l1 in (*node.l1is, *node.l1ds):
            missing = set(l1.resident_lines()) - l2_resident
            if missing:
                line = min(missing)
                raise InvariantViolation(
                    "l1-l2-inclusion",
                    f"line resident in {l1.name} but absent from the "
                    "inclusive L2",
                    node=node_id, cache=l1.name,
                    set_index=line % l1.num_sets, line=line,
                )

    def _check_victim(self, node_id: int, node) -> None:
        victim = node.victim
        lines = list(victim.lines())
        if len(lines) > victim.entries:
            raise InvariantViolation(
                "victim-occupancy",
                f"{len(lines)} lines in a {victim.entries}-entry buffer",
                node=node_id, cache="victim",
            )
        line_set = set(lines)
        if len(line_set) != len(lines):
            raise InvariantViolation(
                "duplicate-line", "duplicate line in the victim buffer",
                node=node_id, cache="victim",
            )
        overlap = line_set & set(node.l2.resident_lines())
        if overlap:
            raise InvariantViolation(
                "victim-l2-exclusion",
                "line resident in both the L2 and its victim buffer",
                node=node_id, cache="victim", line=min(overlap),
            )
        orphans = set(victim.dirty_lines()) - line_set
        if orphans:
            raise InvariantViolation(
                "dirty-not-resident",
                "victim buffer dirty bit for a line it does not hold",
                node=node_id, cache="victim", line=min(orphans),
            )

    def _check_rac_exclusion(self, node_id: int, rac, homemap) -> None:
        home_of = homemap.home_of
        for line in rac.cache.resident_lines():
            if home_of(line, node_id) == node_id:
                raise InvariantViolation(
                    "rac-exclusion",
                    "remote access cache holds a locally-homed line",
                    node=node_id, cache=rac.cache.name,
                    set_index=line % rac.cache.num_sets, line=line,
                )

    # -- cross-node directory agreement ------------------------------------

    def _check_directory_agreement(self, system, protocol) -> None:
        directory = protocol.directory
        racs = system.racs
        nodes = system.nodes
        num_nodes = len(nodes)
        multi_node = num_nodes > 1

        # What each node actually holds, from the caches themselves.
        resident: list = []
        for node_id, node in enumerate(nodes):
            held: Set[int] = set(node.l2.resident_lines())
            if node.victim is not None:
                held |= set(node.victim.lines())
            if racs is not None:
                held |= set(racs[node_id].cache.resident_lines())
            resident.append(held)

        # What the directory believes, in one pass over its entries.
        tracked = [set() for _ in range(num_nodes)]
        for line, sharers, owner in directory.entries():
            if not sharers:
                raise InvariantViolation(
                    "empty-sharer-set", "tracked line has no sharers", line=line,
                )
            if owner is not None:
                if owner not in sharers:
                    raise InvariantViolation(
                        "owner-not-sharer",
                        f"owner {owner} missing from sharer set {sorted(sharers)}",
                        node=owner, line=line,
                    )
                if len(sharers) > 1:
                    raise InvariantViolation(
                        "owner-not-exclusive",
                        f"owned line also shared by {sorted(sharers - {owner})}",
                        node=owner, line=line,
                    )
            for sharer in sharers:
                if not 0 <= sharer < num_nodes:
                    raise InvariantViolation(
                        "sharer-out-of-range",
                        f"directory names node {sharer} of {num_nodes}",
                        node=sharer, line=line,
                    )
                tracked[sharer].add(line)

        for node_id in range(num_nodes):
            untracked = resident[node_id] - tracked[node_id]
            if untracked:
                line = min(untracked)
                raise InvariantViolation(
                    "directory-missing-copy",
                    "node holds a line the directory does not track for it "
                    "(a dropped/unsent invalidation looks exactly like this)",
                    node=node_id, cache=self._locate_holder(system, node_id, line),
                    line=line,
                )
            stale = tracked[node_id] - resident[node_id]
            if stale:
                line = min(stale)
                raise InvariantViolation(
                    "directory-stale-copy",
                    "directory tracks a copy the node does not hold "
                    + ("(flipped protocol state)"
                       if directory.owner(line) == node_id
                       else "(missed eviction notice)"),
                    node=node_id, line=line,
                )

        # Multi-node: a modified line implies exclusive ownership.
        if multi_node:
            owner = directory.owner
            for node_id, node in enumerate(nodes):
                dirty_holders = [node.l2]
                if racs is not None:
                    dirty_holders.append(racs[node_id].cache)
                for cache in dirty_holders:
                    for line in cache.dirty_lines():
                        if owner(line) != node_id:
                            raise InvariantViolation(
                                "dirty-without-ownership",
                                "node holds a modified line it does not own "
                                f"(directory owner: {owner(line)})",
                                node=node_id, cache=cache.name,
                                set_index=line % cache.num_sets, line=line,
                            )
                if node.victim is not None:
                    for line in node.victim.dirty_lines():
                        if owner(line) != node_id:
                            raise InvariantViolation(
                                "dirty-without-ownership",
                                "victim buffer holds a modified line the node "
                                f"does not own (directory owner: {owner(line)})",
                                node=node_id, cache="victim", line=line,
                            )

    @staticmethod
    def _locate_holder(system, node_id: int, line: int) -> str:
        """Name the structure within ``node_id`` that holds ``line``."""
        node = system.nodes[node_id]
        if node.l2.contains(line):
            return node.l2.name
        if node.victim is not None and node.victim.holds(line):
            return "victim"
        if system.racs is not None and system.racs[node_id].holds(line):
            return system.racs[node_id].cache.name
        return "?"
