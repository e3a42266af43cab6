"""Job identity: content hashes, payloads, validation, pickling."""

from __future__ import annotations

import pickle

import pytest

from repro.core.machine import MachineConfig
from repro.runner import CODE_VERSION, SimJob, TraceSpec, canonical_json
from repro.trace.storage import FORMAT_VERSION

SCALE = 128
SPEC = TraceSpec(ncpus=1, scale=SCALE, txns=40, seed=11)


def job(**over) -> SimJob:
    kw = dict(spec=SPEC, machine=MachineConfig.base(1, scale=SCALE), check="off")
    kw.update(over)
    return SimJob(**kw)


class TestContentHash:
    def test_stable_across_instances(self):
        assert job().content_hash() == job().content_hash()

    def test_is_sha256_hex(self):
        digest = job().content_hash()
        assert len(digest) == 64
        int(digest, 16)  # raises if not hex

    def test_machine_changes_hash(self):
        other = job(machine=MachineConfig.integrated_l2(1, scale=SCALE))
        assert job().content_hash() != other.content_hash()

    def test_spec_changes_hash(self):
        other = job(spec=TraceSpec(ncpus=1, scale=SCALE, txns=41, seed=11))
        assert job().content_hash() != other.content_hash()

    def test_seed_changes_hash(self):
        other = job(spec=TraceSpec(ncpus=1, scale=SCALE, txns=40, seed=12))
        assert job().content_hash() != other.content_hash()

    def test_check_level_changes_hash(self):
        assert job().content_hash() != job(check="end-of-run").content_hash()

    def test_payload_pins_both_versions(self):
        payload = job().payload()
        assert payload["code_version"] == CODE_VERSION
        assert payload["trace_format"] == FORMAT_VERSION

    def test_hash_survives_pickle(self):
        # Jobs cross the worker-pool boundary; identity must too.
        j = job(machine=MachineConfig.fully_integrated(8, scale=SCALE))
        clone = pickle.loads(pickle.dumps(j))
        assert clone == j
        assert clone.content_hash() == j.content_hash()

    def test_digest_is_cached_once_and_survives_pickle(self):
        import hashlib

        j = job(machine=MachineConfig.fully_integrated(8, scale=SCALE))
        fresh = hashlib.sha256(
            canonical_json(j.payload()).encode()).hexdigest()
        assert j.content_hash() == fresh
        assert j.__dict__["_content_hash"] == fresh
        assert j.content_hash() is j.content_hash()  # served from cache
        clone = pickle.loads(pickle.dumps(j))
        assert clone.__dict__["_content_hash"] == fresh
        assert clone.content_hash() == fresh
        assert clone == j and hash(clone) == hash(j)
        assert "_content_hash" not in repr(j)

    def test_topology_base_table_changes_hash(self):
        from dataclasses import replace

        from repro.scenario.topology import TopologySpec

        base = MachineConfig.fully_integrated(8, scale=SCALE)
        bumped = base.with_(topology=TopologySpec.uniform(
            base_table=replace(base.latencies, l2_hit=99)
        ))
        assert (
            job(machine=base).content_hash()
            != job(machine=bumped).content_hash()
        )

    def test_topology_changes_hash(self):
        from repro.scenario.topology import TopologySpec

        base = MachineConfig.fully_integrated(8, scale=SCALE)
        islands = base.with_(
            topology=TopologySpec.islands(group_size=4, island_extra=100)
        )
        assert (
            job(machine=base).content_hash()
            != job(machine=islands).content_hash()
        )

    def test_workload_changes_hash(self):
        from repro.scenario.workload import WorkloadSpec

        skewed = TraceSpec(ncpus=1, scale=SCALE, txns=40, seed=11,
                           workload=WorkloadSpec(name="zipf", skew=0.8))
        assert job().content_hash() != job(spec=skewed).content_hash()


class TestValidation:
    def test_bad_check_level_rejected(self):
        with pytest.raises(ValueError, match="check level"):
            job(check="sometimes")

    def test_label_is_machine_label(self):
        j = job()
        assert j.label == j.machine.label


class TestCanonicalJson:
    def test_key_order_invariant(self):
        a = canonical_json({"b": 1, "a": [2, 3]})
        b = canonical_json({"a": [2, 3], "b": 1})
        assert a == b

    def test_compact_encoding(self):
        assert " " not in canonical_json({"a": 1, "b": [2, 3]})
