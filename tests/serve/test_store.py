"""Tests for job records and the content-addressed result store."""

import json
import threading

from repro.serve.store import (
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    JobStore,
    ResultStore,
    default_result_dir,
)
from repro.spec import ScenarioSpec


def tiny_spec(**kw):
    return ScenarioSpec.for_experiment(
        "_202_jess", collector="SemiSpace", heap_mb=32,
        input_scale=0.2, **kw
    )


class TestJobStore:
    def test_create_and_get(self):
        store = JobStore()
        spec = tiny_spec()
        job = store.create(spec.spec_hash(), spec)
        assert store.get(spec.spec_hash()) is job
        assert job.state == QUEUED
        assert job.n_cells == 1
        assert store.get("nope") is None

    def test_snapshot_shape(self):
        store = JobStore()
        spec = tiny_spec()
        job = store.create(spec.spec_hash(), spec)
        view = store.view(job)
        assert view["id"] == spec.spec_hash()
        assert view["state"] == QUEUED
        assert view["attempts"] == 0
        assert view["result"] is None

    def test_done_snapshot_links_result(self):
        store = JobStore()
        spec = tiny_spec()
        job = store.create(spec.spec_hash(), spec)
        store.update(job, state=DONE)
        view = store.view(job)
        assert view["result"] == f"/v1/results/{job.id}"

    def test_requeue_resets_terminal_job(self):
        store = JobStore()
        spec = tiny_spec()
        job = store.create(spec.spec_hash(), spec)
        store.update(job, state=FAILED, error="boom", attempts=2)
        store.requeue(job)
        assert job.state == QUEUED
        assert job.error is None
        assert job.attempts == 2  # attempts survive resubmission

    def test_create_never_clobbers_a_live_record(self):
        """Resubmitting an in-flight spec must coalesce onto the live
        job — ``create`` used to silently replace the record, orphaning
        the object the worker was mutating and resetting attempts."""
        store = JobStore()
        spec = tiny_spec()
        job = store.create(spec.spec_hash(), spec)
        store.update(job, state=RUNNING, attempts=3)
        again = store.create(spec.spec_hash(), tiny_spec())
        assert again is job          # same object, not a replacement
        assert again.state == RUNNING
        assert again.attempts == 3
        assert len(store) == 1

    def test_create_requeues_terminal_record_in_place(self):
        store = JobStore()
        spec = tiny_spec()
        job = store.create(spec.spec_hash(), spec)
        store.update(job, state=FAILED, error="boom", attempts=2)
        again = store.create(spec.spec_hash(), tiny_spec())
        assert again is job
        assert again.state == QUEUED
        assert again.error is None
        assert again.attempts == 2   # history survives resubmission

    def test_list_newest_first_and_counts(self):
        store = JobStore()
        a = store.create("a" * 64, tiny_spec(seed=1))
        b = store.create("b" * 64, tiny_spec(seed=2))
        a.created_s -= 10.0
        store.update(b, state=RUNNING)
        listed = store.list()
        assert [j["id"] for j in listed] == ["b" * 64, "a" * 64]
        counts = store.counts()
        assert counts[QUEUED] == 1
        assert counts[RUNNING] == 1


class TestResultStore:
    def test_round_trip_bytes(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "ab" * 32
        data = json.dumps({"x": 1}).encode()
        store.put_bytes(key, data)
        assert key in store
        assert store.get_bytes(key) == data
        assert store.get_json(key) == {"x": 1}

    def test_missing_key(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get_bytes("ff" * 32) is None
        assert ("ff" * 32) not in store

    def test_sharded_layout(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "cd" * 32
        path = store.put_bytes(key, b"{}")
        assert path.parent.name == "cd"
        assert path.name == f"{key}.json"

    def test_shard_namespace_layout(self, tmp_path):
        store = ResultStore(tmp_path, shards=8)
        key = "cd" * 32
        path = store.put_bytes(key, b"{}")
        expected_shard = int(key[:8], 16) % 8
        assert path.parts[-3] == f"shard-{expected_shard:03d}"
        assert path.parent.name == "cd"
        assert store.get_bytes(key) == b"{}"
        assert key in store

    def test_shard_placement_is_consistent_across_instances(
            self, tmp_path):
        """Every instance configured with the same shard count finds
        entries written by any other."""
        writer = ResultStore(tmp_path, shards=16)
        reader = ResultStore(tmp_path, shards=16)
        keys = [f"{n:02x}" * 32 for n in range(24)]
        for key in keys:
            writer.put_bytes(key, key.encode())
        for key in keys:
            assert reader.get_bytes(key) == key.encode()
        assert len(reader) == 24
        assert reader.stats()["shards"] == 16
        # Keys actually spread over more than one shard directory.
        shards_used = {
            p.name for p in tmp_path.iterdir()
            if p.name.startswith("shard-")
        }
        assert len(shards_used) > 1

    def test_shards_must_be_positive(self, tmp_path):
        import pytest

        with pytest.raises(ValueError):
            ResultStore(tmp_path, shards=0)

    def test_lease_path_sits_beside_entry(self, tmp_path):
        for shards in (1, 8):
            store = ResultStore(tmp_path / str(shards), shards=shards)
            key = "ab" * 32
            lease = store.lease_path_for(key)
            assert lease.parent == store.path_for(key).parent
            assert lease.name == f"{key}.lease"

    def test_prune_sweeps_aged_orphans_only(self, tmp_path):
        import os
        import time

        store = ResultStore(tmp_path)
        store.put_bytes("aa" * 32, b"x")
        entry_dir = store.path_for("aa" * 32).parent
        old_tmp = entry_dir / "dead-writer.tmp"
        old_lease = entry_dir / f"{'aa' * 32}.lease"
        fresh_tmp = entry_dir / "live-writer.tmp"
        for stray in (old_tmp, old_lease, fresh_tmp):
            stray.write_bytes(b"s")
        past = time.time() - 7200.0
        os.utime(old_tmp, (past, past))
        os.utime(old_lease, (past, past))
        store.prune(10_000, orphan_age_s=3600.0)
        assert not old_tmp.exists()
        assert not old_lease.exists()
        assert fresh_tmp.exists()      # young stray: maybe still live
        assert ("aa" * 32) in store

    def test_concurrent_writers_same_key(self, tmp_path):
        """Racing writers on one key must leave one intact payload."""
        store = ResultStore(tmp_path)
        key = "ee" * 32
        payloads = [
            json.dumps({"writer": n, "pad": "z" * 4096}).encode()
            for n in range(4)
        ]
        barrier = threading.Barrier(4)

        def write(data):
            barrier.wait()
            for _ in range(50):
                store.put_bytes(key, data)

        threads = [
            threading.Thread(target=write, args=(p,)) for p in payloads
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        final = store.get_bytes(key)
        assert final in payloads
        # No leaked tmp files from the raced writes.
        assert not list(store.root.glob("*/*.tmp"))

    def test_default_root_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RESULT_DIR", str(tmp_path / "r"))
        assert default_result_dir() == tmp_path / "r"
