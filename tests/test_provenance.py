"""Tests for provenance envelopes, lineage queries, and stale pruning."""

import json
import os
import time

import pytest

from repro.provenance import (
    ENVELOPE_SUFFIX,
    PROVENANCE_SCHEMA,
    build_envelope,
    code_digest,
    current_stamp,
    envelope_path,
    is_stale,
    lineage,
    prune_stale,
    read_envelope,
    remove_envelope,
    sweep_orphan_envelopes,
    write_envelope,
)
from repro.store import RAW_BYTES, ContentStore


def json_store(root):
    return ContentStore(root, ".json", RAW_BYTES)


def make_entry(root, name, data=b"{}"):
    (root / name).write_bytes(data)
    return root / name


class TestCodeDigest:
    def test_is_hex_sha256(self):
        digest = code_digest()
        assert len(digest) == 64
        int(digest, 16)

    def test_memoized_per_process(self):
        assert code_digest() is code_digest()

    def test_stamp_carries_engine_identity(self):
        from repro import __version__
        from repro.campaign.cache import CACHE_VERSION
        from repro.campaign.grid import SEED_DERIVATION_VERSION

        stamp = current_stamp()
        assert stamp["code_digest"] == code_digest()
        assert stamp["repro_version"] == __version__
        assert stamp["cache_version"] == CACHE_VERSION
        assert stamp["seed_derivation"] == SEED_DERIVATION_VERSION


class TestEnvelopeRoundTrip:
    def test_write_then_read(self, tmp_path):
        entry = make_entry(tmp_path, "ab" * 32 + ".json")
        envelope = build_envelope("result", "ab" * 32,
                                  spec_name="quickstart")
        write_envelope(entry, envelope)
        read = read_envelope(entry)
        assert read["schema"] == PROVENANCE_SCHEMA
        assert read["kind"] == "result"
        assert read["key"] == "ab" * 32
        assert read["spec_name"] == "quickstart"
        assert read["code_digest"] == code_digest()
        assert read["written_unix"] == pytest.approx(time.time(), abs=60)

    def test_sidecar_appends_full_entry_name(self, tmp_path):
        entry = tmp_path / ("cd" * 32 + ".pkl.gz")
        sidecar = envelope_path(entry)
        assert sidecar.name == entry.name + ENVELOPE_SUFFIX
        assert sidecar.parent == entry.parent

    def test_envelope_never_touches_entry_bytes(self, tmp_path):
        entry = make_entry(tmp_path, "ef" * 32 + ".json",
                           b'{"cells": []}')
        before = entry.read_bytes()
        write_envelope(entry, build_envelope("result", "ef" * 32))
        assert entry.read_bytes() == before

    def test_remove_is_best_effort(self, tmp_path):
        entry = make_entry(tmp_path, "ab" * 32 + ".json")
        write_envelope(entry, build_envelope("result", "ab" * 32))
        remove_envelope(entry)
        assert read_envelope(entry) is None
        remove_envelope(entry)  # second removal is a no-op, not a raise


class TestLegacyTolerance:
    """Envelope-less and damaged sidecars must never block reads."""

    def test_missing_sidecar_reads_none(self, tmp_path):
        entry = make_entry(tmp_path, "ab" * 32 + ".json")
        assert read_envelope(entry) is None

    def test_garbage_sidecar_reads_none(self, tmp_path):
        entry = make_entry(tmp_path, "ab" * 32 + ".json")
        envelope_path(entry).write_bytes(b"\x00not json")
        assert read_envelope(entry) is None

    def test_non_dict_sidecar_reads_none(self, tmp_path):
        entry = make_entry(tmp_path, "ab" * 32 + ".json")
        envelope_path(entry).write_text("[1, 2, 3]")
        assert read_envelope(entry) is None


class TestStaleness:
    def test_current_envelope_is_not_stale(self):
        assert not is_stale(build_envelope("cell", "ab" * 32))

    def test_missing_envelope_is_stale(self):
        assert is_stale(None)

    def test_foreign_code_digest_is_stale(self):
        envelope = build_envelope("cell", "ab" * 32)
        envelope["code_digest"] = "f" * 64
        assert is_stale(envelope)

    def test_foreign_cache_version_is_stale(self):
        envelope = build_envelope("cell", "ab" * 32)
        envelope["cache_version"] = -1
        assert is_stale(envelope)


class TestOrphanSweep:
    def aged(self, path, seconds=7200.0):
        past = time.time() - seconds
        os.utime(path, (past, past))

    def test_aged_stray_sidecar_removed(self, tmp_path):
        entry = make_entry(tmp_path, "ab" * 32 + ".json")
        write_envelope(entry, build_envelope("result", "ab" * 32))
        entry.unlink()
        self.aged(envelope_path(entry))
        assert sweep_orphan_envelopes(tmp_path, max_age_s=3600.0) == 1

    def test_young_stray_sidecar_kept(self, tmp_path):
        entry = make_entry(tmp_path, "ab" * 32 + ".json")
        write_envelope(entry, build_envelope("result", "ab" * 32))
        entry.unlink()
        assert sweep_orphan_envelopes(tmp_path, max_age_s=3600.0) == 0
        assert envelope_path(entry).exists()

    def test_sidecar_with_live_entry_kept(self, tmp_path):
        entry = make_entry(tmp_path, "ab" * 32 + ".json")
        write_envelope(entry, build_envelope("result", "ab" * 32))
        self.aged(envelope_path(entry))
        assert sweep_orphan_envelopes(tmp_path, max_age_s=3600.0) == 0
        assert read_envelope(entry) is not None


def seed_store(tmp_path):
    """Three entries: current code, a foreign digest, and a legacy
    envelope-less one."""
    current = make_entry(tmp_path, "aa" * 32 + ".json", b'{"n": 1}')
    write_envelope(current, build_envelope("result", "aa" * 32))
    foreign = make_entry(tmp_path, "bb" * 32 + ".json", b'{"n": 2}')
    old = build_envelope("result", "bb" * 32)
    old["code_digest"] = "0" * 64
    old["repro_version"] = "0.9.0"
    old["written_unix"] = time.time() - 86400.0
    write_envelope(foreign, old)
    legacy = make_entry(tmp_path, "cc" * 32 + ".json", b'{"n": 3}')
    # Legacy entries have no written_unix; their mtime stands in.  Age
    # it so the newest-first ordering is deterministic in tests.
    past = time.time() - 2 * 86400.0
    os.utime(legacy, (past, past))
    return current, foreign, legacy


class TestLineage:
    def test_groups_by_code_identity(self, tmp_path):
        seed_store(tmp_path)
        groups = lineage(json_store(tmp_path))
        assert len(groups) == 3
        by_digest = {g["code_digest"]: g for g in groups}
        assert not by_digest[code_digest()]["stale"]
        assert by_digest["0" * 64]["stale"]
        assert by_digest["0" * 64]["repro_version"] == "0.9.0"
        assert by_digest[None]["stale"]  # legacy: unknown provenance

    def test_groups_sorted_newest_first(self, tmp_path):
        seed_store(tmp_path)
        groups = lineage(json_store(tmp_path))
        stamps = [g["newest_unix"] for g in groups]
        assert stamps == sorted(stamps, reverse=True)
        assert groups[0]["code_digest"] == code_digest()

    def test_accounting_and_key_samples(self, tmp_path):
        seed_store(tmp_path)
        for group in lineage(json_store(tmp_path)):
            assert group["entries"] == 1
            assert group["total_bytes"] == 8
            assert len(group["keys"]) == 1
            assert len(group["keys"][0]) == 64


class TestPruneStale:
    def test_evicts_foreign_and_legacy_keeps_current(self, tmp_path):
        current, foreign, legacy = seed_store(tmp_path)
        n_removed, bytes_removed = prune_stale(json_store(tmp_path))
        assert n_removed == 2
        assert bytes_removed == 16
        assert current.exists()
        assert not foreign.exists()
        assert not foreign.with_name(
            foreign.name + ENVELOPE_SUFFIX
        ).exists()
        assert not legacy.exists()

    def test_idempotent(self, tmp_path):
        seed_store(tmp_path)
        prune_stale(json_store(tmp_path))
        assert prune_stale(json_store(tmp_path)) == (0, 0)


class TestResultStoreIntegration:
    def test_put_bytes_with_envelope(self, tmp_path):
        from repro.serve.store import ResultStore

        store = ResultStore(tmp_path)
        key = "ab" * 32
        store.put_bytes(key, b'{"cells": []}',
                        envelope=build_envelope("result", key,
                                                spec_hash=key))
        envelope = store.envelope_for(key)
        assert envelope["kind"] == "result"
        assert envelope["spec_hash"] == key
        assert store.get_bytes(key) == b'{"cells": []}'

    def test_legacy_put_reads_byte_identically(self, tmp_path):
        from repro.serve.store import ResultStore

        store = ResultStore(tmp_path)
        key = "cd" * 32
        store.put_bytes(key, b'{"legacy": true}')
        assert store.envelope_for(key) is None
        assert store.get_bytes(key) == b'{"legacy": true}'

    def test_store_lineage_and_prune_stale(self, tmp_path):
        from repro.serve.store import ResultStore

        store = ResultStore(tmp_path)
        store.put_bytes("aa" * 32, b'{"n": 1}',
                        envelope=build_envelope("result", "aa" * 32))
        store.put_bytes("bb" * 32, b'{"n": 2}')  # legacy
        groups = store.lineage()
        assert {g["stale"] for g in groups} == {True, False}
        assert store.prune_stale() == (1, 8)
        assert store.get_bytes("aa" * 32) is not None
        assert store.get_bytes("bb" * 32) is None

    def test_prune_sweeps_aged_stray_envelopes(self, tmp_path):
        from repro.serve.store import ResultStore

        store = ResultStore(tmp_path)
        key = "ab" * 32
        store.put_bytes(key, b"{}",
                        envelope=build_envelope("result", key))
        path = store.path_for(key)
        path.unlink()  # entry gone, sidecar strands
        sidecar = envelope_path(path)
        past = time.time() - 7200.0
        os.utime(sidecar, (past, past))
        store.prune(10_000_000, orphan_age_s=3600.0)
        assert not sidecar.exists()


class TestEnvelopeAtomicity:
    def test_write_is_tmp_plus_replace(self, tmp_path, monkeypatch):
        """A crash mid-write must never leave a torn sidecar: the
        payload lands in a ``.tmp`` first and the final name appears
        only via ``os.replace``."""
        entry = make_entry(tmp_path, "ab" * 32 + ".json")
        calls = {}
        real_replace = os.replace

        def spy(src, dst):
            calls["src"] = str(src)
            calls["dst"] = str(dst)
            # The temp file must already hold the complete envelope.
            assert json.loads(open(src).read())["key"] == "ab" * 32
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", spy)
        write_envelope(entry, build_envelope("result", "ab" * 32))
        assert calls["src"].endswith(".tmp")
        assert calls["dst"] == str(envelope_path(entry))
