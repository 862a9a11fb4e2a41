"""Tests for the content-addressed campaign result cache."""

import dataclasses
import gzip

import pytest

from repro.campaign import ResultCache, config_key
from repro import ExperimentConfig


def cfg(**overrides):
    base = dict(benchmark="_202_jess", vm="jikes", platform="p6",
                heap_mb=64, seed=42)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestKey:
    def test_key_is_stable(self):
        assert config_key(cfg()) == config_key(cfg())

    def test_key_depends_on_every_axis(self):
        base = config_key(cfg())
        assert config_key(cfg(benchmark="_209_db")) != base
        assert config_key(cfg(heap_mb=32)) != base
        assert config_key(cfg(seed=43)) != base
        assert config_key(cfg(vm="kaffe")) != base

    def test_key_is_hex_digest(self):
        key = config_key(cfg())
        assert len(key) == 64
        int(key, 16)


class TestCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        payload = {"schema": "repro-cell-v1", "energy": 12.5}
        cache.put(cfg(), payload)
        assert cache.get(cfg()) == payload

    def test_miss_returns_none(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(cfg()) is None
        assert cache.misses == 1

    def test_hit_rate_accounting(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(cfg(), {"x": 1})
        cache.get(cfg())
        cache.get(cfg(heap_mb=32))
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_contains_and_len(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cfg() not in cache
        cache.put(cfg(), {"x": 1})
        cache.put(cfg(heap_mb=32), {"x": 2})
        assert cfg() in cache
        assert len(cache) == 2

    def test_corrupt_entry_treated_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(cfg(), {"x": 1})
        path = cache.path_for(cfg())
        path.write_bytes(b"not a gzip pickle")
        assert cache.get(cfg()) is None
        assert not path.exists()  # corrupt entry evicted

    def test_truncated_gzip_treated_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(cfg(), {"x": 1})
        path = cache.path_for(cfg())
        path.write_bytes(gzip.compress(b"\x80")[:-2])
        assert cache.get(cfg()) is None

    def test_distinct_configs_do_not_collide(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(cfg(), {"who": "a"})
        cache.put(cfg(seed=43), {"who": "b"})
        assert cache.get(cfg()) == {"who": "a"}
        assert cache.get(cfg(seed=43)) == {"who": "b"}


class TestOrphanHygiene:
    def aged(self, path, seconds):
        import os
        import time

        past = time.time() - seconds
        os.utime(path, (past, past))

    def test_sweep_orphans_returns_accounting(self, tmp_path):
        from repro.store import sweep_orphans

        (tmp_path / "ab").mkdir()
        dead = tmp_path / "ab" / "dead.tmp"
        dead.write_bytes(b"x" * 64)
        self.aged(dead, 7200.0)
        assert sweep_orphans(tmp_path, max_age_s=3600.0) == (1, 64)
        assert sweep_orphans(tmp_path, max_age_s=3600.0) == (0, 0)
        assert sweep_orphans(tmp_path / "missing") == (0, 0)

    def test_scan_entries_recurses_sharded_layouts(self, tmp_path):
        from repro.store import scan_entries

        deep = tmp_path / "shard-003" / "ab"
        deep.mkdir(parents=True)
        (deep / ("ab" * 32 + ".json")).write_text("{}")
        flat = tmp_path / "cd"
        flat.mkdir()
        (flat / ("cd" * 32 + ".json")).write_text("{}")
        (flat / "stray.tmp").write_text("x")
        entries = scan_entries(tmp_path, (".json",))
        assert len(entries) == 2


class TestConfigHashability:
    def test_config_is_frozen_and_hashable(self):
        assert dataclasses.fields(ExperimentConfig)
        d = {cfg(): 1, cfg(heap_mb=32): 2}
        assert d[cfg()] == 1


class TestStaleEviction:
    """Pickles written by older code raise lookup errors (not
    ``UnpicklingError``) when the classes they reference moved or
    vanished; the cache must evict and re-run, never crash."""

    def test_stale_pickle_evicted_and_counted(self, tmp_path):
        import sys

        module = sys.modules[__name__]

        class Ghost:
            pass

        # Make the class picklable by reference, then delete it to
        # simulate "written by code whose classes no longer exist".
        Ghost.__qualname__ = "Ghost"
        module.Ghost = Ghost
        cache = ResultCache(tmp_path)
        try:
            cache.put(cfg(), {"obj": Ghost()})
        finally:
            del module.Ghost
        assert cache.get(cfg()) is None  # AttributeError inside load
        assert cache.stale_evictions == 1
        assert cache.misses == 1
        assert not cache.path_for(cfg()).exists()
        # The next campaign pass re-runs and re-populates cleanly.
        cache.put(cfg(), {"obj": "fresh"})
        assert cache.get(cfg()) == {"obj": "fresh"}

    def test_corruption_is_a_miss_but_not_a_stale_eviction(
            self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(cfg(), {"x": 1})
        cache.path_for(cfg()).write_bytes(b"not a gzip pickle")
        assert cache.get(cfg()) is None
        assert cache.misses == 1
        assert cache.stale_evictions == 0

    def test_eviction_takes_the_envelope_too(self, tmp_path):
        from repro.provenance import read_envelope

        cache = ResultCache(tmp_path)
        cache.put(cfg(), {"x": 1})
        path = cache.path_for(cfg())
        assert read_envelope(path) is not None
        path.write_bytes(b"garbage")
        cache.get(cfg())
        assert read_envelope(path) is None


class TestStrictKeySerialization:
    def test_non_canonical_value_raises(self):
        import pathlib

        from repro.errors import ConfigurationError

        bad = cfg(benchmark=pathlib.Path("_202_jess"))
        with pytest.raises(ConfigurationError) as excinfo:
            config_key(bad)
        assert "PosixPath" in str(excinfo.value)
        assert "not canonically JSON-serializable" in str(excinfo.value)

    def test_canonical_types_still_hash_stably(self):
        assert config_key(cfg()) == config_key(cfg())


class TestCacheProvenance:
    def test_put_writes_cell_envelope(self, tmp_path):
        from repro.provenance import code_digest, read_envelope

        cache = ResultCache(tmp_path)
        cache.put(cfg(), {"x": 1})
        path = cache.path_for(cfg())
        envelope = read_envelope(path)
        assert envelope["kind"] == "cell"
        assert envelope["key"] == config_key(cfg())
        assert envelope["code_digest"] == code_digest()

    def test_legacy_entry_still_served(self, tmp_path):
        from repro.provenance import envelope_path

        cache = ResultCache(tmp_path)
        cache.put(cfg(), {"x": 1})
        envelope_path(cache.path_for(cfg())).unlink()
        assert cache.get(cfg()) == {"x": 1}  # byte-identical service
