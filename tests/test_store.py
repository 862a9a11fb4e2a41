"""The content-addressed store protocol, checked on all three stores.

Every typed store (campaign cell cache, artifact store, serve result
store) is a key adapter over one :class:`repro.store.ContentStore`, so
every protocol step here runs against each of them: stats, LRU by mtime
with read refresh, the age-gated orphan sweep, recursive scans,
lineage, ``prune_stale``, ``clear``, and envelopes going with their
entries.  The layout tests build each store's files with stdlib calls
only, so the on-disk format is pinned independently of the code that
reads and writes it.
"""

import gzip
import json
import os
import pickle
import time
from dataclasses import replace

import pytest

from repro.campaign.artifacts import ArtifactStore, sim_key
from repro.campaign.cache import ResultCache, config_key
from repro.core.experiment import Experiment, ExperimentConfig
from repro.provenance import build_envelope, envelope_path
from repro.serve.store import ResultStore

BASE = ExperimentConfig(
    "_202_jess", vm="jikes", platform="p6", collector="SemiSpace",
    heap_mb=24, seed=99, input_scale=0.1, n_slices=40,
)


@pytest.fixture(scope="module")
def artifact():
    return Experiment(BASE).simulate().artifact()


def aged(path, seconds):
    past = time.time() - seconds
    os.utime(path, (past, past))


class Cells:
    """Entry *n* of a campaign cell cache."""

    suffix = ".pkl.gz"

    def __init__(self, root, request):
        self.store = ResultCache(root)

    def key(self, n):
        return replace(BASE, seed=n)

    def put(self, n):
        return self.store.put(self.key(n), {"n": n})

    def read(self, n):
        return self.store.get(self.key(n))

    def token(self, n):
        return {"n": n}


class Artifacts(Cells):
    """Entry *n* of an artifact store: the module's artifact re-keyed
    to the sim-key of seed *n* (the store checks the two agree)."""

    def __init__(self, root, request):
        self.store = ArtifactStore(root)
        self.artifact = request.getfixturevalue("artifact")

    def put(self, n):
        config = self.key(n)
        return self.store.put(
            config, replace(self.artifact, sim_key=sim_key(config))
        )

    def read(self, n):
        found = self.store.get(self.key(n))
        return None if found is None else found.sim_key

    def token(self, n):
        return sim_key(self.key(n))


class Results(Cells):
    """Entry *n* of a serve result store, written with an envelope."""

    suffix = ".json"

    def __init__(self, root, request):
        self.store = ResultStore(root)

    def key(self, n):
        return f"{n:02x}" * 32

    def put(self, n):
        key = self.key(n)
        return self.store.put_bytes(key, self.token(n),
                                    envelope=build_envelope("result", key))

    def read(self, n):
        return self.store.get_bytes(self.key(n))

    def token(self, n):
        return json.dumps({"n": n, "pad": "p" * 64}).encode()


@pytest.fixture(params=[Cells, Artifacts, Results],
                ids=["cells", "artifacts", "results"])
def driver(request, tmp_path):
    return request.param(tmp_path, request)


class TestStoreProtocol:
    def test_hit_miss_accounting(self, driver):
        store = driver.store
        assert driver.read(1) is None
        assert store.misses == 1
        driver.put(1)
        assert driver.read(1) == driver.token(1)
        assert store.hits == 1
        assert store.hit_rate == 0.5

    def test_stats_and_len(self, driver):
        store = driver.store
        assert len(store) == 0
        sizes = [driver.put(n).stat().st_size for n in (1, 2)]
        stats = store.stats()
        assert stats["entries"] == 2
        assert stats["total_bytes"] == store.total_bytes() == sum(sizes)
        assert len(store) == 2
        assert driver.key(1) in store

    def test_strays_invisible_to_stats_and_prune(self, driver):
        """``.tmp`` writer scratch and serve-layer ``.lease`` files are
        bookkeeping, not entries: they must never be counted, and the
        LRU pruner must never pick them as victims (deleting a live
        writer's temp file mid-write corrupts the entry it is about
        to become)."""
        store = driver.store
        entry = driver.put(1)
        key = entry.name[:-len(driver.suffix)]
        (entry.parent / "crashed-writer.tmp").write_bytes(b"x" * 4096)
        (entry.parent / f"{key}.lease").write_text("{}")
        stats = store.stats()
        assert stats["entries"] == 1
        assert stats["total_bytes"] == entry.stat().st_size
        assert len(store) == 1
        # Budget exactly one entry: nothing should be evicted, because
        # the strays neither count against the budget nor rank as LRU.
        removed, freed = store.prune(entry.stat().st_size,
                                     orphan_age_s=3600.0)
        assert (removed, freed) == (0, 0)
        assert entry.exists()

    def test_failed_rename_leaves_no_entry_and_no_tmp(self, driver,
                                                      monkeypatch):
        """A write whose final rename fails raises, stores nothing and
        cleans its temp file up; the next read is a plain miss."""
        import repro.store

        class RenameFails:
            def __getattr__(self, name):
                return getattr(os, name)

            @staticmethod
            def replace(src, dst):
                raise OSError("injected rename failure")

        monkeypatch.setattr(repro.store, "os", RenameFails())
        with pytest.raises(OSError, match="injected rename failure"):
            driver.put(1)
        monkeypatch.undo()
        assert driver.key(1) not in driver.store
        assert not list(driver.store.root.rglob("*.tmp"))
        assert not list(driver.store.root.rglob("*.prov"))
        assert driver.read(1) is None
        assert (driver.store.hits, driver.store.misses) == (0, 1)

    def test_prune_sweeps_aged_tmp_orphans(self, driver):
        entry = driver.put(1)
        orphan = entry.parent / "crashed-writer.tmp"
        orphan.write_bytes(b"x" * 100)
        aged(orphan, 7200.0)
        driver.store.prune(10_000_000, orphan_age_s=3600.0)
        assert not orphan.exists()
        assert entry.exists()

    def test_young_tmp_presumed_live_and_kept(self, driver):
        entry = driver.put(1)
        inflight = entry.parent / "live-writer.tmp"
        inflight.write_bytes(b"x")
        driver.store.prune(10_000_000, orphan_age_s=3600.0)
        assert inflight.exists()

    def test_prune_lru_by_mtime(self, driver):
        """The oldest entry goes first, and its envelope with it."""
        store = driver.store
        old, new = driver.put(1), driver.put(2)
        old_size, new_size = old.stat().st_size, new.stat().st_size
        os.utime(old, (1_000_000, 1_000_000))
        removed, freed = store.prune(old_size + new_size - 1)
        assert (removed, freed) == (1, old_size)
        assert driver.key(1) not in store
        assert driver.key(2) in store
        assert not old.exists()
        assert not envelope_path(old).exists()

    def test_read_refreshes_lru_rank(self, driver):
        store = driver.store
        first, second = driver.put(1), driver.put(2)
        # Make both old, then read the first — the read must protect it.
        for path in (first, second):
            os.utime(path, (1_000_000, 1_000_000))
        assert driver.read(1) == driver.token(1)
        removed, _ = store.prune(
            first.stat().st_size + second.stat().st_size - 1
        )
        assert removed == 1
        assert driver.key(1) in store
        assert driver.key(2) not in store

    def test_prune_to_zero_clears_everything(self, driver):
        store = driver.store
        sizes = [driver.put(n).stat().st_size for n in (1, 2)]
        removed, freed = store.prune(0)
        assert (removed, freed) == (2, sum(sizes))
        assert len(store) == 0

    def put_nested(self, driver, root):
        deep = root / "shard-007" / "ab"
        deep.mkdir(parents=True)
        entry = deep / ("ab" * 32 + driver.suffix)
        entry.write_bytes(b"x" * 32)
        return entry

    def test_len_counts_nested_entries(self, driver, tmp_path):
        """len()/clear() see exactly what stats()/prune() see, no
        matter how deeply entries nest under the root."""
        driver.put(1)
        nested = self.put_nested(driver, tmp_path)
        assert len(driver.store) == 2
        assert driver.store.stats()["entries"] == 2
        assert nested.exists()

    def test_clear_removes_nested_entries(self, driver, tmp_path):
        driver.put(1)
        nested = self.put_nested(driver, tmp_path)
        assert driver.store.clear() == 2
        assert len(driver.store) == 0
        assert not nested.exists()

    def test_clear_removes_entries_and_envelopes(self, driver):
        sidecar = envelope_path(driver.put(1))
        assert sidecar.exists()
        assert driver.store.clear() == 1
        assert len(driver.store) == 0
        assert driver.read(1) is None
        assert not sidecar.exists()

    def test_prune_stale_and_lineage(self, driver):
        store = driver.store
        driver.put(1)
        groups = store.lineage()
        assert len(groups) == 1
        assert groups[0]["entries"] == 1
        assert not groups[0]["stale"]
        assert store.prune_stale() == (0, 0)  # current code is kept
        assert len(store) == 1
        envelope_path(driver.put(2)).unlink()  # legacy: no envelope
        groups = store.lineage()
        assert {g["stale"] for g in groups} == {True, False}
        removed, _ = store.prune_stale()
        assert removed == 1
        assert driver.read(1) == driver.token(1)
        assert driver.key(2) not in store


# -- on-disk layout, pinned with stdlib calls only ----------------------

def write_gzip_pickle(root, key, payload, envelope=None):
    path = root / key[:2] / f"{key}.pkl.gz"
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wb") as handle:
        pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
    if envelope is not None:
        (root / key[:2] / f"{key}.pkl.gz.prov").write_text(
            json.dumps(envelope, sort_keys=True)
        )
    return path


def write_raw(root, key, data, envelope=None):
    path = root / key[:2] / f"{key}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    if envelope is not None:
        (root / key[:2] / f"{key}.json.prov").write_text(
            json.dumps(envelope, sort_keys=True)
        )
    return path


def load_gzip_pickle(path):
    with gzip.open(path, "rb") as handle:
        return pickle.load(handle)


class TestLayoutCompatibility:
    """Entries written the way earlier code wrote them are read,
    counted and pruned; entries the stores write sit at the same paths
    and decode with plain stdlib calls."""

    def test_cell_cache_reads_stdlib_layout(self, tmp_path):
        old, legacy_cfg = BASE, replace(BASE, seed=7)
        key = config_key(old)
        current = write_gzip_pickle(tmp_path, key, {"cell": 1},
                                    build_envelope("cell", key))
        legacy = write_gzip_pickle(tmp_path, config_key(legacy_cfg),
                                   {"cell": 2})
        cache = ResultCache(tmp_path)
        assert cache.get(old) == {"cell": 1}
        assert cache.get(legacy_cfg) == {"cell": 2}
        assert cache.path_for(old) == current
        sizes = current.stat().st_size, legacy.stat().st_size
        assert len(cache) == 2
        assert cache.stats()["total_bytes"] == sum(sizes)
        groups = cache.lineage()
        assert {g["stale"] for g in groups} == {True, False}
        assert cache.prune_stale() == (1, sizes[1])
        assert not legacy.exists()
        assert cache.prune(0) == (1, sizes[0])
        assert not current.exists()
        assert not envelope_path(current).exists()

    def test_artifact_store_reads_stdlib_layout(self, tmp_path, artifact):
        legacy_cfg = replace(BASE, seed=7)
        key, legacy_key = sim_key(BASE), sim_key(legacy_cfg)
        current = write_gzip_pickle(
            tmp_path, key, artifact.to_payload(),
            build_envelope("artifact", key, platform="p6"),
        )
        legacy = write_gzip_pickle(
            tmp_path, legacy_key,
            replace(artifact, sim_key=legacy_key).to_payload(),
        )
        store = ArtifactStore(tmp_path)
        assert store.get(BASE).sim_key == key
        assert store.get_key(legacy_key).sim_key == legacy_key
        assert store.path_for(BASE) == current
        sizes = current.stat().st_size, legacy.stat().st_size
        assert len(store) == 2
        assert store.total_bytes() == sum(sizes)
        assert {g["stale"] for g in store.lineage()} == {True, False}
        assert store.prune_stale() == (1, sizes[1])
        assert store.prune(0) == (1, sizes[0])
        assert len(store) == 0

    @pytest.mark.parametrize("shards", [1, 4])
    def test_result_store_reads_stdlib_layout(self, tmp_path, shards):
        key, legacy_key = "ab" * 32, "cd" * 32
        base = tmp_path
        if shards > 1:
            base = tmp_path / f"shard-{int(key[:8], 16) % shards:03d}"
        current = write_raw(base, key, b'{"n": 1}',
                            build_envelope("result", key))
        legacy_base = tmp_path
        if shards > 1:
            legacy_base = (
                tmp_path / f"shard-{int(legacy_key[:8], 16) % shards:03d}"
            )
        legacy = write_raw(legacy_base, legacy_key, b'{"n": 22}')
        store = ResultStore(tmp_path, shards=shards)
        assert store.get_bytes(key) == b'{"n": 1}'
        assert store.get_bytes(legacy_key) == b'{"n": 22}'
        assert store.path_for(key) == current
        assert store.keys() == [key, legacy_key]
        assert len(store) == 2
        assert store.stats()["total_bytes"] == 8 + 9
        assert {g["stale"] for g in store.lineage()} == {True, False}
        assert store.prune_stale() == (1, 9)
        assert not legacy.exists()
        assert store.prune(0) == (1, 8)
        assert not current.exists()
        assert not envelope_path(current).exists()

    def test_cell_cache_writes_stdlib_layout(self, tmp_path):
        key = config_key(BASE)
        path = ResultCache(tmp_path).put(BASE, {"cell": 1})
        assert path == tmp_path / key[:2] / f"{key}.pkl.gz"
        assert load_gzip_pickle(path) == {"cell": 1}
        sidecar = json.loads(
            (tmp_path / key[:2] / f"{key}.pkl.gz.prov").read_text()
        )
        assert (sidecar["kind"], sidecar["key"]) == ("cell", key)
        assert sorted(p.name for p in path.parent.iterdir()) == [
            f"{key}.pkl.gz", f"{key}.pkl.gz.prov",
        ]

    def test_artifact_store_writes_stdlib_layout(self, tmp_path, artifact):
        key = sim_key(BASE)
        path = ArtifactStore(tmp_path).put(BASE, artifact)
        assert path == tmp_path / key[:2] / f"{key}.pkl.gz"
        payload = load_gzip_pickle(path)
        assert payload["sim_key"] == key
        assert payload.keys() == artifact.to_payload().keys()
        sidecar = json.loads(
            (tmp_path / key[:2] / f"{key}.pkl.gz.prov").read_text()
        )
        assert (sidecar["kind"], sidecar["key"]) == ("artifact", key)
        assert sidecar["n_segments"] == artifact.n_segments

    @pytest.mark.parametrize("shards", [1, 4])
    def test_result_store_writes_stdlib_layout(self, tmp_path, shards):
        key = "ef" * 32
        path = ResultStore(tmp_path, shards=shards).put_bytes(
            key, b'{"x": 1}', envelope=build_envelope("result", key),
        )
        base = tmp_path
        if shards > 1:
            base = tmp_path / f"shard-{int(key[:8], 16) % shards:03d}"
        assert path == base / key[:2] / f"{key}.json"
        assert path.read_bytes() == b'{"x": 1}'
        sidecar = json.loads(
            (base / key[:2] / f"{key}.json.prov").read_text()
        )
        assert (sidecar["kind"], sidecar["key"]) == ("result", key)
