"""Tests for the SemiSpace copying collector."""

import numpy as np

from repro.jvm.gc.semispace import SemiSpace
from repro.units import KB, MB

from tests.jvm.gc_harness import MiniMutator


def make(heap_mb=8, seed=5):
    return SemiSpace(heap_mb * MB, np.random.default_rng(seed))


class TestStructure:
    def test_usable_is_half_the_heap(self):
        gc = make(8)
        assert gc.usable_heap_bytes() == 4 * MB

    def test_not_generational(self):
        gc = make()
        assert not gc.is_generational
        assert gc.barrier_overhead == 0.0

    def test_compaction_improves_mutator_locality(self):
        assert make().mutator_locality_delta > 0


class TestCollection:
    def test_collection_triggered_when_half_full(self):
        gc = make(8)
        m = MiniMutator(gc)
        m.allocate_bytes(12 * MB)
        assert gc.stats.collections >= 2

    def test_live_objects_survive_collection(self):
        gc = make(8)
        m = MiniMutator(gc, survivor_frac=0.3)
        m.allocate_bytes(10 * MB)
        for obj in m.live_objects():
            # Survivors must be inside the current from-space extent.
            assert gc.table.size[obj] > 0  # object still intact
        assert gc.used_bytes() >= m.live_bytes() * 0.95

    def test_dead_objects_reclaimed(self):
        gc = make(8)
        m = MiniMutator(gc, survivor_frac=0.0, young_mean=32 * KB)
        m.allocate_bytes(16 * MB)
        # Nearly everything dies young: post-collection occupancy small.
        m.force_collection()
        assert gc.used_bytes() < 1 * MB

    def test_semispaces_swap_roles(self):
        gc = make(8)
        m = MiniMutator(gc)
        before = gc.from_space
        m.force_collection()
        assert gc.from_space is not before

    def test_copied_bytes_equal_live_bytes(self):
        gc = make(8)
        m = MiniMutator(gc, survivor_frac=0.2)
        m.allocate_bytes(3 * MB)
        reports = m.force_collection()
        report = reports[0]
        assert report.copied_bytes == report.traced_bytes
        assert report.copied_bytes == gc.used_bytes()

    def test_addresses_compacted_after_collection(self):
        gc = make(8)
        m = MiniMutator(gc, survivor_frac=0.5)
        m.allocate_bytes(3 * MB)
        m.force_collection()
        table = gc.table
        live = sorted(m.live_objects(), key=lambda o: table.addr[o])
        # Compaction: survivor addresses are contiguous.
        cursor = table.addr[live[0]]
        for obj in live:
            assert table.addr[obj] == cursor
            cursor += table.size[obj]

    def test_report_accounting(self):
        gc = make(8)
        m = MiniMutator(gc)
        m.allocate_bytes(3 * MB)
        used_before = gc.used_bytes()
        report = m.force_collection()[0]
        assert report.kind == "full"
        assert report.freed_bytes + report.copied_bytes == used_before
        assert report.traced_objects == len(m.live_objects())

    def test_object_age_increments(self):
        gc = make(8)
        m = MiniMutator(gc, survivor_frac=1.0)
        m.allocate_bytes(1 * MB)
        m.force_collection()
        assert all(gc.table.age[o] == 1 for o in m.live_objects())

    def test_stats_accumulate(self):
        gc = make(8)
        m = MiniMutator(gc)
        m.allocate_bytes(20 * MB)
        assert gc.stats.collections == gc.stats.full_collections
        assert gc.stats.copied_bytes > 0
        assert gc.stats.freed_bytes > 0
