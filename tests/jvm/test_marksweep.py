"""Tests for the MarkSweep collector."""

import numpy as np

from repro.jvm.gc.marksweep import MarkSweep
from repro.units import KB, MB

from tests.jvm.gc_harness import MiniMutator


def make(heap_mb=8, seed=5):
    return MarkSweep(heap_mb * MB, np.random.default_rng(seed))


class TestStructure:
    def test_usable_is_nearly_whole_heap(self):
        gc = make(8)
        assert gc.usable_heap_bytes() > 7 * MB

    def test_usable_exceeds_semispace(self):
        # The paper's reason MarkSweep competes at small heaps.
        from repro.jvm.gc.semispace import SemiSpace

        rng = np.random.default_rng(0)
        assert (
            make(8).usable_heap_bytes()
            > SemiSpace(8 * MB, rng).usable_heap_bytes()
        )

    def test_no_compaction_slightly_hurts_locality(self):
        assert make().mutator_locality_delta < 0


class TestCollection:
    def test_objects_never_move(self):
        gc = make(8)
        m = MiniMutator(gc, survivor_frac=0.5)
        m.allocate_bytes(3 * MB)
        addrs = {o: gc.table.addr[o] for o in m.live_objects()}
        m.force_collection()
        for obj in m.live_objects():
            assert gc.table.addr[obj] == addrs[obj]

    def test_no_bytes_copied(self):
        gc = make(8)
        m = MiniMutator(gc)
        m.allocate_bytes(10 * MB)
        assert gc.stats.copied_bytes == 0

    def test_sweep_extent_reported(self):
        gc = make(8)
        m = MiniMutator(gc)
        m.allocate_bytes(3 * MB)
        report = m.force_collection()[0]
        assert report.swept_bytes >= 3 * MB

    def test_dead_cells_reused(self):
        gc = make(8)
        m = MiniMutator(gc, survivor_frac=0.0, young_mean=32 * KB)
        # Allocate well past the heap size: reuse must be working.
        m.allocate_bytes(40 * MB)
        assert gc.stats.collections >= 4
        assert gc.stats.freed_bytes > 30 * MB

    def test_live_accounting_after_collection(self):
        gc = make(8)
        m = MiniMutator(gc, survivor_frac=0.3)
        m.allocate_bytes(6 * MB)
        m.force_collection()
        # used_bytes counts cells (with rounding), so >= live bytes.
        assert gc.used_bytes() >= m.live_bytes()

    def test_fragmentation_observable(self):
        gc = make(8)
        m = MiniMutator(gc, obj_bytes=5000)  # 8 KB cells: 3 KB waste
        m.allocate_bytes(1 * MB)
        assert gc.fragmentation_bytes > 0

    def test_report_kind_full(self):
        gc = make(8)
        m = MiniMutator(gc)
        m.allocate_bytes(1 * MB)
        assert m.force_collection()[0].kind == "full"

    def test_marked_bytes_equal_live(self):
        gc = make(8)
        m = MiniMutator(gc, survivor_frac=0.2)
        m.allocate_bytes(4 * MB)
        m.roots.expire(m.now)
        live = m.live_bytes()
        report = m.force_collection()[0]
        assert report.traced_bytes == live
