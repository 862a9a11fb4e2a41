"""Tests for the generational collectors (GenCopy, GenMS)."""

import numpy as np
import pytest

from repro.errors import SpaceExhausted
from repro.jvm.gc.generational import (
    GenCopy,
    GenMS,
    default_nursery_bytes,
)
from repro.jvm.heap import BumpAllocator
from repro.jvm.objects import SPACE_MATURE, SPACE_NURSERY
from repro.units import KB, MB

from tests.jvm.gc_harness import MiniMutator


def gencopy(heap_mb=16, seed=5, **kw):
    return GenCopy(heap_mb * MB, np.random.default_rng(seed), **kw)


def genms(heap_mb=16, seed=5, **kw):
    return GenMS(heap_mb * MB, np.random.default_rng(seed), **kw)


class TestNurserySizing:
    def test_bounded_nursery(self):
        assert default_nursery_bytes(64 * MB) == 4 * MB
        assert default_nursery_bytes(16 * MB) == 2 * MB
        assert default_nursery_bytes(4 * MB) == 1 * MB

    def test_explicit_nursery(self):
        gc = gencopy(nursery_bytes=2 * MB)
        assert gc.nursery_bytes == 2 * MB


def allocate(gc, size, birth, death):
    """One cohort through the batch allocation seam; its handle."""
    return gc.allocate([size], [birth], [death])[0]


class TestAllocation:
    def test_new_objects_in_nursery(self):
        gc = gencopy()
        obj = allocate(gc, 16 * KB, 0.0, 1e12)
        assert gc.table.space[obj] == SPACE_NURSERY

    def test_pretenure_of_huge_objects(self):
        gc = gencopy()
        obj = allocate(gc, gc.nursery_bytes + 1, 0.0, 1e12)
        assert gc.table.space[obj] == SPACE_MATURE

    def test_nursery_bump_matches_the_bump_allocator(self):
        gc = gencopy()
        reference = BumpAllocator(gc.nursery_bytes, base_addr=0)
        for size in (16 * KB, 3 * KB, 40 * KB):
            assert gc.table.addr[allocate(gc, size, 0.0, 1e12)] == (
                reference.allocate(size))
        batch = gc.allocate([5 * KB, 7 * KB], [0.0, 0.0], [1e12, 1e12])
        assert gc.table.addr[list(batch)].tolist() == [
            reference.allocate(5 * KB), reference.allocate(7 * KB)]
        assert gc.nursery.cursor == reference.cursor
        assert gc.nursery.stats == reference.stats

    def test_full_nursery_raises_and_counts_the_failure(self):
        gc = gencopy()
        allocate(gc, gc.nursery_bytes, 0.0, 1e12)
        with pytest.raises(SpaceExhausted) as caught:
            allocate(gc, 1 * KB, 0.0, 1e12)
        assert len(caught.value.allocated) == 0
        assert gc.nursery.stats.failed_allocations == 1
        assert gc.nursery.cursor == gc.nursery_bytes

    def test_batch_places_the_prefix_that_fits(self):
        gc = gencopy()
        half = gc.nursery_bytes // 2
        with pytest.raises(SpaceExhausted) as caught:
            gc.allocate([half, half - KB, 2 * KB, KB], [0.0] * 4,
                        [1e12] * 4)
        assert list(caught.value.allocated) == [0, 1]
        assert gc.table.n == 2
        assert gc.nursery.stats.failed_allocations == 1
        assert gc.nursery.cursor == 2 * half - KB

    def test_batch_ends_after_a_pretenured_cohort(self):
        # The write barrier must see a pretenured cohort among the
        # promoted objects only after it is allocated, so it is a batch
        # of its own, and a batch ends before it.
        gc = gencopy()
        huge = gc.nursery_bytes + 1
        first = gc.allocate([KB, huge, KB], [0.0] * 3, [1e12] * 3)
        assert list(first) == [0]
        second = gc.allocate([huge, KB], [0.0] * 2, [1e12] * 2)
        assert list(second) == [1]
        assert gc.table.space[1] == SPACE_MATURE
        assert gc._promoted_ring == [1]


class TestMinorCollection:
    def test_nursery_exhaustion_triggers_minor(self):
        gc = gencopy(16)
        m = MiniMutator(gc, survivor_frac=0.05)
        m.allocate_bytes(12 * MB)
        assert gc.stats.minor_collections >= 2

    def test_survivors_promoted_to_mature(self):
        gc = gencopy(16)
        m = MiniMutator(gc, survivor_frac=1.0, survivor_life=1 << 40)
        m.allocate_bytes(2 * MB)
        m.force_collection()
        assert all(gc.table.space[o] == SPACE_MATURE
                   for o in m.live_objects())

    def test_minor_cheaper_than_full_heap_trace(self):
        # Minor collections trace only nursery survivors.
        gc = gencopy(32)
        m = MiniMutator(gc, survivor_frac=0.05)
        m.allocate_bytes(20 * MB)
        minors = [r for r in m.reports if r.kind == "minor"]
        assert minors
        nursery_cap = gc.nursery_bytes
        assert all(r.traced_bytes <= nursery_cap for r in minors)

    def test_promotion_counted(self):
        gc = gencopy(16)
        m = MiniMutator(gc, survivor_frac=0.3)
        m.allocate_bytes(10 * MB)
        assert gc.stats.promoted_bytes > 0


class TestWriteBarrier:
    def test_remset_entry_recorded(self):
        gc = gencopy(16)
        m = MiniMutator(gc, survivor_frac=0.5)
        m.allocate_bytes(6 * MB)  # some promotions happened
        m.force_collection()      # empty the nursery
        young = allocate(gc, 16 * KB, m.now, m.now + 1e9)
        m.roots.add([young])
        gc.record_mutation(young)
        assert gc.stats.write_barrier_entries == 1
        assert gc.remset and gc.remset[-1][1] == young

    def test_mutation_to_mature_object_ignored(self):
        gc = gencopy(16)
        m = MiniMutator(gc, survivor_frac=0.5)
        m.allocate_bytes(6 * MB)
        old = next(o for o in m.live_objects()
                   if gc.table.space[o] == SPACE_MATURE)
        gc.record_mutation(old)
        assert gc.stats.write_barrier_entries == 0

    def test_nepotism_dead_target_promoted(self):
        gc = gencopy(16)
        m = MiniMutator(gc, survivor_frac=0.5)
        m.allocate_bytes(6 * MB)
        m.force_collection()  # empty the nursery
        # A nursery object that dies immediately but is remembered.
        doomed = allocate(gc, 16 * KB, m.now, m.now + 1.0)
        gc.record_mutation(doomed)
        m.now += 10 * KB * 1024  # let it die
        m.roots.expire(m.now)
        reports = gc.collect(m.roots, m.now)
        minor = reports[0]
        assert minor.nepotism_bytes >= 16 * KB
        assert gc.table.space[doomed] == SPACE_MATURE

    def test_nepotism_reclaimed_by_full_collection(self):
        gc = gencopy(16)
        m = MiniMutator(gc, survivor_frac=0.5)
        m.allocate_bytes(6 * MB)
        m.force_collection()  # empty the nursery
        doomed = allocate(gc, 16 * KB, m.now, m.now + 1.0)
        gc.record_mutation(doomed)
        m.now += 10 * MB
        m.roots.expire(m.now)
        gc.collect(m.roots, m.now)       # minor: tenures the corpse
        used_with_corpse = gc.used_bytes()
        gc._full(m.roots, m.now)          # full heap: reclaims it
        assert gc.used_bytes() < used_with_corpse

    def test_barrier_overhead_positive(self):
        assert gencopy().barrier_overhead > 0
        assert genms().barrier_overhead > 0


class TestFullCollection:
    def test_full_when_mature_cannot_absorb(self):
        # Promoted objects die in the mature space; their corpses are
        # only reclaimed by a full-heap collection, which must therefore
        # eventually trigger under sustained promotion.
        gc = gencopy(16, nursery_bytes=2 * MB)
        m = MiniMutator(gc, survivor_frac=0.5,
                        survivor_life=2 * MB)
        m.allocate_bytes(30 * MB)
        assert gc.stats.full_collections >= 1

    def test_full_resets_remset(self):
        gc = gencopy(16)
        m = MiniMutator(gc, survivor_frac=0.5)
        m.allocate_bytes(6 * MB)
        m.force_collection()  # empty the nursery
        young = allocate(gc, 16 * KB, m.now, m.now + 1e9)
        m.roots.add([young])
        gc.record_mutation(young)
        gc._full(m.roots, m.now)
        assert gc.remset == []


class TestGenMS:
    def test_mature_usable_larger_than_gencopy(self):
        assert (
            genms(16).usable_heap_bytes()
            > gencopy(16).usable_heap_bytes()
        )

    def test_full_collection_sweeps_mature(self):
        gc = genms(16)
        m = MiniMutator(gc, survivor_frac=0.4)
        m.allocate_bytes(30 * MB)
        fulls = [r for r in m.reports if r.kind == "full"]
        if not fulls:
            m.now += 1 << 40  # everything dies
            fulls = [gc._full(m.roots, m.now)]
        assert any(r.swept_bytes > 0 for r in fulls)

    def test_mature_objects_do_not_move_on_full(self):
        gc = genms(16)
        m = MiniMutator(gc, survivor_frac=1.0, survivor_life=1 << 40)
        m.allocate_bytes(3 * MB)
        m.force_collection()  # promote everything
        addrs = {
            o: gc.table.addr[o] for o in m.live_objects()
            if gc.table.space[o] == SPACE_MATURE
        }
        assert addrs
        gc._full(m.roots, m.now)
        for obj in m.live_objects():
            if obj in addrs:
                assert gc.table.addr[obj] == addrs[obj]

    def test_sustained_churn_does_not_oom(self):
        gc = genms(12)
        m = MiniMutator(gc, survivor_frac=0.15)
        m.allocate_bytes(60 * MB)
        assert gc.stats.collections > 10
