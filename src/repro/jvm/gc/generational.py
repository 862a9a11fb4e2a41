"""Generational collectors: GenCopy and GenMS.

New objects are allocated into a *nursery*; when it fills, a **minor**
collection traces only the nursery (from the roots plus the write
barrier's remembered set) and promotes survivors into the *mature* space
(Section III-B).  The two collectors differ in the mature-space
discipline: GenCopy manages it as a semispace pair, GenMS as a mark-sweep
free-list space.  When the mature space cannot absorb the expected
promotion, a **full-heap** collection runs instead.

The write barrier has two modeled costs, both of which the paper
discusses:

* a fractional mutator instruction overhead (``barrier_overhead``) — the
  "slight performance overhead of write barriers" that lets SemiSpace edge
  out GenCopy on `_209_db` at 128 MB (Section VI-B);
* *nepotism*: remembered-set entries whose nursery target has already died
  still force promotion, tenuring garbage that only the next full-heap
  collection reclaims.
"""

from repro.errors import SpaceExhausted
from repro.jvm.gc.base import CollectionReport, Collector
from repro.jvm.heap import BumpAllocator, FreeListAllocator
from repro.jvm.objects import (
    SPACE_MATURE,
    SPACE_NURSERY,
    SimObject,
    trace_closure,
)
from repro.units import MB

#: Fraction of a mark-sweep mature space consumed by metadata.
METADATA_FRACTION = 0.05

#: Bound on how many recently promoted objects the write barrier can pick
#: mutation sources from.
PROMOTED_RING_SIZE = 128


def default_nursery_bytes(heap_bytes):
    """Bounded-nursery sizing: an eighth of the heap, clamped to
    [1 MB, 4 MB] — the classic bounded-nursery configuration, leaving
    the mature semispaces enough room at the paper's smallest heaps."""
    return max(1 * MB, min(heap_bytes // 8, 4 * MB))


class _GenerationalBase(Collector):
    """Shared nursery + remembered-set machinery."""

    is_generational = True
    barrier_overhead = 0.015
    #: Mature-space headroom factor required before attempting promotion
    #: (mark-sweep matures need slack for size-class rounding).
    PROMOTION_HEADROOM = 1.0

    def __init__(self, heap_bytes, rng, nursery_bytes=None):
        super().__init__(heap_bytes, rng)
        self.nursery_bytes = (
            default_nursery_bytes(heap_bytes)
            if nursery_bytes is None
            else int(nursery_bytes)
        )
        self.nursery = BumpAllocator(self.nursery_bytes, base_addr=0)
        self.remset = []           # (source, target) pairs
        self._promoted_ring = []   # recent mature objects (barrier sources)

    # -- allocation ---------------------------------------------------

    def allocate(self, size, birth, death):
        nursery = self.nursery
        capacity = nursery.capacity_bytes
        if size > capacity:
            # Pretenure: objects too large for the nursery go straight to
            # the mature space.
            addr = self._mature_allocate(size)
            obj = SimObject(size, birth, death, space=SPACE_MATURE)
            obj.addr = addr
            self._note_promoted(obj)
            return obj
        cursor = nursery.cursor
        if size <= 0 or cursor + size > capacity:
            nursery.allocate(size)  # raises, and counts the failure
        # The nursery bump, inline: this is the one collector call per
        # allocated object, so it stays as cheap as BumpAllocator's.
        size = int(size)
        nursery.cursor = cursor + size
        stats = nursery.stats
        stats.allocations += 1
        stats.allocated_bytes += size
        obj = SimObject(size, birth, death, space=SPACE_NURSERY)
        obj.addr = nursery.base_addr + cursor
        return obj

    # -- write barrier --------------------------------------------------

    def record_mutation(self, young_obj):
        """A tracked pointer store installed a reference to *young_obj*
        from some mature object."""
        if young_obj.space != SPACE_NURSERY or not self._promoted_ring:
            return
        idx = int(self.rng.integers(0, len(self._promoted_ring)))
        source = self._promoted_ring[idx]
        self.remset.append((source, young_obj))
        self.stats.write_barrier_entries += 1

    def _note_promoted(self, obj):
        self._promoted_ring.append(obj)
        if len(self._promoted_ring) > PROMOTED_RING_SIZE:
            self._promoted_ring = self._promoted_ring[-PROMOTED_RING_SIZE:]

    # -- collection -----------------------------------------------------

    def collect(self, roots, now):
        nursery_roots = [
            o for o in roots.live_objects() if o.space == SPACE_NURSERY
        ]
        remset_targets = [
            dst for _, dst in self.remset if dst.space == SPACE_NURSERY
        ]
        survivors, survivor_bytes, edges = trace_closure(
            nursery_roots + remset_targets, include={SPACE_NURSERY}
        )
        # Promotion needs headroom beyond the raw byte count (size-class
        # rounding in a mark-sweep mature space); fall back to a full
        # collection when the mature space cannot absorb the survivors,
        # or when promotion fails partway despite the estimate.
        if self._mature_free_bytes() >= int(
            survivor_bytes * self.PROMOTION_HEADROOM
        ):
            try:
                return [self._minor(survivors, survivor_bytes, edges, now)]
            except SpaceExhausted:
                return [self._full(roots, now)]
        return [self._full(roots, now)]

    def _minor(self, survivors, survivor_bytes, edges, now):
        nursery_used = self.nursery.used_bytes
        nepotism = 0
        for obj in survivors:
            addr = self._mature_allocate(obj.size)
            obj.addr = addr
            obj.space = SPACE_MATURE
            obj.age += 1
            self._note_promoted(obj)
            if not obj.is_live(now):
                nepotism += obj.size
        self.nursery.reset()
        self.remset.clear()

        report = CollectionReport(
            kind="minor",
            collector=self.name,
            traced_bytes=survivor_bytes,
            traced_objects=len(survivors),
            edges=edges,
            copied_bytes=survivor_bytes,
            swept_bytes=0,
            freed_bytes=max(nursery_used - survivor_bytes, 0),
            live_bytes_after=self.used_bytes(),
            promoted_bytes=survivor_bytes,
            nepotism_bytes=nepotism,
            footprint_bytes=nursery_used + survivor_bytes,
        )
        self.stats.absorb(report)
        return report

    # -- subclass protocol ------------------------------------------------

    def _mature_allocate(self, size):
        raise NotImplementedError

    def _mature_free_bytes(self):
        raise NotImplementedError

    def _full(self, roots, now):
        raise NotImplementedError


class GenCopy(_GenerationalBase):
    """Generational collector with a semispace (copying) mature space."""

    name = "GenCopy"
    #: Both the nursery and the mature space compact.
    mutator_locality_delta = 0.02

    def __init__(self, heap_bytes, rng, nursery_bytes=None):
        super().__init__(heap_bytes, rng, nursery_bytes=nursery_bytes)
        mature_total = heap_bytes - self.nursery_bytes
        half = mature_total // 2
        self._halves = (
            BumpAllocator(half, base_addr=self.nursery_bytes),
            BumpAllocator(half, base_addr=self.nursery_bytes + half),
        )
        self._from = 0

    @property
    def mature_from(self):
        return self._halves[self._from]

    @property
    def mature_to(self):
        return self._halves[1 - self._from]

    def _mature_allocate(self, size):
        return self.mature_from.allocate(size)

    def _mature_free_bytes(self):
        return self.mature_from.free_bytes

    def _full(self, roots, now):
        """Evacuate the entire heap (nursery + mature) into to-space."""
        used_before = self.nursery.used_bytes + self.mature_from.used_bytes
        live, live_bytes, edges = trace_closure(roots.live_objects())

        to_space = self.mature_to
        to_space.reset()
        copied = 0
        for obj in live:
            obj.addr = to_space.allocate(obj.size)  # SpaceExhausted => OOM
            obj.space = SPACE_MATURE
            obj.age += 1
            copied += obj.size
        self.nursery.reset()
        self.mature_from.reset()
        self._from = 1 - self._from
        self.remset.clear()
        live_ids = {id(o) for o in live}
        self._promoted_ring = [
            o for o in self._promoted_ring if id(o) in live_ids
        ]

        report = CollectionReport(
            kind="full",
            collector=self.name,
            traced_bytes=live_bytes,
            traced_objects=len(live),
            edges=edges,
            copied_bytes=copied,
            swept_bytes=0,
            freed_bytes=max(used_before - copied, 0),
            live_bytes_after=copied,
            footprint_bytes=used_before + copied,
        )
        self.stats.absorb(report)
        return report

    def used_bytes(self):
        return self.nursery.used_bytes + self.mature_from.used_bytes

    def usable_heap_bytes(self):
        return self.nursery_bytes + self.mature_from.capacity_bytes


class GenMS(_GenerationalBase):
    """Generational collector with a mark-sweep mature space."""

    name = "GenMS"
    PROMOTION_HEADROOM = 1.2
    #: The nursery compacts, the mature space does not: net small benefit.
    mutator_locality_delta = 0.01

    def __init__(self, heap_bytes, rng, nursery_bytes=None):
        super().__init__(heap_bytes, rng, nursery_bytes=nursery_bytes)
        mature_total = int(
            (heap_bytes - self.nursery_bytes) * (1.0 - METADATA_FRACTION)
        )
        self._mature = FreeListAllocator(
            mature_total, base_addr=self.nursery_bytes
        )
        self._mature_objects = []

    def _mature_allocate(self, size):
        addr = self._mature.allocate(size)
        return addr

    def _mature_free_bytes(self):
        return self._mature.free_bytes

    def _note_promoted(self, obj):
        super()._note_promoted(obj)
        self._mature_objects.append(obj)

    def _full(self, roots, now):
        """Mark the whole heap; sweep the mature space; promote nursery
        survivors into the (just swept) free lists."""
        used_before = self.nursery.used_bytes + self._mature.used_bytes
        live, live_bytes, edges = trace_closure(roots.live_objects())
        live_ids = {id(o) for o in live}

        # Sweep the mature space.
        survivors = []
        freed = 0
        for obj in self._mature_objects:
            if id(obj) in live_ids:
                obj.age += 1
                survivors.append(obj)
            else:
                self._mature.free(obj.addr, obj.size)
                freed += obj.size
        self._mature_objects = survivors

        # Promote nursery survivors.
        promoted = 0
        for obj in live:
            if obj.space == SPACE_NURSERY:
                obj.addr = self._mature.allocate(obj.size)  # may raise: OOM
                obj.space = SPACE_MATURE
                obj.age += 1
                self._mature_objects.append(obj)
                promoted += obj.size
        freed += max(self.nursery.used_bytes - promoted, 0)
        self.nursery.reset()
        self.remset.clear()
        self._promoted_ring = [
            o for o in self._promoted_ring if id(o) in live_ids
        ]

        report = CollectionReport(
            kind="full",
            collector=self.name,
            traced_bytes=live_bytes,
            traced_objects=len(live),
            edges=edges,
            copied_bytes=promoted,
            swept_bytes=self._mature.swept_extent_bytes,
            freed_bytes=freed,
            live_bytes_after=live_bytes,
            promoted_bytes=promoted,
            footprint_bytes=used_before,
        )
        self.stats.absorb(report)
        return report

    def used_bytes(self):
        return self.nursery.used_bytes + self._mature.used_bytes

    def usable_heap_bytes(self):
        return self.nursery_bytes + self._mature.capacity_bytes
