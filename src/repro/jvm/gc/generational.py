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

import numpy as np

from repro.errors import SpaceExhausted
from repro.jvm.gc.base import (
    CollectionReport,
    Collector,
    bump_prefix,
    cell_prefix,
    free_cells,
    marks,
)
from repro.jvm.heap import BumpAllocator, FreeListAllocator
from repro.jvm.objects import (
    SPACE_MATURE,
    SPACE_NURSERY,
    cohort_columns,
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

    def allocate(self, sizes, births, deaths):
        sizes, births, deaths = cohort_columns(sizes, births, deaths)
        capacity = self.nursery.capacity_bytes
        if sizes[0] > capacity:
            # Pretenure: objects too large for the nursery go straight to
            # the mature space.  Such a cohort is a batch of its own, so
            # the write barrier after it (and only after it) sees it
            # among the promoted objects.
            handles = self._place(sizes[:1], deaths, SPACE_MATURE,
                                  *self._mature_allocate_many(sizes[:1]))
            self._note_promoted(handles)
            return handles
        stop = len(sizes)
        if sizes.max() > capacity:
            stop = int(np.argmax(sizes > capacity))
        return self._place(sizes[:stop], deaths, SPACE_NURSERY,
                           *bump_prefix(self.nursery, sizes[:stop]))

    # -- write barrier --------------------------------------------------

    def record_mutation(self, young_obj):
        """A tracked pointer store installed a reference to *young_obj*
        from some mature object."""
        if (self.table.space[young_obj] != SPACE_NURSERY
                or not self._promoted_ring):
            return
        idx = int(self.rng.integers(0, len(self._promoted_ring)))
        source = self._promoted_ring[idx]
        self.remset.append((source, young_obj))
        self.stats.write_barrier_entries += 1

    def _note_promoted(self, handles):
        """Enter newly promoted *handles* (in order) into the ring."""
        ring = self._promoted_ring
        ring.extend(handles)
        if len(ring) > PROMOTED_RING_SIZE:
            self._promoted_ring = ring[-PROMOTED_RING_SIZE:]

    def _keep_live_promoted(self, marked):
        ring = np.asarray(self._promoted_ring, dtype=np.int64)
        self._promoted_ring = ring[marked[ring]].tolist()

    # -- collection -----------------------------------------------------

    def collect(self, roots, now):
        table = self.table
        space = table.space
        live = roots.live_objects()
        nursery_roots = live[space[live] == SPACE_NURSERY]
        # The remembered set's nursery targets join the roots (each
        # once, after the roots: the order a trace would visit them in).
        seen = set(nursery_roots.tolist())
        remset_targets = []
        for _, dst in self.remset:
            if space[dst] == SPACE_NURSERY and dst not in seen:
                seen.add(dst)
                remset_targets.append(dst)
        survivors, survivor_bytes, edges = trace_closure(
            table,
            np.concatenate((nursery_roots,
                            np.asarray(remset_targets, dtype=np.int64))),
            include={SPACE_NURSERY},
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
        table = self.table
        nursery_used = self.nursery.used_bytes
        sizes = table.size[survivors]
        addrs, fits = self._mature_allocate_many(sizes)
        promoted = survivors[:len(addrs)]
        table.addr[promoted] = addrs
        table.space[promoted] = SPACE_MATURE
        table.age[promoted] += 1
        self._note_promoted(promoted.tolist())
        if not fits:
            # Promotion failed partway: the promoted prefix stays
            # promoted, and the caller falls back to a full collection.
            raise SpaceExhausted("mature space cannot absorb survivors")
        nepotism = int(sizes[table.death[survivors] <= now].sum())
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

    # -- object-table compaction ------------------------------------------

    def held_handles(self):
        return (self._promoted_ring, [h for pair in self.remset for h in pair])

    def remembered_handles(self):
        return [dst for _, dst in self.remset]

    def remap(self, mapping):
        self._promoted_ring = mapping[self._promoted_ring].tolist()
        self.remset = [(int(mapping[src]), int(mapping[dst]))
                       for src, dst in self.remset]

    # -- subclass protocol ------------------------------------------------

    def _mature_allocate_many(self, sizes):
        """Place a run of sizes in the mature space: ``(addrs, fits)``
        as from :func:`~repro.jvm.gc.base.bump_prefix`."""
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

    def _mature_allocate_many(self, sizes):
        return bump_prefix(self.mature_from, sizes)

    def _mature_free_bytes(self):
        return self.mature_from.free_bytes

    def _full(self, roots, now):
        """Evacuate the entire heap (nursery + mature) into to-space."""
        table = self.table
        used_before = self.nursery.used_bytes + self.mature_from.used_bytes
        live, live_bytes, edges = trace_closure(table, roots.live_objects())

        to_space = self.mature_to
        to_space.reset()
        sizes = table.size[live]
        addrs, fits = bump_prefix(to_space, sizes)
        moved = live[:len(addrs)]
        table.addr[moved] = addrs
        table.space[moved] = SPACE_MATURE
        table.age[moved] += 1
        if not fits:   # the VM reports it as out of memory
            raise SpaceExhausted("to-space cannot hold the live set")
        copied = int(sizes.sum())
        self.nursery.reset()
        self.mature_from.reset()
        self._from = 1 - self._from
        self.remset.clear()
        self._keep_live_promoted(marks(table, live))

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

    def _mature_allocate_many(self, sizes):
        return cell_prefix(self._mature, sizes)

    def _mature_free_bytes(self):
        return self._mature.free_bytes

    def _note_promoted(self, handles):
        super()._note_promoted(handles)
        self._mature_objects.extend(handles)

    def _full(self, roots, now):
        """Mark the whole heap; sweep the mature space; promote nursery
        survivors into the (just swept) free lists.

        After a minor collection that failed partway, the objects it
        promoted are mature already: they are swept (and aged) with the
        mature space, and the nursery's freed bytes still count them.
        """
        table = self.table
        used_before = self.nursery.used_bytes + self._mature.used_bytes
        live, live_bytes, edges = trace_closure(table, roots.live_objects())
        marked = marks(table, live)

        # Sweep the mature space.
        mature = np.asarray(self._mature_objects, dtype=np.int64)
        survive = marked[mature]
        table.age[mature[survive]] += 1
        freed = free_cells(self._mature, table, mature[~survive])
        self._mature_objects = mature[survive].tolist()

        # Promote nursery survivors.
        young = live[table.space[live] == SPACE_NURSERY]
        sizes = table.size[young]
        addrs, fits = cell_prefix(self._mature, sizes)
        moved = young[:len(addrs)]
        table.addr[moved] = addrs
        table.space[moved] = SPACE_MATURE
        table.age[moved] += 1
        self._mature_objects.extend(moved.tolist())
        if not fits:   # the VM reports it as out of memory
            raise SpaceExhausted("mature space cannot hold the survivors")
        promoted = int(sizes.sum())
        freed += max(self.nursery.used_bytes - promoted, 0)
        self.nursery.reset()
        self.remset.clear()
        self._keep_live_promoted(marked)

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

    def held_handles(self):
        return (*super().held_handles(), self._mature_objects)

    def remap(self, mapping):
        super().remap(mapping)
        self._mature_objects = mapping[self._mature_objects].tolist()

    def used_bytes(self):
        return self.nursery.used_bytes + self._mature.used_bytes

    def usable_heap_bytes(self):
        return self.nursery_bytes + self._mature.capacity_bytes
