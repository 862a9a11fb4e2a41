"""Kaffe's garbage collector.

Kaffe 1.1.4 uses an *incremental, conservative, tri-color* mark-and-sweep
collector (Section IV-A).  Three behaviors distinguish it from the Jikes
RVM's MarkSweep and are modeled here:

* **Tri-color incremental marking** — marking proceeds in bounded
  increments (gray-set draining) interleaved with allocation; a final
  stop-the-world increment finishes the cycle when allocation fails.  Each
  increment's work is reported separately so the measurement layer sees
  Kaffe's characteristic short GC bursts rather than long pauses.
* **Conservative scanning** — values on the stack that merely *look like*
  pointers pin dead objects.  A small fraction of dead objects is retained
  per cycle and re-examined at the next cycle.
* **Snapshot write barrier** — pointer stores during an active mark cycle
  shade their targets gray, so concurrently installed references are not
  lost (modeled as extra gray insertions, i.e. extra trace work).
"""

import numpy as np

from repro.errors import SpaceExhausted
from repro.jvm.gc.base import (
    CollectionReport,
    Collector,
    cell_prefix,
    free_cells,
    marks,
)
from repro.jvm.heap import FreeListAllocator
from repro.jvm.objects import SPACE_DEFAULT, cohort_columns, trace_closure

#: Fraction of the heap consumed by collector metadata.
METADATA_FRACTION = 0.05

#: Probability that a dead object is conservatively pinned in a cycle.
DEFAULT_PIN_RATE = 0.02

#: Probability that a previously pinned object is released in a later cycle.
PIN_RELEASE_RATE = 0.5

#: Tri-color bookkeeping inflates per-byte trace work by this factor.
TRICOLOR_OVERHEAD = 1.45


class KaffeGC(Collector):
    """Incremental conservative tri-color mark-sweep collector."""

    name = "KaffeGC"
    is_generational = False
    mutator_locality_delta = -0.01
    #: The snapshot barrier is cheap (active only during mark cycles).
    barrier_overhead = 0.005

    def __init__(self, heap_bytes, rng, pin_rate=DEFAULT_PIN_RATE):
        super().__init__(heap_bytes, rng)
        usable = int(heap_bytes * (1.0 - METADATA_FRACTION))
        self._space = FreeListAllocator(usable)
        self._objects = []
        self._pinned = []
        self.pin_rate = pin_rate
        self.barrier_shades = 0

    def allocate(self, sizes, births, deaths):
        sizes, births, deaths = cohort_columns(sizes, births, deaths)
        addrs, fits = cell_prefix(self._space, sizes)
        handles = self._place(sizes, deaths, SPACE_DEFAULT, addrs, True)
        self._objects.extend(handles)
        if not fits:
            raise SpaceExhausted("no free cell", allocated=handles)
        return handles

    def record_mutation(self, young_obj):
        """Snapshot barrier: shade the stored-to target gray.  Counted as
        extra marking work in the next cycle."""
        self.barrier_shades += 1

    def collect(self, roots, now):
        """Run a complete mark/sweep cycle (all increments)."""
        table = self.table
        rng = self.rng
        used_before = self._space.used_bytes
        live, live_bytes, edges = trace_closure(table, roots.live_objects())
        marked = marks(table, live)

        # Conservative retention: previously pinned dead objects may be
        # released this cycle (one draw each, in pin order); newly dead
        # objects may be pinned (one draw per never-pinned dead object,
        # in allocation order).
        pinned = np.asarray(self._pinned, dtype=np.int64)
        if len(pinned):
            pinned = pinned[rng.random(len(pinned)) >= PIN_RELEASE_RATE]
        objects = np.asarray(self._objects, dtype=np.int64)
        survive = marked[objects]
        retained = marks(table, pinned)[objects] & ~survive
        candidates = ~survive & ~retained & ~table.pinned[objects]
        newly = np.zeros(len(objects), dtype=bool)
        count = int(candidates.sum())
        if count:
            newly[candidates] = rng.random(count) < self.pin_rate
        table.pinned[objects[newly]] = True
        table.age[objects[survive]] += 1
        keep = survive | retained | newly
        pinned_bytes = int(table.size[objects[retained | newly]].sum())
        freed = free_cells(self._space, table, objects[~keep])
        self._objects = objects[keep].tolist()
        still_pinned = np.concatenate((pinned, objects[newly]))
        self._pinned = still_pinned[~marked[still_pinned]].tolist()

        # Barrier-shaded targets add trace work (they were re-scanned).
        shade_work = self.barrier_shades
        self.barrier_shades = 0
        traced = int(live_bytes * TRICOLOR_OVERHEAD) + shade_work * 64

        report = CollectionReport(
            kind="full",
            collector=self.name,
            traced_bytes=traced,
            traced_objects=len(live),
            edges=edges + shade_work,
            copied_bytes=0,
            swept_bytes=self._space.swept_extent_bytes,
            freed_bytes=freed,
            live_bytes_after=live_bytes + pinned_bytes,
            nepotism_bytes=pinned_bytes,
            footprint_bytes=used_before,
        )
        self.stats.absorb(report)
        return [report]

    def held_handles(self):
        return (self._objects, self._pinned)

    def remap(self, mapping):
        self._objects = mapping[self._objects].tolist()
        self._pinned = mapping[self._pinned].tolist()

    def used_bytes(self):
        return self._space.used_bytes

    def usable_heap_bytes(self):
        return self._space.capacity_bytes

    @property
    def conservatively_retained_bytes(self):
        """Bytes currently retained only because of conservative pinning."""
        return int(self.table.size[self._pinned].sum())
