"""Mark-and-sweep collector.

Objects are allocated from segregated free lists of fixed-size cells
(Section III-B) and are never moved.  Collection marks the transitive
closure of the roots and sweeps the occupied extent of the space,
returning dead cells to their free lists.  Nearly the whole heap is usable
for application data — the reason the paper finds non-generational
mark-sweep competitive with the copying disciplines at large heaps — but
the lack of compaction costs the mutator a little locality.
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

#: Fraction of the heap consumed by free-list/side metadata.
METADATA_FRACTION = 0.05


class MarkSweep(Collector):
    """Non-moving mark-sweep collector over a segregated free list."""

    name = "MarkSweep"
    is_generational = False
    #: Free-list allocation scatters contemporaneous objects.
    mutator_locality_delta = -0.01
    barrier_overhead = 0.0

    def __init__(self, heap_bytes, rng):
        super().__init__(heap_bytes, rng)
        usable = int(heap_bytes * (1.0 - METADATA_FRACTION))
        self._space = FreeListAllocator(usable)
        self._objects = []

    def allocate(self, sizes, births, deaths):
        sizes, births, deaths = cohort_columns(sizes, births, deaths)
        addrs, fits = cell_prefix(self._space, sizes)
        handles = self._place(sizes, deaths, SPACE_DEFAULT, addrs, True)
        self._objects.extend(handles)
        if not fits:
            raise SpaceExhausted("no free cell", allocated=handles)
        return handles

    def collect(self, roots, now):
        """Mark from the roots, then sweep the occupied extent."""
        table = self.table
        used_before = self._space.used_bytes
        live, live_bytes, edges = trace_closure(table, roots.live_objects())

        objects = np.asarray(self._objects, dtype=np.int64)
        survive = marks(table, live)[objects]
        table.age[objects[survive]] += 1
        freed = free_cells(self._space, table, objects[~survive])
        self._objects = objects[survive].tolist()

        report = CollectionReport(
            kind="full",
            collector=self.name,
            traced_bytes=live_bytes,
            traced_objects=len(live),
            edges=edges,
            copied_bytes=0,
            swept_bytes=self._space.swept_extent_bytes,
            freed_bytes=freed,
            live_bytes_after=live_bytes,
            footprint_bytes=used_before,
        )
        self.stats.absorb(report)
        return [report]

    def held_handles(self):
        return (self._objects,)

    def remap(self, mapping):
        self._objects = mapping[self._objects].tolist()

    supports_growth = True

    def grow(self, additional_bytes):
        """Grow the free-list space (less the metadata share)."""
        usable = int(additional_bytes * (1.0 - METADATA_FRACTION))
        self.heap_bytes += int(additional_bytes)
        self._space.grow(usable)

    def used_bytes(self):
        return self._space.used_bytes

    def usable_heap_bytes(self):
        return self._space.capacity_bytes

    @property
    def fragmentation_bytes(self):
        """Bytes lost to size-class rounding (internal fragmentation)."""
        return self._space.internal_waste_bytes
