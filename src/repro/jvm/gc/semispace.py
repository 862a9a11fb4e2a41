"""SemiSpace copying collector.

The heap is divided into two halves (Section III-B): allocation bumps
through the *from* half; when it fills, live objects are traced from the
roots and copied into the *to* half, and the halves swap roles.  Only half
the heap is ever usable for application data — the discipline the paper
shows being punished at small heap sizes (Figure 7) and rewarded by
compaction-improved mutator locality at large ones (`_209_db`).
"""

from repro.errors import SpaceExhausted
from repro.jvm.gc.base import CollectionReport, Collector, bump_prefix
from repro.jvm.heap import BumpAllocator
from repro.jvm.objects import SPACE_DEFAULT, cohort_columns, trace_closure


class SemiSpace(Collector):
    """Two-space copying collector."""

    name = "SemiSpace"
    is_generational = False
    #: Copying compacts the live set, improving the mutator's locality.
    mutator_locality_delta = 0.02
    barrier_overhead = 0.0

    def __init__(self, heap_bytes, rng):
        super().__init__(heap_bytes, rng)
        half = heap_bytes // 2
        self._halves = (
            BumpAllocator(half, base_addr=0),
            BumpAllocator(half, base_addr=half),
        )
        self._from = 0  # index of the half currently allocated into

    @property
    def from_space(self):
        return self._halves[self._from]

    @property
    def to_space(self):
        return self._halves[1 - self._from]

    def allocate(self, sizes, births, deaths):
        sizes, births, deaths = cohort_columns(sizes, births, deaths)
        return self._place(sizes, deaths, SPACE_DEFAULT,
                           *bump_prefix(self.from_space, sizes))

    def collect(self, roots, now):
        """Trace from the roots and evacuate survivors into to-space."""
        table = self.table
        used_before = self.from_space.used_bytes
        live, live_bytes, edges = trace_closure(table, roots.live_objects())

        to_space = self.to_space
        to_space.reset()
        sizes = table.size[live]
        addrs, fits = bump_prefix(to_space, sizes)
        moved = live[:len(addrs)]
        table.addr[moved] = addrs
        table.age[moved] += 1
        if not fits:
            raise SpaceExhausted("to-space cannot hold the survivors")
        copied = int(sizes.sum())
        self.from_space.reset()
        self._from = 1 - self._from

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
        return [report]

    supports_growth = True

    def grow(self, additional_bytes):
        """Grow both semispaces by half the grant each."""
        half = int(additional_bytes) // 2
        self.heap_bytes += half * 2
        for space in self._halves:
            space.grow(half)

    def used_bytes(self):
        return self.from_space.used_bytes

    def usable_heap_bytes(self):
        return self.heap_bytes // 2
