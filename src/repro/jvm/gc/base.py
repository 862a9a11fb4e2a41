"""Collector interface and shared accounting.

A collector owns the heap's spaces and allocators, and the run's
:class:`~repro.jvm.objects.ObjectTable` (``collector.table``), whose
handles name the cohorts everywhere else.  The VM drives it through a
narrow protocol:

* :meth:`Collector.allocate` — place a batch of new cohorts in order;
  raises :class:`~repro.errors.SpaceExhausted` when a collection is
  needed before the next one;
* :meth:`Collector.collect` — perform the collection(s) required to make
  progress, returning one :class:`CollectionReport` per collection phase
  (a generational collector may report a minor collection followed by a
  full-heap collection);
* :meth:`Collector.record_mutation` — the write-barrier hook, called by
  the VM for tracked pointer stores.

Reports carry the *work done in bytes* (traced, copied, swept) so the
cost model (:mod:`repro.jvm.gc.cost`) can convert collections into
microarchitectural activities.
"""

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.errors import SpaceExhausted
from repro.jvm.objects import ObjectTable


@dataclass
class CollectionReport:
    """What one collection actually did (ground truth, in bytes)."""

    kind: str                 # "minor" or "full"
    collector: str
    traced_bytes: int = 0     # live bytes visited by the trace
    traced_objects: int = 0   # cohorts visited
    edges: int = 0            # reference edges traversed
    copied_bytes: int = 0     # bytes evacuated/promoted
    swept_bytes: int = 0      # address-space extent walked by sweep
    freed_bytes: int = 0      # bytes reclaimed
    live_bytes_after: int = 0
    promoted_bytes: int = 0   # minor collections: bytes tenured
    nepotism_bytes: int = 0   # dead bytes tenured via stale remset entries
    footprint_bytes: int = 0  # data footprint for the cache model

    @property
    def survival_rate(self):
        """Fraction of the collected region that survived."""
        denom = self.freed_bytes + self.copied_bytes
        if self.kind == "full" and self.copied_bytes == 0:
            denom = self.freed_bytes + self.traced_bytes
        if denom <= 0:
            return 0.0
        numer = self.copied_bytes if self.copied_bytes else self.traced_bytes
        return numer / denom


@dataclass
class GCStats:
    """Cumulative collector statistics over a run."""

    collections: int = 0
    minor_collections: int = 0
    full_collections: int = 0
    traced_bytes: int = 0
    copied_bytes: int = 0
    swept_bytes: int = 0
    freed_bytes: int = 0
    promoted_bytes: int = 0
    nepotism_bytes: int = 0
    write_barrier_entries: int = 0

    def absorb(self, report):
        """Fold one :class:`CollectionReport` into the totals."""
        self.collections += 1
        if report.kind == "minor":
            self.minor_collections += 1
        else:
            self.full_collections += 1
        self.traced_bytes += report.traced_bytes
        self.copied_bytes += report.copied_bytes
        self.swept_bytes += report.swept_bytes
        self.freed_bytes += report.freed_bytes
        self.promoted_bytes += report.promoted_bytes
        self.nepotism_bytes += report.nepotism_bytes


class Collector(ABC):
    """Base class for all collectors."""

    #: Paper name ("SemiSpace", "GenMS", ...); set by subclasses.
    name = "abstract"
    #: Whether the collector segregates young from old objects.
    is_generational = False
    #: Additive adjustment to the application's locality parameter.
    #: Copying collectors compact live data, improving mutator locality
    #: (the paper's `_209_db` discussion, Section VI-B); free-list
    #: collectors scatter it slightly.
    mutator_locality_delta = 0.0
    #: Fractional instruction overhead the write barrier imposes on the
    #: mutator (zero for non-generational collectors).
    barrier_overhead = 0.0

    def __init__(self, heap_bytes, rng):
        self.heap_bytes = int(heap_bytes)
        self.rng = rng
        self.stats = GCStats()
        self.table = ObjectTable()

    # -- allocation --------------------------------------------------

    @abstractmethod
    def allocate(self, sizes, births, deaths):
        """Place a batch of new cohorts, in order.

        ``sizes``, ``births`` and ``deaths`` are parallel columns (see
        :func:`~repro.jvm.objects.cohort_columns`).  Returns the handles
        (a ``range``) of a non-empty prefix of the batch; a collector may
        end a batch early, and the caller passes the rest in the next
        call.  Raises :class:`SpaceExhausted` when a collection is needed
        before the next cohort, with ``allocated`` holding the prefix
        placed before it — so one failed request per exhaustion, exactly
        as with one call per cohort.
        """

    def _place(self, sizes, deaths, space, addrs, fits):
        """Enter the placed prefix of a batch (its addresses ``addrs``)
        into the table and return its handles; raise
        :class:`SpaceExhausted` carrying them unless every cohort
        ``fits``."""
        count = len(addrs)
        handles = self.table.append(sizes[:count], deaths[:count], space,
                                    addrs)
        if not fits:
            raise SpaceExhausted("heap space exhausted", allocated=handles)
        return handles

    # -- collection --------------------------------------------------

    @abstractmethod
    def collect(self, roots, now):
        """Collect until allocation can proceed; return list of reports."""

    # -- write barrier ------------------------------------------------

    def record_mutation(self, young_obj):
        """Write-barrier hook for a tracked pointer store whose target is
        the handle *young_obj*.  Non-generational collectors ignore it."""

    # -- object-table compaction --------------------------------------

    def held_handles(self):
        """Arrays of the handles the collector holds (object lists,
        rings, remembered set), which must outlive a table compaction."""
        return ()

    def remembered_handles(self):
        """Handles a later collection traces from whether or not they
        are live (the remembered set's targets)."""
        return ()

    def remap(self, mapping):
        """Renumber held handles after
        :meth:`~repro.jvm.objects.ObjectTable.compact`."""

    # -- adaptive sizing -------------------------------------------------

    #: Whether :meth:`grow` is implemented.
    supports_growth = False

    def grow(self, additional_bytes):
        """Extend the heap at run time (adaptive heap sizing; the
        research direction of the paper's reference [1]).  Collectors
        that cannot grow raise :class:`ConfigurationError`."""
        from repro.errors import ConfigurationError

        raise ConfigurationError(
            f"{self.name} does not support heap growth"
        )

    # -- introspection -------------------------------------------------

    @abstractmethod
    def used_bytes(self):
        """Bytes currently occupied in the collector's spaces."""

    @abstractmethod
    def usable_heap_bytes(self):
        """Bytes of the heap actually available for application data
        (half for semispace disciplines, nearly all for mark-sweep)."""

    def describe(self):
        """One-line human description used in reports."""
        return (
            f"{self.name} (heap {self.heap_bytes // (1024 * 1024)} MB, "
            f"usable {self.usable_heap_bytes() // (1024 * 1024)} MB)"
        )


def bump_prefix(space, sizes):
    """Place the longest prefix of *sizes* that bump *space* fits.

    Returns ``(addrs, fits)``: the prefix's addresses and whether every
    size fit.  A size that does not fit goes to ``space.allocate``,
    which counts the failed request and raises; the exception is
    dropped here (it holds no handles), so no frame keeps it alive.
    """
    addrs = space.allocate_many(sizes)
    if len(addrs) < len(sizes):
        try:
            space.allocate(int(sizes[len(addrs)]))
        except SpaceExhausted:
            return addrs, False
    return addrs, True


def cell_prefix(space, sizes):
    """Free-list counterpart of :func:`bump_prefix`: one
    ``space.allocate`` per size, in order, until one raises."""
    addrs = []
    allocate = space.allocate
    try:
        for size in sizes.tolist():
            addrs.append(allocate(size))
    except SpaceExhausted:
        return addrs, False
    return addrs, True


def free_cells(space, table, handles):
    """Free the cells of *handles* in free-list *space*, in order;
    return the bytes freed."""
    sizes = table.size[handles].tolist()
    free = space.free
    for addr, size in zip(table.addr[handles].tolist(), sizes):
        free(addr, size)
    return sum(sizes)


def marks(table, handles):
    """A boolean column over *table*, true at *handles*."""
    marked = np.zeros(table.n, dtype=bool)
    marked[handles] = True
    return marked
