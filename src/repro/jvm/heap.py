"""Heap spaces and allocators.

Two allocator disciplines, mirroring JMTk (the Jikes RVM memory-management
toolkit the paper's collectors come from, reference [24]):

* :class:`BumpAllocator` — contiguous bump-pointer allocation used by the
  copying spaces (SemiSpace halves, the nursery, GenCopy's mature
  semispaces).  Allocation is a pointer increment; exhaustion is detected
  when the pointer would cross the space limit.

* :class:`FreeListAllocator` — segregated-fit free-list allocation used by
  the mark-sweep spaces.  Objects are carved from size-class cells;
  freeing returns cells to their class's free list.  When the virgin
  region is exhausted, a request may be served from a *larger* class's
  free cell (block recycling, as JMTk reassigns empty blocks between size
  classes); the allocator tracks each live cell's actual size so the
  accounting stays exact.  Fragmentation is observable: bytes lost to
  size-class rounding (``internal_waste_bytes``).
"""

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, SpaceExhausted


@dataclass
class SpaceStats:
    """Cumulative accounting for one heap space."""

    allocations: int = 0
    allocated_bytes: int = 0
    failed_allocations: int = 0


class BumpAllocator:
    """Contiguous bump-pointer allocation over ``[base, base+capacity)``."""

    def __init__(self, capacity_bytes, base_addr=0):
        if capacity_bytes <= 0:
            raise ConfigurationError("space capacity must be positive")
        self.capacity_bytes = int(capacity_bytes)
        self.base_addr = int(base_addr)
        self.cursor = 0
        self.stats = SpaceStats()

    @property
    def used_bytes(self):
        return self.cursor

    @property
    def free_bytes(self):
        return self.capacity_bytes - self.cursor

    def can_allocate(self, size):
        return self.cursor + size <= self.capacity_bytes

    def allocate(self, size):
        """Allocate *size* bytes; return the assigned address.

        Raises :class:`SpaceExhausted` when the space is full — the VM
        catches this and triggers a collection.
        """
        if size <= 0:
            raise ConfigurationError("allocation size must be positive")
        if not self.can_allocate(size):
            self.stats.failed_allocations += 1
            raise SpaceExhausted(
                f"bump space full: {self.cursor}+{size} > "
                f"{self.capacity_bytes}"
            )
        addr = self.base_addr + self.cursor
        self.cursor += int(size)
        self.stats.allocations += 1
        self.stats.allocated_bytes += int(size)
        return addr

    def allocate_many(self, sizes):
        """Bump-allocate the longest prefix of *sizes* (an int64 array of
        positive sizes) that fits; return its addresses.

        One cumulative-sum search instead of one :meth:`allocate` per
        size: the same cursor, addresses and statistics as calling it
        until the first size that does not fit, except that the size
        which does not fit is not counted as a failure (the caller asks
        :meth:`allocate` for it when it needs the failure raised).
        """
        cumulative = np.cumsum(sizes)
        count = int(np.searchsorted(
            cumulative, self.capacity_bytes - self.cursor, side="right"))
        addrs = (self.base_addr + self.cursor) + (
            cumulative[:count] - sizes[:count])
        if count:
            used = int(cumulative[count - 1])
            self.cursor += used
            self.stats.allocations += count
            self.stats.allocated_bytes += used
        return addrs

    def reset(self):
        """Empty the space (after evacuation)."""
        self.cursor = 0

    def grow(self, additional_bytes):
        """Extend the space (adaptive heap sizing)."""
        if additional_bytes < 0:
            raise ConfigurationError("cannot shrink a bump space")
        self.capacity_bytes += int(additional_bytes)


#: Size classes used by the free-list spaces (bytes).  Geometric spacing
#: like JMTk's segregated lists; requests above the largest class go to a
#: large-object path with no rounding loss.
DEFAULT_SIZE_CLASSES = (
    4096,
    8192,
    16384,
    32768,
    65536,
    131072,
    262144,
)


class FreeListAllocator:
    """Segregated-fit free-list space with block recycling."""

    def __init__(self, capacity_bytes, base_addr=0,
                 size_classes=DEFAULT_SIZE_CLASSES):
        if capacity_bytes <= 0:
            raise ConfigurationError("space capacity must be positive")
        self.capacity_bytes = int(capacity_bytes)
        self.base_addr = int(base_addr)
        self.size_classes = tuple(sorted(size_classes))
        self._virgin_cursor = 0
        self._free_cells = {sc: [] for sc in self.size_classes}
        self._free_large = []   # (cell_bytes, addr) of freed large cells
        self._cell_of = {}      # addr -> cell bytes for every live cell
        self.internal_waste_bytes = 0
        self.live_cell_bytes = 0
        self.stats = SpaceStats()

    def _size_class(self, size):
        for sc in self.size_classes:
            if size <= sc:
                return sc
        return None  # large object

    @property
    def used_bytes(self):
        """Bytes held by live cells (unavailable for new allocation)."""
        return self.live_cell_bytes

    @property
    def free_bytes(self):
        virgin = self.capacity_bytes - self._virgin_cursor
        freed = sum(
            sc * len(cells) for sc, cells in self._free_cells.items()
        )
        freed += sum(cell for cell, _ in self._free_large)
        return virgin + freed

    def can_allocate(self, size):
        sc = self._size_class(size)
        if sc is not None and self._free_cells[sc]:
            return True
        if any(cell >= size for cell, _ in self._free_large):
            return True
        need = sc if sc is not None else size
        return self._virgin_cursor + need <= self.capacity_bytes

    def allocate(self, size):
        """Allocate a cell for *size* bytes; return its address."""
        if size <= 0:
            raise ConfigurationError("allocation size must be positive")
        sc = self._size_class(size)
        if sc is not None:
            if self._free_cells[sc]:
                addr = self._free_cells[sc].pop()
                return self._finish(addr, sc, size)
            if self._virgin_cursor + sc <= self.capacity_bytes:
                addr = self.base_addr + self._virgin_cursor
                self._virgin_cursor += sc
                return self._finish(addr, sc, size)
            # Block recycling: serve the request from a larger class's
            # free cell; the extra bytes are internal waste until freed.
            for bigger in self.size_classes:
                if bigger > sc and self._free_cells[bigger]:
                    addr = self._free_cells[bigger].pop()
                    return self._finish(addr, bigger, size)
            for i, (cell, addr) in enumerate(self._free_large):
                if cell >= size:
                    del self._free_large[i]
                    return self._finish(addr, cell, size)
            scavenged = self._scavenge(size)
            if scavenged is not None:
                return scavenged
            self.stats.failed_allocations += 1
            raise SpaceExhausted(
                f"no free cell of class {sc} and virgin space exhausted"
            )
        # Large object path: first fit over freed large cells, splitting
        # off any usable remainder.
        for i, (cell, addr) in enumerate(self._free_large):
            if cell >= size:
                del self._free_large[i]
                leftover = cell - size
                if leftover >= self.size_classes[0]:
                    self._free_large.append((leftover, addr + size))
                    cell = size
                return self._finish(addr, cell, size)
        if self._virgin_cursor + size <= self.capacity_bytes:
            addr = self.base_addr + self._virgin_cursor
            self._virgin_cursor += size
            return self._finish(addr, size, size)
        scavenged = self._scavenge(size)
        if scavenged is not None:
            return scavenged
        self.stats.failed_allocations += 1
        raise SpaceExhausted("large-object allocation failed")

    def _scavenge(self, size):
        """Last-resort allocation by coalescing free cells.

        Models JMTk's block-level recycling: when neither the virgin
        region nor any single free cell can serve a request, wholly free
        blocks are reclaimed and re-carved.  We approximate by merging
        free cells (largest first) into one serving cell; the merged
        extent is returned to the free pool as a single cell when freed.
        Returns ``None`` when even the aggregate free space is too small.
        """
        pool = []
        gathered = 0
        for sc in reversed(self.size_classes):
            cells = self._free_cells[sc]
            while cells and gathered < size:
                pool.append((sc, cells.pop()))
                gathered += sc
        while self._free_large and gathered < size:
            cell, addr = self._free_large.pop()
            pool.append((cell, addr))
            gathered += cell
        if gathered < size:
            # Put everything back; the caller will raise SpaceExhausted.
            for cell, addr in pool:
                if cell in self._free_cells:
                    self._free_cells[cell].append(addr)
                else:
                    self._free_large.append((cell, addr))
            return None
        addr = pool[0][1]
        return self._finish(addr, gathered, size)

    def _finish(self, addr, cell_bytes, size):
        self._cell_of[addr] = cell_bytes
        self.live_cell_bytes += cell_bytes
        self.internal_waste_bytes += cell_bytes - size
        self.stats.allocations += 1
        self.stats.allocated_bytes += size
        return addr

    def free(self, addr, size):
        """Return the cell containing a dead object to its free list."""
        try:
            cell = self._cell_of.pop(addr)
        except KeyError:
            raise ConfigurationError(
                f"free of unallocated address {addr}"
            ) from None
        if cell in self._free_cells:
            self._free_cells[cell].append(addr)
        else:
            self._free_large.append((cell, addr))
        self.live_cell_bytes -= cell
        self.internal_waste_bytes -= cell - size

    def reset(self):
        """Empty the space entirely."""
        self._virgin_cursor = 0
        self._free_cells = {sc: [] for sc in self.size_classes}
        self._free_large = []
        self._cell_of = {}
        self.internal_waste_bytes = 0
        self.live_cell_bytes = 0

    def grow(self, additional_bytes):
        """Extend the space (adaptive heap sizing): new virgin room
        appears past the current capacity."""
        if additional_bytes < 0:
            raise ConfigurationError("cannot shrink a free-list space")
        self.capacity_bytes += int(additional_bytes)

    @property
    def live_cells(self):
        """Number of cells currently handed out."""
        return len(self._cell_of)

    @property
    def swept_extent_bytes(self):
        """Bytes of address space a sweep must walk (virgin high-water)."""
        return self._virgin_cursor
