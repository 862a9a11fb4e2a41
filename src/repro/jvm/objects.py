"""Simulated heap objects, lifetimes, and the root registry.

**Cohort objects.** Real benchmark runs allocate hundreds of megabytes in
tens of millions of small objects.  To keep tracing and copying costs
faithful while staying tractable, each :class:`SimObject` is a *cohort*: a
configurable granule of allocation (default 16 KiB) whose constituent real
objects share one lifetime.  All collector work (bytes traced, copied,
swept) is exact in bytes; per-object costs are folded into per-byte
constants using the average real object size.

**Lifetime-consistent references.** Each object is given a death time on
the allocation clock (total bytes allocated so far — the standard "time"
axis in GC literature).  Reference edges are only created toward targets
that die *no earlier* than the source, and the root registry drops an
object exactly when its death time passes.  Under these two rules, graph
reachability from the roots coincides with the drawn lifetime model:
anything reachable from a live root has a death time at least as late as
the root's, and anything past its death time cannot be reached.  The
collectors therefore perform *real* tracing — the liveness they discover
is genuinely emergent from the object graph.

The single sanctioned violation of the edge rule is the write barrier's
remembered set (see :mod:`repro.jvm.gc.generational`): mutation can
install old-to-young pointers whose targets die before their sources,
producing *nepotism* — dead nursery objects promoted by stale remembered
set entries and reclaimed only at the next full-heap collection, exactly
as in real generational collectors.
"""

import heapq
import itertools
import math

from repro.errors import ConfigurationError

#: Space tags (values are arbitrary but stable; used by collectors).
SPACE_DEFAULT = 0
SPACE_NURSERY = 1
SPACE_MATURE = 2

#: Assumed average size of a real Java object inside a cohort, used to
#: convert cohort counts into approximate real-object counts for reporting.
REAL_OBJECT_BYTES = 56

IMMORTAL = math.inf


class SimObject:
    """One cohort of allocated objects sharing a lifetime.

    ``birth`` and ``death`` are allocation-clock values (bytes allocated
    since the program started).  ``addr`` is a synthetic address assigned
    by the owning allocator and reassigned on copy/compaction; collectors
    use it for locality bookkeeping.  ``refs`` is the outgoing edge list.
    """

    __slots__ = (
        "size",
        "birth",
        "death",
        "space",
        "refs",
        "addr",
        "age",
        "pinned",
    )

    def __init__(self, size, birth, death, space=SPACE_DEFAULT):
        if size <= 0:
            raise ConfigurationError("object size must be positive")
        if death < birth:
            raise ConfigurationError("object cannot die before its birth")
        self.size = int(size)
        self.birth = birth
        self.death = death
        self.space = space
        self.refs = []
        self.addr = 0
        self.age = 0
        self.pinned = False

    @property
    def immortal(self):
        return self.death == IMMORTAL

    def is_live(self, now):
        """Whether the object's drawn lifetime extends past *now*."""
        return self.death > now

    def real_object_count(self):
        """Approximate number of real Java objects in this cohort."""
        return max(1, self.size // REAL_OBJECT_BYTES)

    def __repr__(self):
        return (
            f"SimObject(size={self.size}, birth={self.birth:.0f}, "
            f"death={self.death if self.immortal else round(self.death)}, "
            f"space={self.space})"
        )


class RootSet:
    """The mutator's root registry.

    Every live object is held by a root (a flat root model: stack and
    static reachability collapsed into one registry).  Objects are indexed
    by death time in a min-heap so that :meth:`expire` can drop exactly
    the objects whose lifetime has passed in O(log n) per death.  The
    heap holds exactly the registered objects, so it is also the live
    set.
    """

    def __init__(self):
        self._heap = []
        self._counter = itertools.count()

    def __len__(self):
        return len(self._heap)

    def __contains__(self, obj):
        return any(entry[2] is obj for entry in self._heap)

    def add(self, obj):
        """Register a newly allocated (therefore live) object."""
        heapq.heappush(self._heap, (obj.death, next(self._counter), obj))

    def expire(self, now):
        """Drop every object whose death time is <= *now*.

        Returns the list of expired objects (the mutator "lets go" of
        them; their memory is reclaimed only when a collector runs).
        """
        heap = self._heap
        expired = []
        while heap and heap[0][0] <= now:
            expired.append(heapq.heappop(heap)[2])
        return expired

    def live_objects(self):
        """The currently registered (live) objects, as a list."""
        return [entry[2] for entry in self._heap]

    def live_bytes(self):
        """Total bytes currently held by roots."""
        return sum(entry[2].size for entry in self._heap)

    def clear(self):
        self._heap = []


class ReferenceFactory:
    """Creates lifetime-consistent reference edges between objects.

    New objects receive up to ``max_refs`` outgoing edges chosen from a
    bounded window of recently allocated objects, filtered by the
    ``target.death >= source.death`` rule.  The window models the strong
    temporal clustering of real object graphs (objects mostly point to
    near-contemporaries) while keeping edge creation O(1).

    The window is a list that grows to ``window`` slots and then becomes
    a ring: the newest object overwrites the oldest, and ``_head`` is
    the slot of the oldest one.  Window index ``i`` (0 = oldest) lives
    in slot ``(_head + i) % window``, so draws pick the same objects a
    sliding list would, without copying the window on every object.
    """

    def __init__(self, rng, max_refs=2, window=64, edge_prob=0.7):
        if window < 1:
            raise ConfigurationError("reference window must be >= 1")
        from repro.randutil import BufferedUniform

        self.rng = rng
        self._uniform = BufferedUniform(rng)
        self.max_refs = max_refs
        self.window = window
        self.edge_prob = edge_prob
        self._recent = []
        self._head = 0

    def wire(self, obj):
        """Give *obj* outgoing edges and enter it into the window.

        Each edge attempt draws one uniform for the edge test and, on
        success, one for the target index, inline from the
        :class:`~repro.randutil.BufferedUniform` block (refills go
        through its ``next()``; see its contract).
        """
        recent = self._recent
        n = len(recent)
        head = self._head
        if n and self.max_refs > 0:
            uniform = self._uniform
            buf = uniform.buf
            pos = uniform.pos
            block = uniform.block
            edge_prob = self.edge_prob
            death = obj.death
            for _ in range(self.max_refs):
                if pos < block:
                    u = buf[pos]
                    pos += 1
                else:
                    uniform.pos = pos
                    u = uniform.next()
                    buf, pos = uniform.buf, uniform.pos
                if u < edge_prob:
                    if pos < block:
                        u = buf[pos]
                        pos += 1
                    else:
                        uniform.pos = pos
                        u = uniform.next()
                        buf, pos = uniform.buf, uniform.pos
                    slot = int(u * n) + head
                    target = recent[slot - n if slot >= n else slot]
                    if target.death >= death and target is not obj:
                        obj.refs.append(target)
            uniform.pos = pos
        if n < self.window:
            recent.append(obj)
        else:
            recent[head] = obj
            head += 1
            self._head = 0 if head == n else head

    def reset(self):
        self._recent = []
        self._head = 0


def trace_closure(roots, now=None, include=None):
    """Breadth-first trace from *roots* over reference edges.

    Returns ``(visited_objects, live_bytes, edges_traversed)``.  This is
    the shared tracing engine used by the mark phases of every collector;
    ``include`` optionally restricts the trace to objects in a given space
    set (used by minor collections).
    """
    visited = set()
    order = []
    stack = []
    edges = 0
    for root in roots:
        if include is not None and root.space not in include:
            continue
        if id(root) not in visited:
            visited.add(id(root))
            order.append(root)
            stack.append(root)
    while stack:
        obj = stack.pop()
        for target in obj.refs:
            edges += 1
            if include is not None and target.space not in include:
                continue
            if id(target) not in visited:
                visited.add(id(target))
                order.append(target)
                stack.append(target)
    live_bytes = sum(o.size for o in order)
    return order, live_bytes, edges
