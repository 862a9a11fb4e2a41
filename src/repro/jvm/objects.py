"""Simulated heap objects, lifetimes, and the root registry.

**Cohort objects.** Real benchmark runs allocate hundreds of megabytes in
tens of millions of small objects.  To keep tracing and copying costs
faithful while staying tractable, each simulated object is a *cohort*: a
configurable granule of allocation (default 16 KiB) whose constituent real
objects share one lifetime.  All collector work (bytes traced, copied,
swept) is exact in bytes; per-object costs are folded into per-byte
constants using the average real object size.

**The object table.** A run's cohorts live in one :class:`ObjectTable`:
NumPy columns (size, death, space, address, age, pinned) plus one edge
list per row.  A cohort is named by its *handle*, its row index.  Rows
are appended in allocation order, so handle order is allocation order;
:meth:`ObjectTable.compact` drops rows nothing can reach any more and
renumbers the survivors in the same order, so every ordering built on
handles (the root heap's tie-break above all) survives it.

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
import math
from collections import deque
from itertools import repeat
from operator import itemgetter

import numpy as np

from repro.errors import ConfigurationError

#: Space tags (values are arbitrary but stable; used by collectors).
SPACE_DEFAULT = 0
SPACE_NURSERY = 1
SPACE_MATURE = 2

#: Assumed average size of a real Java object inside a cohort, used to
#: convert cohort counts into approximate real-object counts for reporting.
REAL_OBJECT_BYTES = 56

IMMORTAL = math.inf

_second = itemgetter(1)

#: Rows a table may hold before the VM compacts it (at a slice's end);
#: after a compaction the bound is twice the rows kept, at least this.
MIN_COMPACT_ROWS = 2048

#: The table's per-row columns and their types (edges aside).
_COLUMNS = {"size": np.int64, "death": np.float64, "space": np.int8,
            "addr": np.int64, "age": np.int32, "pinned": np.bool_,
            "nrefs": np.int32}


def cohort_columns(sizes, births, deaths):
    """``(sizes, births, deaths)`` as int64/float64 columns, validated.

    Collectors call this before touching an allocator, so a bad request
    raises :class:`ConfigurationError` with no allocation made.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    births = np.asarray(births, dtype=np.float64)
    deaths = np.asarray(deaths, dtype=np.float64)
    if not len(sizes) or not len(sizes) == len(births) == len(deaths):
        raise ConfigurationError("need parallel, non-empty cohort columns")
    if sizes.min() <= 0:
        raise ConfigurationError("object size must be positive")
    if (deaths < births).any():
        raise ConfigurationError("object cannot die before its birth")
    return sizes, births, deaths


class ObjectTable:
    """Every cohort of a run as columns; a handle is a row index.

    ``refs[h]`` holds the targets of *h*'s outgoing edges in creation
    order, -1 marking a slot without one, and ``nrefs[h]`` counts them.
    ``n`` rows are in use and the arrays grow by doubling.  Rows past
    ``n`` are pristine (zero, no edges) except for edges wired ahead for
    the cohorts about to be appended there (see :meth:`reserve`), so
    appending writes only the placement columns.
    """

    def __init__(self):
        self.n = 0
        self.capacity = 0
        self.compact_at = MIN_COMPACT_ROWS
        self._resize(1024, 1)

    def __len__(self):
        return self.n

    def _resize(self, capacity, width):
        """Reallocate for *capacity* rows of *width* edge slots, keeping
        the first ``self.capacity`` rows (all of them, wired-ahead edges
        included)."""
        kept = self.capacity
        for name, dtype in _COLUMNS.items():
            col = np.zeros(capacity, dtype=dtype)
            if kept:
                col[:kept] = getattr(self, name)
            setattr(self, name, col)
        refs = np.full((capacity, width), -1, dtype=np.int32)
        if kept:
            refs[:kept, :self.refs.shape[1]] = self.refs
        self.refs = refs
        self.capacity = capacity

    def reserve(self, rows):
        """Make room for *rows* rows, so edges can be wired into rows
        not appended yet."""
        if rows > self.capacity:
            capacity = self.capacity
            while capacity < rows:
                capacity *= 2
            self._resize(capacity, self.refs.shape[1])

    def ensure_edge_width(self, width):
        """Make room for *width* edges per row."""
        if width > self.refs.shape[1]:
            self._resize(self.capacity, width)

    def append(self, sizes, deaths, space, addrs):
        """Add one row per cohort; return their handles (a ``range``).

        Columns must come from :func:`cohort_columns`; ``space`` is one
        tag for every row, ``addrs`` their addresses.
        """
        start = self.n
        end = start + len(sizes)
        self.reserve(end)
        self.size[start:end] = sizes
        self.death[start:end] = deaths
        self.space[start:end] = space
        self.addr[start:end] = addrs
        self.n = end
        return range(start, end)

    def new(self, size, birth, death, space=SPACE_DEFAULT):
        """One unplaced cohort (address 0); returns its handle."""
        sizes, _, deaths = cohort_columns([size], [birth], [death])
        return self.append(sizes, deaths, space, 0)[0]

    def add_edge(self, source, target):
        """Append *target* to *source*'s edge list."""
        used = np.flatnonzero(self.refs[source] >= 0)
        slot = int(used[-1]) + 1 if len(used) else 0
        self.ensure_edge_width(slot + 1)
        self.refs[source, slot] = target
        self.nrefs[source] += 1

    def edges(self, handle):
        """*handle*'s edge targets, in creation order."""
        return [t for t in self.refs[handle].tolist() if t >= 0]

    def is_live(self, handle, now):
        """Whether cohort *handle*'s drawn lifetime extends past *now*."""
        return bool(self.death[handle] > now)

    def real_object_count(self, handle):
        """Approximate number of real Java objects in cohort *handle*."""
        return max(1, int(self.size[handle]) // REAL_OBJECT_BYTES)

    def compact(self, keep):
        """Drop every row whose ``keep`` flag is false, in place.

        Kept rows are renumbered in their old order; no row past ``n``
        may hold edges wired ahead.  Returns the old-to-new handle map:
        an int64 array with -1 for dropped rows and one trailing -1, so
        ``mapping[refs]`` keeps edge padding.  Whoever holds handles
        must remap them through it.
        """
        n = self.n
        rows = np.flatnonzero(keep[:n])
        k = len(rows)
        mapping = np.full(n + 1, -1, dtype=np.int64)
        mapping[rows] = np.arange(k, dtype=np.int64)
        for name in _COLUMNS:
            col = getattr(self, name)
            col[:k] = col[rows]
            col[k:n] = 0
        self.refs[:k] = mapping[self.refs[rows]]
        self.refs[k:n] = -1
        self.n = k
        self.compact_at = max(2 * k, MIN_COMPACT_ROWS)
        return mapping


class RootSet:
    """The mutator's root registry.

    Every live object is held by a root (a flat root model: stack and
    static reachability collapsed into one registry).  Handles are
    indexed by death time in a min-heap of ``(death, handle)`` pairs, so
    that :meth:`expire` can drop exactly the objects whose lifetime has
    passed in O(log n) per death; equal deaths order by handle, that is
    by allocation order.  The heap holds exactly the registered objects,
    so it is also the live set, and its list order is the order
    :meth:`live_objects` reports (and collectors trace) them in.
    """

    def __init__(self, table):
        self.table = table
        self._heap = []

    def __len__(self):
        return len(self._heap)

    def __contains__(self, handle):
        return any(entry[1] == handle for entry in self._heap)

    def add(self, handles, deaths=None):
        """Register newly allocated (therefore live) objects, in order.

        ``deaths`` are their death times when the caller has them at
        hand; by default they are read from the table.
        """
        if deaths is None:
            deaths = self.table.death[list(handles)].tolist()
        # One heappush per entry, in order, looped in C.
        deque(map(heapq.heappush, repeat(self._heap), zip(deaths, handles)),
              maxlen=0)

    def expire(self, now):
        """Drop every object whose death time is <= *now*.

        Returns the list of expired handles (the mutator "lets go" of
        them; their memory is reclaimed only when a collector runs).
        """
        heap = self._heap
        pop = heapq.heappop
        expired = []
        keep = expired.append
        while heap and heap[0][0] <= now:
            keep(pop(heap)[1])
        return expired

    def live_objects(self):
        """The currently registered (live) handles, as an int64 array."""
        return np.fromiter(map(_second, self._heap), dtype=np.int64,
                           count=len(self._heap))

    def live_bytes(self):
        """Total bytes currently held by roots."""
        return int(self.table.size[self.live_objects()].sum())

    def remap(self, mapping):
        """Renumber the handles after :meth:`ObjectTable.compact`.

        The map keeps handle order, so the heap's layout stays valid
        and unchanged.
        """
        heap = self._heap
        handles = mapping[self.live_objects()].tolist()
        self._heap = [(entry[0], h) for entry, h in zip(heap, handles)]

    def clear(self):
        self._heap = []


class ReferenceFactory:
    """Creates lifetime-consistent reference edges between objects.

    New objects receive up to ``max_refs`` outgoing edges chosen from a
    bounded window of recently allocated objects, filtered by the
    ``target.death >= source.death`` rule.  The window models the strong
    temporal clustering of real object graphs (objects mostly point to
    near-contemporaries) while keeping edge creation O(1).

    **Draw orbit.** Each edge attempt of an object wired against a
    non-empty window draws one uniform for the edge test and, when the
    test passes (``u < edge_prob``), one for the target: window index
    ``int(u * n)``, 0 being the oldest of the ``n`` window objects.  So
    across objects the uniforms form one stream in which a draw is a
    target draw exactly when the draw just before it is an edge test
    below ``edge_prob``; :meth:`wire` classifies a run of buffered
    uniforms that way in whole-array steps and reproduces the draws of
    one-object-at-a-time wiring exactly.
    """

    def __init__(self, table, rng, max_refs=2, window=64, edge_prob=0.7):
        if window < 1:
            raise ConfigurationError("reference window must be >= 1")
        from repro.randutil import BufferedUniform

        self.table = table
        table.ensure_edge_width(max_refs)
        self.rng = rng
        self._uniform = BufferedUniform(rng)
        self.max_refs = max_refs
        self.window = window
        self.edge_prob = edge_prob
        self.reset()

    def wire(self, handles, deaths):
        """Give new objects outgoing edges and enter them into the window.

        ``handles`` (a ``range`` or int sequence, in allocation order)
        and ``deaths`` (their death times) are wired in order; the
        handles' rows need not be appended yet, only reserved
        (:meth:`ObjectTable.reserve`): wiring writes their edges and
        reads no placement column.  Returns how many were wired: all of
        them, except that wiring stops *before* any object other than
        the first whose edge draws would refill the
        :class:`~repro.randutil.BufferedUniform` block.  So one call
        refills at most once, during its first object, and the caller
        keeps its other draws on the shared generator (the workload's
        and the collector's) in step with the refills by making them
        between calls.
        """
        deaths = np.asarray(deaths, dtype=np.float64)
        total = len(handles)
        done = 0
        while done < total:
            if len(self._recent) < self.window:
                # Warming up: the window size changes per object.
                if done and self._would_refill():
                    break
                self._wire_one(handles[done], deaths[done])
                done += 1
                continue
            wired = self._wire_run(handles[done:], deaths[done:])
            if wired == 0:
                if done:
                    break
                self._wire_one(handles[0], deaths[0])
                done = 1
                continue
            done += wired
            if done < total:
                break   # the next object's draws refill the block
        return done

    def _would_refill(self):
        """Whether wiring one object now would run past the block."""
        if not len(self._recent) or self.max_refs <= 0:
            return False
        uniform = self._uniform
        buf, pos, block = uniform.buf, uniform.pos, uniform.block
        for _ in range(self.max_refs):
            if pos >= block:
                return True
            pos += 1
            if buf[pos - 1] < self.edge_prob:
                if pos >= block:
                    return True
                pos += 1
        return False

    def _wire_one(self, handle, death):
        """Wire one object, drawing inline from the block (a refill goes
        through ``BufferedUniform.next``)."""
        recent, recent_deaths = self._recent, self._recent_deaths
        n = len(recent)
        if n and self.max_refs > 0:
            uniform = self._uniform
            edge_prob = self.edge_prob
            for _ in range(self.max_refs):
                if uniform.pos < uniform.block:
                    u = uniform.buf[uniform.pos]
                    uniform.pos += 1
                else:
                    u = uniform.next()
                if u < edge_prob:
                    if uniform.pos < uniform.block:
                        u = uniform.buf[uniform.pos]
                        uniform.pos += 1
                    else:
                        u = uniform.next()
                    index = int(u * n)
                    target = int(recent[index])
                    if recent_deaths[index] >= death and target != handle:
                        self.table.add_edge(handle, target)
        keep = 1 if n >= self.window else 0
        self._recent = np.append(recent[keep:], handle)
        self._recent_deaths = np.append(recent_deaths[keep:], death)

    def _classify(self):
        """Classify the current block's draws from ``pos`` (an object
        boundary) on: ``(block, tests, passed, picks)``.

        ``tests`` are the positions of the edge tests, ``passed`` flags
        the tests under ``edge_prob``, and ``picks`` reads the draw after
        each test as a window index (its target, when the test passed).
        Draw k is an edge test unless draw k-1 is a passing test: after
        a failing test comes a test, and in a run of passing draws tests
        and target draws alternate.
        """
        uniform = self._uniform
        draws = uniform.array
        pos, block = uniform.pos, uniform.block
        below = draws[pos:] < self.edge_prob
        index = _ROWS[:block - pos, 0]
        # A run starts where the draw before it fails (or at ``pos``).
        restart = np.empty(len(below), dtype=bool)
        restart[0] = True
        np.logical_not(below[:-1], out=restart[1:])
        run_start = np.maximum.accumulate(index * restart)
        tests = np.flatnonzero(((index - run_start) & 1) == 0)
        after = np.minimum(tests + (pos + 1), block - 1)
        picks = (draws[after] * self.window).astype(np.int64)
        self._orbit = (draws, tests + pos, below[tests], picks)
        self._next = (pos, 0)
        return self._orbit

    def _wire_run(self, handles, deaths):
        """Wire the longest prefix of *handles* (consecutive handles)
        whose draws lie in the rest of the current block, in whole-array
        steps; return its length.  Needs a full window (``n == window``
        for every object).
        """
        refs = self.max_refs
        window = self.window
        if refs <= 0:
            self._recent = np.concatenate(
                (self._recent, np.asarray(handles, dtype=np.int64)))[-window:]
            self._recent_deaths = np.concatenate(
                (self._recent_deaths, deaths))[-window:]
            return len(handles)
        uniform = self._uniform
        pos = uniform.pos
        if pos >= uniform.block:
            return 0   # the next draw refills
        orbit = self._orbit
        if orbit is None or orbit[0] is not uniform.array:
            orbit = self._classify()
        _, tests, passed, picks = orbit
        at, first = self._next
        if at != pos:
            first = int(np.searchsorted(tests, pos))
            if first == len(tests) or tests[first] != pos:
                _, tests, passed, picks = self._classify()
                first = 0
        fit = min((len(tests) - first) // refs, len(handles), len(_ROWS))
        if fit:
            last = first + fit * refs - 1
            if passed[last] and tests[last] + 1 >= uniform.block:
                fit -= 1   # its target draw lies past the block
        if not fit:
            return 0
        if not isinstance(handles, range):
            if fit > 1 and handles[fit - 1] - handles[0] != fit - 1:
                # Rows not consecutive: one window step at a time.
                return self._wire_run(handles[:1], deaths[:1])
        start, stop = first, first + fit * refs
        new = np.arange(handles[0], handles[0] + fit, dtype=np.int64)
        sequence = np.concatenate((self._recent, new))
        sequence_deaths = np.concatenate((self._recent_deaths, deaths[:fit]))
        # Object j's window is sequence[j:j + window].
        picked = picks[start:stop].reshape(fit, refs) + _ROWS[:fit]
        edge = (passed[start:stop].reshape(fit, refs)
                & (sequence_deaths[picked] >= deaths[:fit, None]))
        self._add_edges(new, edge, sequence[picked])
        uniform.pos = int(tests[stop - 1]) + 1 + int(passed[stop - 1])
        self._next = (uniform.pos, stop)
        self._recent = sequence[-window:]
        self._recent_deaths = sequence_deaths[-window:]
        return fit

    def _add_edges(self, sources, edge, targets):
        """Give each of the new objects ``sources`` (consecutive
        handles) the targets of its passing attempts, one slot per
        attempt."""
        table = self.table
        rows = slice(int(sources[0]), int(sources[-1]) + 1)
        if table.nrefs[rows].any():
            for source, row, mask in zip(sources.tolist(), targets, edge):
                for target in row[mask].tolist():
                    table.add_edge(source, target)
            return
        table.refs[rows, :edge.shape[1]] = np.where(edge, targets, -1)
        table.nrefs[rows] = edge.sum(axis=1)

    def held_handles(self):
        """The window's handles."""
        return self._recent

    def remap(self, mapping):
        """Renumber the window after :meth:`ObjectTable.compact`."""
        self._recent = mapping[self._recent]

    def reset(self):
        self._recent = np.empty(0, dtype=np.int64)   # oldest first
        self._recent_deaths = np.empty(0)
        self._orbit = None   # the current block, classified
        self._next = (None, 0)   # (pos, its index into the orbit's tests)


#: Row offsets, as a column (``_ROWS[:k]`` is ``arange(k)[:, None]``);
#: one per draw of a block, the most objects one block can wire.
_ROWS = np.arange(4096, dtype=np.int64)[:, None]
_ROWS.flags.writeable = False


def trace_closure(table, roots, include=None):
    """Depth-first trace from *roots* over reference edges.

    Returns ``(visited, live_bytes, edges_traversed)``: the visited
    handles as an int64 array in discovery order — the roots first, in
    their given order (duplicates and roots outside ``include`` dropped),
    then what each root's depth-first walk finds, the last root's walk
    first — their total bytes, and the number of edges looked at (every
    edge of every visited object, whatever its target's space).  This is
    the shared tracing engine used by the mark phases of every
    collector; ``include`` optionally restricts the trace to objects in
    a given space set (used by minor collections).

    When every root's targets are roots already (or excluded) — always
    so for a root set of exactly the live objects, by the edge rule —
    nothing is walked one edge at a time.
    """
    roots = np.asarray(roots, dtype=np.int64)
    space = table.space
    allowed = None
    if include is not None:
        # A lookup column over space tags: true for the included ones.
        allowed = np.zeros(256, dtype=bool)
        allowed[list(include)] = True
        roots = roots[allowed[space[roots]]]
    # One flag past the last row stands for the -1 edge padding.
    marked = np.zeros(table.n + 1, dtype=bool)
    marked[-1] = True
    marked[roots] = True
    if np.count_nonzero(marked) <= len(roots):
        _, first = np.unique(roots, return_index=True)
        roots = roots[np.sort(first)]
    targets = table.refs[roots]
    fresh = ~marked[targets]
    if allowed is not None:
        fresh &= allowed[space[targets]]
    if fresh.any():
        order = roots.tolist()
        refs = table.refs
        for start in np.flatnonzero(fresh.any(axis=1))[::-1].tolist():
            stack = [order[start]]
            while stack:
                handle = stack.pop()
                for target in refs[handle].tolist():
                    if marked[target] or (
                            allowed is not None
                            and not allowed[space[target]]):
                        continue
                    marked[target] = True
                    order.append(target)
                    stack.append(target)
        roots = np.asarray(order, dtype=np.int64)
    live_bytes = int(table.size[roots].sum())
    edges = int(table.nrefs[roots].sum())
    return roots, live_bytes, edges

