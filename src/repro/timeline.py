"""Ground-truth execution timeline.

A VM run produces an :class:`ExecutionTimeline`: an ordered, gap-free
sequence of execution segments, each describing an interval of CPU
cycles during which exactly one JVM component was executing, together with
the microarchitectural activity (instructions, cache behavior) and the
power draw the hardware model computed for that interval.

Cycles vs wall time: segments are accounted in *core cycles*; the wall
duration of a segment depends on the clock actually delivered while it ran
(DVFS operating point, thermal-throttle duty cycle).  The scheduler stamps
each segment with its wall duration (``wall_s``); when absent, the nominal
clock is used.

Storage is structure-of-arrays: the timeline grows preallocated NumPy
column buffers (amortized doubling), so appending a segment is a handful
of array stores and appending a whole *batch* of segments (the vectorized
execution engine's unit of work) is a handful of slice assignments.
:class:`Segment` objects are materialized lazily, only when somebody
iterates the timeline; the measurement infrastructure reads the columns
directly through :meth:`to_arrays` with no per-segment object round-trip.

The timeline is the *ground truth* that the simulated measurement
infrastructure (:mod:`repro.measurement`) observes imperfectly — through a
40 microsecond DAQ window, sensor noise, and timer-driven HPM sampling —
exactly as the paper's physical infrastructure observed the real machines.
Keeping ground truth and measurement separate lets the test suite quantify
attribution error, something the paper could only argue qualitatively.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import TimelineError
from repro.reduce import group_indices, weighted_sum


@dataclass
class Segment:
    """One contiguous interval of execution by a single component.

    Cycle bounds are half-open: ``[start_cycle, end_cycle)``.

    ``cpu_power_w`` / ``mem_power_w`` are the average draws over the
    segment as computed by the platform power model; the DAQ adds
    sampling-window effects and sensor noise on top when the segment is
    "measured".
    """

    start_cycle: int
    end_cycle: int
    component: int
    instructions: int = 0
    l2_accesses: int = 0
    l2_misses: int = 0
    mem_accesses: int = 0
    cpu_power_w: float = 0.0
    mem_power_w: float = 0.0
    wall_s: Optional[float] = None
    tag: str = ""

    @property
    def cycles(self):
        """Number of core cycles covered by this segment."""
        return self.end_cycle - self.start_cycle

    @property
    def ipc(self):
        """Instructions per cycle achieved during the segment."""
        if self.cycles <= 0:
            return 0.0
        return self.instructions / self.cycles

    @property
    def l2_miss_rate(self):
        """L2 misses per L2 access (0.0 when the segment made none)."""
        if self.l2_accesses <= 0:
            return 0.0
        return self.l2_misses / self.l2_accesses

    def duration_s(self, clock_hz):
        """Wall-clock duration; prefers the stamped wall time."""
        if self.wall_s is not None:
            return self.wall_s
        return self.cycles / float(clock_hz)

    def cpu_energy_j(self, clock_hz):
        """CPU energy consumed during the segment."""
        return self.cpu_power_w * self.duration_s(clock_hz)

    def mem_energy_j(self, clock_hz):
        """Main-memory energy consumed during the segment."""
        return self.mem_power_w * self.duration_s(clock_hz)


@dataclass
class TimelineArrays:
    """Vectorized (NumPy) view of a timeline, used by the samplers.

    ``starts_s`` / ``ends_s`` are wall-time segment bounds (seconds from
    run start) and ``durations_s`` the stored per-segment wall times
    they accumulate; the cycle bounds are retained for counter work.  The
    arrays are read-only views into the timeline's column buffers — do
    not mutate them.
    """

    starts_s: np.ndarray
    ends_s: np.ndarray
    durations_s: np.ndarray
    start_cycles: np.ndarray
    end_cycles: np.ndarray
    components: np.ndarray
    cpu_power: np.ndarray
    mem_power: np.ndarray
    instructions: np.ndarray
    l2_accesses: np.ndarray
    l2_misses: np.ndarray
    mem_accesses: np.ndarray
    clock_hz: float


#: Initial column-buffer capacity (segments); doubled on exhaustion.
_INITIAL_CAPACITY = 1024

#: Schema tag on :meth:`ExecutionTimeline.to_columns` snapshots.
COLUMNS_SCHEMA = "repro-timeline-columns-v1"


class ExecutionTimeline:
    """Append-only, gap-free sequence of execution segments.

    Segments must be appended in execution order; each segment must begin
    exactly where the previous one ended (in cycles).  The VM guarantees
    this by routing every emitted segment through :meth:`append` or
    :meth:`append_batch`.
    """

    def __init__(self, clock_hz):
        if clock_hz <= 0:
            raise TimelineError(f"clock_hz must be positive, got {clock_hz}")
        self.clock_hz = float(clock_hz)
        self._n = 0
        self._alloc(_INITIAL_CAPACITY)
        self._tags = []
        # duration_s and to_arrays() both derive from the _duration
        # column, so the scalar total and the vectorized cumulative sum
        # cannot drift apart over long timelines.
        self._total_s = None   # lazily recomputed fsum cache
        self._ends_s = None    # lazily recomputed cumsum cache

    def _alloc(self, capacity):
        self._start_cycle = np.empty(capacity, dtype=np.int64)
        self._end_cycle = np.empty(capacity, dtype=np.int64)
        self._component = np.empty(capacity, dtype=np.int16)
        self._instructions = np.empty(capacity, dtype=np.int64)
        self._l2_accesses = np.empty(capacity, dtype=np.int64)
        self._l2_misses = np.empty(capacity, dtype=np.int64)
        self._mem_accesses = np.empty(capacity, dtype=np.int64)
        self._cpu_power = np.empty(capacity, dtype=np.float64)
        self._mem_power = np.empty(capacity, dtype=np.float64)
        self._duration = np.empty(capacity, dtype=np.float64)

    @property
    def _capacity(self):
        return len(self._start_cycle)

    def _columns(self):
        return (
            "_start_cycle", "_end_cycle", "_component", "_instructions",
            "_l2_accesses", "_l2_misses", "_mem_accesses", "_cpu_power",
            "_mem_power", "_duration",
        )

    def _grow(self, needed):
        capacity = self._capacity
        while capacity < needed:
            capacity *= 2
        for name in self._columns():
            old = getattr(self, name)
            new = np.empty(capacity, dtype=old.dtype)
            new[: self._n] = old[: self._n]
            setattr(self, name, new)

    def __len__(self):
        return self._n

    def __iter__(self):
        for i in range(self._n):
            yield self.segment(i)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self.segment(i)
                    for i in range(*index.indices(self._n))]
        if index < 0:
            index += self._n
        if not (0 <= index < self._n):
            raise IndexError("segment index out of range")
        return self.segment(index)

    def segment(self, i):
        """Materialize the *i*-th segment as a :class:`Segment` view.

        The returned object is a copy of the stored row; mutating it does
        not write back.  ``wall_s`` always carries the stored per-segment
        wall duration.
        """
        return Segment(
            start_cycle=int(self._start_cycle[i]),
            end_cycle=int(self._end_cycle[i]),
            component=int(self._component[i]),
            instructions=int(self._instructions[i]),
            l2_accesses=int(self._l2_accesses[i]),
            l2_misses=int(self._l2_misses[i]),
            mem_accesses=int(self._mem_accesses[i]),
            cpu_power_w=float(self._cpu_power[i]),
            mem_power_w=float(self._mem_power[i]),
            wall_s=float(self._duration[i]),
            tag=self._tags[i],
        )

    @property
    def segments(self):
        """Materialized list of all segments (do not mutate)."""
        return [self.segment(i) for i in range(self._n)]

    @property
    def tags(self):
        """Per-segment tag strings (do not mutate)."""
        return self._tags

    def append(self, segment):
        """Append *segment*, enforcing contiguity and ordering."""
        if segment.end_cycle < segment.start_cycle:
            raise TimelineError(
                f"segment ends before it starts: {segment.start_cycle}.."
                f"{segment.end_cycle}"
            )
        if self._n:
            prev_end = self._end_cycle[self._n - 1]
            if segment.start_cycle != prev_end:
                raise TimelineError(
                    f"segment starts at cycle {segment.start_cycle}, "
                    f"expected {prev_end} (timelines must be gap-free)"
                )
        if segment.cycles == 0:
            return  # zero-length segments carry no energy or time
        n = self._n
        if n + 1 > self._capacity:
            self._grow(n + 1)
        self._start_cycle[n] = segment.start_cycle
        self._end_cycle[n] = segment.end_cycle
        self._component[n] = segment.component
        self._instructions[n] = segment.instructions
        self._l2_accesses[n] = segment.l2_accesses
        self._l2_misses[n] = segment.l2_misses
        self._mem_accesses[n] = segment.mem_accesses
        self._cpu_power[n] = segment.cpu_power_w
        self._mem_power[n] = segment.mem_power_w
        self._duration[n] = segment.duration_s(self.clock_hz)
        self._tags.append(segment.tag)
        self._n = n + 1
        self._total_s = None
        self._ends_s = None

    def append_batch(self, start_cycles, end_cycles, component,
                     instructions, l2_accesses, l2_misses, mem_accesses,
                     cpu_power, mem_power, durations, tag="", tags=None):
        """Append a contiguous run of segments from column arrays.

        All array arguments must have the same length; ``component`` is
        one component per row, or a scalar shared by the whole batch.
        ``tag`` is shared by every row (the chunks of one activity),
        unless ``tags`` gives one tag per row (a run of activities).
        The batch must be internally contiguous and start where the
        timeline currently ends.
        """
        k = len(start_cycles)
        if k == 0:
            return
        if tags is not None and len(tags) != k:
            raise TimelineError(
                f"batch has {len(tags)} tags for {k} segments"
            )
        if self._n and int(start_cycles[0]) != int(
                self._end_cycle[self._n - 1]):
            raise TimelineError(
                f"batch starts at cycle {int(start_cycles[0])}, expected "
                f"{int(self._end_cycle[self._n - 1])} (timelines must be "
                f"gap-free)"
            )
        cycles = np.asarray(end_cycles) - np.asarray(start_cycles)
        if (cycles <= 0).any():
            raise TimelineError(
                "batch contains a zero or negative length segment"
            )
        if k > 1 and (start_cycles[1:] != end_cycles[:-1]).any():
            raise TimelineError("batch is not internally contiguous")
        n = self._n
        if n + k > self._capacity:
            self._grow(n + k)
        sl = slice(n, n + k)
        self._start_cycle[sl] = start_cycles
        self._end_cycle[sl] = end_cycles
        self._component[sl] = component
        self._instructions[sl] = instructions
        self._l2_accesses[sl] = l2_accesses
        self._l2_misses[sl] = l2_misses
        self._mem_accesses[sl] = mem_accesses
        self._cpu_power[sl] = cpu_power
        self._mem_power[sl] = mem_power
        self._duration[sl] = durations
        self._tags.extend([tag] * k if tags is None else tags)
        self._n = n + k
        self._total_s = None
        self._ends_s = None

    @property
    def start_cycle(self):
        return int(self._start_cycle[0]) if self._n else 0

    @property
    def end_cycle(self):
        return int(self._end_cycle[self._n - 1]) if self._n else 0

    @property
    def total_cycles(self):
        return self.end_cycle - self.start_cycle

    @property
    def duration_s(self):
        """Total wall-clock duration covered by the timeline.

        Computed as an exactly rounded sum (:func:`math.fsum`) over the
        same per-segment durations that :meth:`to_arrays` accumulates,
        so the two stay in agreement even for very long timelines where
        naive incremental accumulation drifts.
        """
        if self._total_s is None:
            self._total_s = math.fsum(self._duration[: self._n])
        return self._total_s

    def _component_sums(self, values, weights=None):
        """Per-component sums of *values* (times *weights*), in ID
        order."""
        n = self._n
        weights = None if weights is None else weights[:n]
        return {
            cid: weighted_sum(values[:n], weights, idx)
            for cid, idx in group_indices(self._component[:n])
        }

    def component_cycles(self):
        """Ground-truth cycles per component ID, as a dict."""
        cycles = self._end_cycle[: self._n] - self._start_cycle[: self._n]
        return {
            cid: int(v) for cid, v in self._component_sums(cycles).items()
        }

    def component_seconds(self):
        """Ground-truth wall seconds per component ID."""
        return self._component_sums(self._duration)

    def component_instructions(self):
        """Ground-truth retired instructions per component ID."""
        return {
            cid: int(v)
            for cid, v in self._component_sums(self._instructions).items()
        }

    def cpu_energy_j(self):
        """Ground-truth total CPU energy over the timeline."""
        n = self._n
        return weighted_sum(self._cpu_power[:n], self._duration[:n])

    def mem_energy_j(self):
        """Ground-truth total main-memory energy over the timeline."""
        n = self._n
        return weighted_sum(self._mem_power[:n], self._duration[:n])

    def component_cpu_energy_j(self):
        """Ground-truth CPU energy per component ID."""
        return self._component_sums(self._cpu_power, self._duration)

    def to_arrays(self):
        """Return a :class:`TimelineArrays` vectorized view for samplers.

        This is zero-copy for the per-segment columns (read-only views of
        the live buffers); only the cumulative wall-time bounds are
        computed, and those are cached between appends.
        """
        if not self._n:
            raise TimelineError("cannot vectorize an empty timeline")
        n = self._n
        if self._ends_s is None or len(self._ends_s) != n:
            self._ends_s = np.cumsum(self._duration[:n])
        durations = self._duration[:n]
        return TimelineArrays(
            starts_s=self._ends_s - durations,
            ends_s=self._ends_s,
            durations_s=durations,
            start_cycles=self._start_cycle[:n],
            end_cycles=self._end_cycle[:n],
            components=self._component[:n],
            cpu_power=self._cpu_power[:n],
            mem_power=self._mem_power[:n],
            instructions=self._instructions[:n],
            l2_accesses=self._l2_accesses[:n],
            l2_misses=self._l2_misses[:n],
            mem_accesses=self._mem_accesses[:n],
            clock_hz=self.clock_hz,
        )

    # -- columnar serialization ----------------------------------------

    def to_columns(self):
        """Column snapshot of the timeline for serialization.

        Returns a plain dict — clock, segment count, one trimmed *copy*
        per column buffer (exact dtypes preserved), and the tag list —
        that :meth:`from_columns` reconstructs exactly.  Copies are
        deliberate: a snapshot must not alias the live buffers, which
        keep growing (and get reallocated) as the VM appends.
        """
        n = self._n
        return {
            "schema": COLUMNS_SCHEMA,
            "clock_hz": self.clock_hz,
            "n": n,
            "columns": {
                name: getattr(self, name)[:n].copy()
                for name in self._columns()
            },
            "tags": list(self._tags),
        }

    @classmethod
    def from_columns(cls, data):
        """Rebuild a timeline from a :meth:`to_columns` snapshot.

        The round-trip is exact: every column comes back with the same
        dtype and bit-identical values, so derived quantities
        (``duration_s``, ``to_arrays()`` cumulative bounds, energies)
        are bit-identical too.  Dtype or length mismatches raise
        :class:`~repro.errors.TimelineError` instead of being silently
        coerced — a snapshot that drifted is not a timeline.
        """
        if not isinstance(data, dict):
            raise TimelineError(
                f"timeline snapshot must be a dict, got "
                f"{type(data).__name__}"
            )
        schema = data.get("schema")
        if schema != COLUMNS_SCHEMA:
            raise TimelineError(
                f"unknown timeline snapshot schema {schema!r} "
                f"(expected {COLUMNS_SCHEMA!r})"
            )
        timeline = cls(data["clock_hz"])
        n = int(data["n"])
        if n < 0:
            raise TimelineError(f"negative segment count {n}")
        columns = data.get("columns", {})
        missing = set(timeline._columns()) - set(columns)
        if missing:
            raise TimelineError(
                f"snapshot is missing columns {sorted(missing)}"
            )
        # Keep the initial capacity floor so an empty or tiny restored
        # timeline can still grow by doubling (capacity zero cannot).
        timeline._alloc(max(n, _INITIAL_CAPACITY))
        for name in timeline._columns():
            buf = getattr(timeline, name)
            col = np.asarray(columns[name])
            if col.dtype != buf.dtype:
                raise TimelineError(
                    f"column {name} has dtype {col.dtype}, "
                    f"expected {buf.dtype}"
                )
            if col.shape != (n,):
                raise TimelineError(
                    f"column {name} has shape {col.shape}, "
                    f"expected ({n},)"
                )
            buf[:n] = col
        tags = list(data.get("tags", ()))
        if len(tags) != n:
            raise TimelineError(
                f"snapshot has {len(tags)} tags for {n} segments"
            )
        timeline._n = n
        timeline._tags = tags
        return timeline

    def validate(self):
        """Re-check all invariants over the whole timeline (for tests)."""
        n = self._n
        if n:
            starts = self._start_cycle[:n]
            ends = self._end_cycle[:n]
            if n > 1 and (starts[1:] != ends[:-1]).any():
                bad = int(np.flatnonzero(starts[1:] != ends[:-1])[0])
                raise TimelineError(
                    f"gap or overlap between cycle {int(ends[bad])} and "
                    f"{int(starts[bad + 1])}"
                )
            if (ends <= starts).any():
                raise TimelineError("zero or negative length segment stored")
            if (self._duration[:n] <= 0).any():
                raise TimelineError("segment has non-positive wall time")
            cumulative = float(self.to_arrays().ends_s[-1])
            if not math.isclose(self.duration_s, cumulative,
                                rel_tol=1e-9, abs_tol=1e-12):
                raise TimelineError(
                    f"duration_s ({self.duration_s!r}) disagrees with the "
                    f"cumulative segment sum ({cumulative!r})"
                )
            if len(self._tags) != n:
                raise TimelineError("tag column out of sync")
        return True
