"""Execution accounting: activities -> cycles, IPC, and power.

The VM describes everything it does as :class:`Activity` records
(instruction counts plus memory-reference character).  The
:class:`ExecutionModel` turns each activity into a
:class:`~repro.timeline.Segment`:

1. L2 accesses are the L1 misses (``instructions * refs_per_instr *
   l1_miss_rate``); the L1 miss rate is part of the component's
   fine-grained locality profile.
2. The L2 miss rate comes from the analytic working-set model
   (:class:`~repro.hardware.cache.AnalyticCacheModel`) fed with the
   activity's *actual* footprint (e.g. the live bytes a collection traced).
   On the L2-less PXA255, L1 misses go straight to SDRAM.
3. Stall cycles per instruction follow the classical CPI decomposition,
   attenuated by the core's miss-overlap factor (out-of-order cores hide
   part of the latency; the in-order XScale hides none).
4. Achieved IPC drives the utilization-based power model; memory power
   follows the access rate.

This is the mechanism behind the paper's Section VI-C analysis: the
garbage collector's huge L2 footprints produce ~50 %+ L2 miss rates, long
stalls, low IPC (~0.55) and therefore the *lowest* power of all components
on the Pentium M — while on the PXA255, whose in-order core is cheap to
stall but has no L2 to miss in, the relative ordering inverts.
"""

from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.hardware.cache import AnalyticCacheModel, MemoryBehavior
from repro.timeline import Segment


@dataclass
class Activity:
    """A unit of work to be accounted by the execution model."""

    component: int
    instructions: int
    behavior: MemoryBehavior
    refs_per_instr: float
    l1_miss_rate: float
    mix_factor: float = 1.0
    cpi_scale: float = 1.0
    tag: str = ""

    def __post_init__(self):
        if self.instructions < 0:
            raise ConfigurationError("instruction count cannot be negative")
        if not (0.0 <= self.l1_miss_rate <= 1.0):
            raise ConfigurationError("l1_miss_rate must be in [0, 1]")
        if self.refs_per_instr < 0:
            raise ConfigurationError("refs_per_instr cannot be negative")


@dataclass
class SegmentBatch:
    """Column-oriented output of :meth:`ExecutionModel.run_batch` and
    :meth:`ExecutionModel.run_rows`.

    One row per segment (the chunks of one activity, or a run of rows),
    all costed under one CPU state (DVFS point, throttle duty cycle).
    The scheduler commits a prefix of the batch to the timeline — the
    whole batch normally, a shorter prefix when the thermal model flips
    the throttle latch mid-batch and the remaining rows must be
    re-costed.
    """

    start_cycles: np.ndarray   # int64
    end_cycles: np.ndarray     # int64
    instructions: np.ndarray   # int64 (retired, post-rounding)
    l2_accesses: np.ndarray    # int64
    l2_misses: np.ndarray      # int64
    mem_accesses: np.ndarray   # int64
    cpu_power_w: np.ndarray    # float64
    mem_power_w: np.ndarray    # float64
    durations_s: np.ndarray    # float64 wall time per chunk

    def __len__(self):
        return len(self.start_cycles)

    def __getitem__(self, rows):
        """Rows *rows* (a slice) of every column, as views."""
        return SegmentBatch(*(getattr(self, f.name)[rows]
                              for f in fields(self)))

    @property
    def cycles(self):
        return self.end_cycles - self.start_cycles


#: :class:`ActivityRows` columns that may be given as one value shared
#: by every row, with their dtypes.
_SHARED_COLUMNS = {
    "component": np.int64,
    "hot_bytes": np.int64,
    "locality": np.float64,
    "spatial_factor": np.float64,
    "refs_per_instr": np.float64,
    "l1_miss_rate": np.float64,
    "mix_factor": np.float64,
    "cpi_scale": np.float64,
}


@dataclass
class ActivityRows:
    """Activities as columns, one row per activity.

    Every row has its own component, instruction count, footprint, tag
    and locality profile, so one instance can hold the baseline compile
    of every method of a table or rows of several components.  The
    columns after ``tags`` (and ``component``) may be given as one value
    for every row; they become read-only broadcast columns, which take
    no memory per row.  :meth:`ExecutionModel.cost_rows` costs every
    row at once.
    """

    component: np.ndarray        # int64
    instructions: np.ndarray     # int64, non-negative
    footprint_bytes: np.ndarray  # int64
    tags: np.ndarray             # object (str)
    hot_bytes: np.ndarray        # int64
    locality: np.ndarray         # float64
    spatial_factor: np.ndarray   # float64
    refs_per_instr: np.ndarray   # float64
    l1_miss_rate: np.ndarray     # float64
    mix_factor: np.ndarray = 1.0
    cpi_scale: np.ndarray = 1.0

    def __post_init__(self):
        n = len(self.instructions)
        for name, dtype in _SHARED_COLUMNS.items():
            value = getattr(self, name)
            if not isinstance(value, np.ndarray):
                setattr(self, name, np.broadcast_to(
                    np.asarray(value, dtype=dtype), (n,)))
        if (self.instructions < 0).any():
            raise ConfigurationError("instruction count cannot be negative")

    def __len__(self):
        return len(self.instructions)

    def activity(self, row):
        """Row *row* as an :class:`Activity`."""
        return Activity(
            component=int(self.component[row]),
            instructions=int(self.instructions[row]),
            behavior=MemoryBehavior(
                footprint_bytes=int(self.footprint_bytes[row]),
                hot_bytes=int(self.hot_bytes[row]),
                locality=float(self.locality[row]),
                spatial_factor=float(self.spatial_factor[row]),
            ),
            refs_per_instr=float(self.refs_per_instr[row]),
            l1_miss_rate=float(self.l1_miss_rate[row]),
            mix_factor=float(self.mix_factor[row]),
            cpi_scale=float(self.cpi_scale[row]),
            tag=self.tags[row],
        )


@dataclass
class CostedRows:
    """:class:`ActivityRows` costed by :meth:`ExecutionModel.cost_rows`:
    everything about each row that running it needs and that does not
    depend on the CPU state.

    Each element equals what :meth:`ExecutionModel.cost` gives the
    row's activity, with the IPC replaced by the power model's
    ``u ** gamma`` term.  ``activities`` is the table the rows were
    costed from and ``source`` each row's row of it, so a scheduler can
    re-cost a row longer than one of its chunks chunk by chunk; rows
    joined from several tables have neither.
    """

    component: np.ndarray      # int64
    instructions: np.ndarray   # int64
    tags: np.ndarray           # object (str)
    mix_factor: np.ndarray     # float64
    cycles: np.ndarray         # int64
    l2_accesses: np.ndarray    # float64
    l2_misses: np.ndarray      # float64
    mem_accesses: np.ndarray   # float64
    power_terms: np.ndarray    # float64
    source: Optional[np.ndarray] = None
    activities: Optional[ActivityRows] = None

    def __len__(self):
        return len(self.cycles)

    @classmethod
    def _of(cls, fields):
        """An instance holding *fields* (in field order), taken from
        instances that were built already; skips the dataclass
        constructor, whose cost shows on small streams."""
        rows = object.__new__(cls)
        rows.__dict__.update(zip(_COSTED_FIELDS, fields))
        return rows

    def __getitem__(self, rows):
        """Rows *rows* (a slice or an index array) of every column."""
        columns = self.__dict__
        source = self.source
        return self._of([
            *[columns[name][rows] for name in COSTED_COLUMNS],
            None if source is None else source[rows], self.activities,
        ])

    def activity(self, row):
        """Row *row* as an :class:`Activity`."""
        return self.activities.activity(int(self.source[row]))

    @classmethod
    def concat(cls, parts):
        """The rows of *parts*, in order, as one instance of their
        columns alone."""
        return cls._of([
            *[np.concatenate([p.__dict__[name] for p in parts])
              for name in COSTED_COLUMNS],
            None, None,
        ])


_COSTED_FIELDS = tuple(f.name for f in fields(CostedRows))

#: The columns of :class:`CostedRows` that every row has, in order.
COSTED_COLUMNS = _COSTED_FIELDS[:-2]


class ExecutionModel:
    """Accounts activities into timeline segments for one platform."""

    def __init__(self, cpu, memory_model, power_model):
        self.cpu = cpu
        self.memory_model = memory_model
        self.power_model = power_model
        spec = cpu.spec
        self._l2_model = (
            AnalyticCacheModel(spec.l2.size_bytes) if spec.has_l2 else None
        )

    def cost(self, activity):
        """Compute (cycles, l2_accesses, l2_misses, mem_accesses, ipc) for
        an activity without emitting a segment."""
        spec = self.cpu.spec
        instr = activity.instructions
        l1_misses = instr * activity.refs_per_instr * activity.l1_miss_rate

        if self._l2_model is not None:
            l2_accesses = l1_misses
            l2_miss_rate = self._l2_model.miss_rate(activity.behavior)
            l2_misses = l2_accesses * l2_miss_rate
            mem_accesses = l2_misses
            stall_per_l1_miss = (
                spec.l2.hit_cycles
                + l2_miss_rate * spec.mem_latency_cycles
            )
        else:
            l2_accesses = 0.0
            l2_misses = 0.0
            mem_accesses = l1_misses
            stall_per_l1_miss = spec.mem_latency_cycles

        exposed = 1.0 - spec.miss_overlap
        stall_cpi = (
            activity.refs_per_instr
            * activity.l1_miss_rate
            * stall_per_l1_miss
            * exposed
        )
        cpi = spec.base_cpi * activity.cpi_scale + stall_cpi
        cycles = max(1, int(round(instr * cpi))) if instr > 0 else 0
        ipc = instr / cycles if cycles > 0 else 0.0
        return cycles, l2_accesses, l2_misses, mem_accesses, ipc

    def cost_batch(self, activity, instructions):
        """Vectorized :meth:`cost` over per-chunk instruction counts.

        ``instructions`` is an int array of positive per-chunk counts for
        chunks of the *same* activity.  Returns ``(cycles, l2_accesses,
        l2_misses, mem_accesses, ipc)`` arrays whose elements are
        bit-identical to the scalar method's results.
        """
        l2_miss_rate = (
            self._l2_model.miss_rate(activity.behavior)
            if self._l2_model is not None else None
        )
        return self._cost_columns(
            np.asarray(instructions, dtype=np.float64), l2_miss_rate,
            activity.refs_per_instr, activity.l1_miss_rate,
            activity.cpi_scale,
        )

    def cost_rows(self, rows):
        """Cost every row of an :class:`ActivityRows` in one pass;
        returns :class:`CostedRows`.  The L2 miss rate is computed over
        the footprint and profile columns, so each row's numbers
        (zero cycles for a row with no instructions included) are
        bit-identical to :meth:`cost` of its activity."""
        l2_miss_rate = (
            self._l2_model.miss_rates(
                rows.footprint_bytes, rows.hot_bytes, rows.locality,
                rows.spatial_factor,
            )
            if self._l2_model is not None else None
        )
        cycles, l2_acc, l2_miss, mem_acc, ipc = self._cost_columns(
            rows.instructions.astype(np.float64), l2_miss_rate,
            rows.refs_per_instr, rows.l1_miss_rate, rows.cpi_scale,
        )
        return CostedRows(
            rows.component, rows.instructions, rows.tags, rows.mix_factor,
            cycles, l2_acc, l2_miss, mem_acc,
            self.power_model.utilization_terms(ipc),
            np.arange(len(rows)), rows,
        )

    def _cost_columns(self, instr, l2_miss_rate, refs_per_instr,
                      l1_miss_rate, cpi_scale):
        """:meth:`cost`'s arithmetic over a float64 array of
        non-negative instruction counts; every other argument is a
        scalar or one value per element (``l2_miss_rate`` is ``None``
        without an L2)."""
        spec = self.cpu.spec
        l1_misses = instr * refs_per_instr * l1_miss_rate

        if l2_miss_rate is not None:
            l2_accesses = l1_misses
            l2_misses = l2_accesses * l2_miss_rate
            mem_accesses = l2_misses
            stall_per_l1_miss = (
                spec.l2.hit_cycles
                + l2_miss_rate * spec.mem_latency_cycles
            )
        else:
            l2_accesses = np.zeros_like(instr)
            l2_misses = np.zeros_like(instr)
            mem_accesses = l1_misses
            stall_per_l1_miss = spec.mem_latency_cycles

        exposed = 1.0 - spec.miss_overlap
        stall_cpi = (
            refs_per_instr
            * l1_miss_rate
            * stall_per_l1_miss
            * exposed
        )
        cpi = spec.base_cpi * cpi_scale + stall_cpi
        # At least one cycle, as in cost(); none without instructions.
        cycles = np.maximum(
            instr > 0, np.rint(instr * cpi).astype(np.int64)
        )
        ipc = instr / np.maximum(cycles, 1)
        return cycles, l2_accesses, l2_misses, mem_accesses, ipc

    def run_batch(self, activity, instructions, start_cycle):
        """Cost a run of chunks of *activity* under the CPU's current
        state; returns a :class:`SegmentBatch` starting at
        ``start_cycle``.

        Power and wall time are computed with the duty cycle and DVFS
        point in force *now* — the scheduler is responsible for flushing
        the batch early if the thermal latch flips part-way through.
        """
        instr = np.asarray(instructions, dtype=np.int64)
        cycles, l2_acc, l2_miss, mem_acc, ipc = self.cost_batch(
            activity, instr
        )
        end_cycles = start_cycle + np.cumsum(cycles)
        start_cycles = end_cycles - cycles
        durations = cycles / self.cpu.effective_clock_hz
        cpu_power = self.power_model.power_w_batch(
            ipc,
            mix_factor=activity.mix_factor,
            dvfs=self.cpu.dvfs,
            duty_cycle=self.cpu.duty_cycle,
        )
        mem_power = self.memory_model.power_w_batch(mem_acc, durations)
        return SegmentBatch(
            start_cycles=start_cycles,
            end_cycles=end_cycles,
            instructions=np.rint(instr.astype(np.float64)).astype(
                np.int64
            ),
            l2_accesses=np.rint(l2_acc).astype(np.int64),
            l2_misses=np.rint(l2_miss).astype(np.int64),
            mem_accesses=np.rint(mem_acc).astype(np.int64),
            cpu_power_w=cpu_power,
            mem_power_w=mem_power,
            durations_s=durations,
        )

    def run(self, activity, start_cycle, cost=None):
        """Account *activity* starting at ``start_cycle``; return a
        :class:`~repro.timeline.Segment` (possibly zero-length).

        ``cost`` optionally supplies a precomputed :meth:`cost` tuple for
        *activity* (callers that already costed it to pick a chunk split
        pass it back rather than paying the computation twice)."""
        cycles, l2_acc, l2_miss, mem_acc, ipc = (
            cost if cost is not None else self.cost(activity)
        )
        if cycles == 0:
            return Segment(
                start_cycle=start_cycle,
                end_cycle=start_cycle,
                component=activity.component,
                tag=activity.tag,
            )
        duration_s = cycles / self.cpu.effective_clock_hz
        cpu_power = self.power_model.power_w(
            ipc,
            mix_factor=activity.mix_factor,
            dvfs=self.cpu.dvfs,
            duty_cycle=self.cpu.duty_cycle,
        )
        mem_power = self.memory_model.power_w(mem_acc, duration_s)
        return Segment(
            start_cycle=start_cycle,
            end_cycle=start_cycle + cycles,
            component=activity.component,
            instructions=int(instr_round(activity.instructions)),
            l2_accesses=int(round(l2_acc)),
            l2_misses=int(round(l2_miss)),
            mem_accesses=int(round(mem_acc)),
            cpu_power_w=cpu_power,
            mem_power_w=mem_power,
            tag=activity.tag,
        )

    def run_rows(self, costed, start_cycle):
        """Retire :class:`CostedRows` back to back from ``start_cycle``
        under the CPU's current state; returns a :class:`SegmentBatch`.

        Only wall time and power depend on the state (duty cycle, DVFS
        point); each row is bit-identical to the segment :meth:`run`
        would return for its activity.  As with :meth:`run_batch`, the
        scheduler re-costs the rows after a state flip.
        """
        cycles = costed.cycles
        end_cycles = start_cycle + np.cumsum(cycles)
        durations = cycles / self.cpu.effective_clock_hz
        l2_accesses, l2_misses, mem_accesses = np.rint(np.array(
            (costed.l2_accesses, costed.l2_misses, costed.mem_accesses)
        )).astype(np.int64)
        return SegmentBatch(
            start_cycles=end_cycles - cycles,
            end_cycles=end_cycles,
            instructions=costed.instructions,
            l2_accesses=l2_accesses,
            l2_misses=l2_misses,
            mem_accesses=mem_accesses,
            cpu_power_w=self.power_model.power_w_from_terms(
                costed.power_terms,
                mix_factor=costed.mix_factor,
                dvfs=self.cpu.dvfs,
                duty_cycle=self.cpu.duty_cycle,
            ),
            mem_power_w=self.memory_model.power_w_batch(
                costed.mem_accesses, durations
            ),
            durations_s=durations,
        )

    def idle(self, component, start_cycle, cycles, tag="idle"):
        """An idle interval (idle loop or clock-gated wait)."""
        duration_s = cycles / self.cpu.effective_clock_hz
        return Segment(
            start_cycle=start_cycle,
            end_cycle=start_cycle + int(cycles),
            component=component,
            instructions=0,
            cpu_power_w=self.power_model.idle_power_w(),
            mem_power_w=self.memory_model.power_w(0, duration_s),
            tag=tag,
        )


def instr_round(x):
    """Instruction counts are integers; activities may carry fractional
    bookkeeping values, rounded once at segment boundaries."""
    return int(round(x))
