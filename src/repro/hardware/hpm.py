"""Hardware performance monitors (HPM).

The paper obtains its performance measurements from the processors'
hardware performance counters, read by a custom API driven from the OS
timer (Section IV-E).  This module models the counter hardware itself: a
set of free-running event counters that the execution engine increments as
segments retire, and that software can snapshot.

Platform fidelity: the XScale PMU can monitor only **two** configurable
events at a time (plus the clock counter), whereas the Pentium M exposes
enough counters for our event set; :class:`PerformanceCounters` enforces
the per-platform limit when events are programmed.
"""

import enum
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, MeasurementError


class Event(enum.Enum):
    """Countable microarchitectural events."""

    CYCLES = "cycles"
    INSTRUCTIONS = "instructions"
    L2_ACCESSES = "l2_accesses"
    L2_MISSES = "l2_misses"
    MEM_ACCESSES = "mem_accesses"
    STALL_CYCLES = "stall_cycles"


@dataclass
class CounterSnapshot:
    """Immutable copy of all programmed counters at one instant."""

    cycle: int
    values: dict

    def delta(self, earlier):
        """Per-event difference between this snapshot and an earlier one."""
        return {
            ev: self.values[ev] - earlier.values.get(ev, 0)
            for ev in self.values
        }


#: Event order of the increment tuples that :meth:`record_segment` and
#: :meth:`record_batch` build.
_INCREMENT_ORDER = (
    Event.CYCLES,
    Event.INSTRUCTIONS,
    Event.L2_ACCESSES,
    Event.L2_MISSES,
    Event.MEM_ACCESSES,
    Event.STALL_CYCLES,
)


class PerformanceCounters:
    """A bank of event counters with a platform-specific width limit.

    ``max_programmable`` models counter-register scarcity:  CYCLES is
    always available (dedicated clock counter); every other event consumes
    one programmable register.

    Counts live in a plain list (one slot per distinct programmed event)
    so retiring a segment costs no ``Event`` hashing; snapshots key them
    by event.
    """

    def __init__(self, max_programmable=4):
        if max_programmable < 1:
            raise ConfigurationError("need at least one programmable counter")
        self.max_programmable = max_programmable
        self._set_events([Event.CYCLES])

    def _set_events(self, events):
        self._events = events
        self._keys = list(dict.fromkeys(events))
        self._counts = [0] * len(self._keys)
        # (count slot, increment index) per programmed event, in program
        # order: a repeated event accumulates once per occurrence.
        self._slots = [
            (self._keys.index(ev), _INCREMENT_ORDER.index(ev))
            for ev in events
        ]

    def program(self, events):
        """Select which events (besides CYCLES) are monitored.

        Raises :class:`MeasurementError` if more events are requested than
        the PMU has programmable registers for — the real constraint that
        forces multiplexing on the XScale.
        """
        events = [e for e in events if e is not Event.CYCLES]
        if len(events) > self.max_programmable:
            raise MeasurementError(
                f"PMU has {self.max_programmable} programmable counters; "
                f"{len(events)} events requested"
            )
        self._set_events([Event.CYCLES] + list(events))

    @property
    def programmed_events(self):
        return tuple(self._events)

    def _accumulate(self, increments):
        counts = self._counts
        for slot, index in self._slots:
            counts[slot] += increments[index]

    def record_segment(self, segment):
        """Accumulate a retired execution segment into the counters."""
        cycles = segment.cycles
        instructions = segment.instructions
        self._accumulate((
            cycles,
            instructions,
            segment.l2_accesses,
            segment.l2_misses,
            segment.mem_accesses,
            max(0, cycles - instructions),
        ))

    def record_batch(self, cycles, instructions, l2_accesses, l2_misses,
                     mem_accesses):
        """Accumulate a whole run of retired segments (column arrays).

        Counter increments are integers, so a batched sum is exactly the
        sequence of per-segment :meth:`record_segment` calls.
        """
        self._accumulate((
            int(cycles.sum()),
            int(instructions.sum()),
            int(l2_accesses.sum()),
            int(l2_misses.sum()),
            int(mem_accesses.sum()),
            int(np.maximum(0, cycles - instructions).sum()),
        ))

    def snapshot(self, cycle):
        """Read all programmed counters atomically."""
        return CounterSnapshot(
            cycle=cycle, values=dict(zip(self._keys, self._counts))
        )

    def reset(self):
        self._counts = [0] * len(self._keys)
