"""Allocation-trace record and replay.

GC studies (including the JMTk work behind the paper's collectors)
standardly compare collectors on *identical* allocation streams.  The
default workload generator draws cohorts lazily from distributions, so
two runs with different collectors see the same stream only because
they consume the RNG identically; a recorded trace makes the guarantee
structural and lets a stream be saved, inspected, and replayed.

* :func:`record_trace` samples a benchmark's allocation behavior into
  an :class:`AllocationTrace` (sizes + lifetimes on the allocation
  clock);
* traces round-trip to ``.npz`` files;
* :class:`TraceWorkloadRun` is a drop-in workload whose cohorts replay
  the trace verbatim; VMs accept it directly via
  ``vm.run(trace_run.as_workload())`` semantics (pass the instance to
  ``run``).
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import ConfigurationError
from repro.workloads.generator import WorkloadRun


@dataclass
class AllocationTrace:
    """A recorded allocation stream.

    ``sizes`` are cohort sizes in bytes; ``lifetimes`` are allocation-
    clock lifetimes (``inf`` for immortal cohorts).  Both arrays share
    one index order: the order of allocation.
    """

    benchmark: str
    sizes: np.ndarray
    lifetimes: np.ndarray

    def __post_init__(self):
        if len(self.sizes) != len(self.lifetimes):
            raise ConfigurationError(
                "sizes and lifetimes must be parallel arrays"
            )
        if len(self.sizes) == 0:
            raise ConfigurationError("empty allocation trace")

    @property
    def total_bytes(self):
        return int(self.sizes.sum())

    @property
    def cohort_count(self):
        return len(self.sizes)

    def live_profile(self, points=64):
        """Live bytes at evenly spaced allocation-clock positions —
        the classic 'heap occupancy over time' curve."""
        births = np.cumsum(self.sizes) - self.sizes
        deaths = births + self.lifetimes
        clocks = np.linspace(0, float(self.sizes.sum()), points)
        live = np.empty(points)
        for i, t in enumerate(clocks):
            mask = (births <= t) & (deaths > t)
            live[i] = self.sizes[mask].sum()
        return clocks, live

    def save(self, path):
        """Write the trace to an ``.npz`` file."""
        path = Path(path)
        np.savez_compressed(
            path,
            benchmark=np.array(self.benchmark),
            sizes=self.sizes,
            lifetimes=self.lifetimes,
        )
        return path if path.suffix == ".npz" else path.with_suffix(
            path.suffix + ".npz"
        )

    @classmethod
    def load(cls, path):
        """Load a trace written by :meth:`save`."""
        data = np.load(Path(path), allow_pickle=False)
        return cls(
            benchmark=str(data["benchmark"]),
            sizes=data["sizes"],
            lifetimes=data["lifetimes"],
        )


def record_trace(spec, seed=42, alloc_bytes=None):
    """Sample *spec*'s allocation behavior into a trace.

    By default records the benchmark's full allocation volume.
    """
    rng = np.random.default_rng(seed)
    run = WorkloadRun(spec, rng, n_slices=8)
    target = alloc_bytes or spec.alloc_bytes
    sizes, deaths = run.draw_cohort_batch(0.0, target)
    sizes = np.asarray(sizes, dtype=np.int64)
    births = np.cumsum(sizes) - sizes
    lifetimes = np.asarray(deaths, dtype=np.float64) - births
    return AllocationTrace(
        benchmark=spec.name, sizes=sizes, lifetimes=lifetimes
    )


class TraceWorkloadRun(WorkloadRun):
    """A workload whose allocation stream replays a recorded trace.

    Everything except the cohorts (classes, methods, slices) still
    comes from the spec + seed; the cohorts come from the trace, in
    order, regardless of how the consumer batches its requests — so
    two VMs replaying the same trace allocate byte-identical streams.
    """

    def __init__(self, spec, rng, trace, n_slices=160):
        if trace.total_bytes < spec.alloc_bytes * 0.99:
            raise ConfigurationError(
                "trace is shorter than the spec's allocation volume; "
                "record it with alloc_bytes >= spec.alloc_bytes"
            )
        super().__init__(spec, rng, n_slices=n_slices)
        self.trace = trace
        self._cursor = 0
        self._cumulative = np.cumsum(np.asarray(trace.sizes, dtype=np.int64))

    def draw_cohort_batch(self, now, alloc_bytes):
        if alloc_bytes <= 0:
            return np.empty(0, dtype=np.int64), np.empty(0)
        start = self._cursor
        cumulative = self._cumulative
        before = int(cumulative[start - 1]) if start else 0
        end = int(np.searchsorted(cumulative, before + alloc_bytes)) + 1
        if end > len(cumulative):
            raise ConfigurationError(
                "allocation trace exhausted before the workload "
                "finished"
            )
        self._cursor = end
        sizes = np.asarray(self.trace.sizes[start:end], dtype=np.int64)
        births = now + (cumulative[start:end] - sizes - before)
        return sizes, births + self.trace.lifetimes[start:end]

    @property
    def replayed_bytes(self):
        """Bytes replayed from the trace so far."""
        return int(self.trace.sizes[: self._cursor].sum())
