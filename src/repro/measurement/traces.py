"""Acquired measurement traces and their per-component aggregation.

A :class:`PowerTrace` is what the DAQ produces: one row per 40 us sample
with CPU power, memory power, and the component ID latched on the I/O
port at the sample instant.  A :class:`PerfTrace` is what the HPM sampler
produces: per-sample counter deltas attributed to the component running
at the timer tick.

Both offer the offline analyses the paper's Section VI is built from:
per-component energy, average and peak power, execution-time shares, and
per-component microarchitectural rates (IPC, L2 miss rate).
"""

from dataclasses import dataclass, field

import numpy as np

from repro.errors import MeasurementError
from repro.reduce import group_indices, weighted_sum


@dataclass
class PowerTrace:
    """DAQ output: sampled power channels + component attribution.

    ``window_s`` carries each sample's integration window.  All windows
    span one ``sample_period_s`` except possibly the last: when the run
    is not an exact multiple of the period the DAQ closes the trace with
    a final partial window so no tail energy is lost.
    """

    times_s: np.ndarray
    cpu_power_w: np.ndarray
    mem_power_w: np.ndarray
    component: np.ndarray
    sample_period_s: float
    window_s: np.ndarray = None
    #: ``(component ID, sample indices)`` per component, built once per
    #: trace (see :meth:`_groups`).
    _group_index: list = field(
        default=None, init=False, repr=False, compare=False
    )
    #: Total CPU and memory energy, each summed once per trace (a
    #: campaign's cells share one trace and read its totals many times).
    _totals: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    #: ``(average, peak)`` CPU power per component, reduced once per
    #: trace for the same reason (see :meth:`_component_power`).
    _power_stats: tuple = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        n = len(self.times_s)
        if n == 0:
            raise MeasurementError("empty power trace")
        if self.window_s is None:
            self.window_s = np.full(
                n, self.sample_period_s, dtype=np.float64,
            )
        for name in ("window_s", "cpu_power_w", "mem_power_w",
                     "component"):
            if len(getattr(self, name)) != n:
                raise MeasurementError(
                    f"{name} and times_s lengths disagree"
                )

    @property
    def n_samples(self):
        return len(self.times_s)

    # -- export views --------------------------------------------------

    @property
    def cpu_power_export_w(self):
        """CPU channel clamped at zero for reporting and plotting.

        The stored samples keep the sense channels' symmetric noise
        (negative excursions included) so energy integrals stay
        unbiased; a physical power can't be negative, so the *reported*
        trace is clamped only at this export boundary.
        """
        return np.maximum(self.cpu_power_w, 0.0)

    @property
    def mem_power_export_w(self):
        """Memory channel clamped at zero for reporting and plotting."""
        return np.maximum(self.mem_power_w, 0.0)

    @property
    def duration_s(self):
        return float(self.window_s.sum())

    def components_present(self):
        """Distinct component IDs observed in the trace."""
        return [cid for cid, _ in self._groups()]

    def _groups(self):
        """``(component ID, sample indices)`` per component present, in
        ID order (:func:`~repro.reduce.group_indices`), built once per
        trace and shared by every per-component reduction."""
        if self._group_index is None:
            self._group_index = group_indices(self.component)
        return self._group_index

    # -- energy ------------------------------------------------------

    def cpu_energy_j(self):
        """Total measured CPU energy (sum of P * dt)."""
        return self._total("cpu", self.cpu_power_w)

    def mem_energy_j(self):
        """Total measured memory energy."""
        return self._total("mem", self.mem_power_w)

    def _total(self, channel, values):
        if channel not in self._totals:
            self._totals[channel] = weighted_sum(values, self.window_s)
        return self._totals[channel]

    def component_cpu_energy_j(self):
        """Measured CPU energy attributed to each component ID."""
        return self._component_sum(self.cpu_power_w)

    def component_mem_energy_j(self):
        """Measured memory energy attributed to each component ID."""
        return self._component_sum(self.mem_power_w)

    def _component_sum(self, values):
        return {
            cid: weighted_sum(values, self.window_s, idx)
            for cid, idx in self._groups()
        }

    # -- power -----------------------------------------------------------

    def component_avg_power_w(self):
        """Average CPU power per component (mean over its samples)."""
        return dict(self._component_power()[0])

    def component_peak_power_w(self):
        """Peak CPU power per component (max over its samples)."""
        return dict(self._component_power()[1])

    def _component_power(self):
        """Both per-component CPU power reductions, from one gather of
        each component's samples, computed once per trace."""
        if self._power_stats is None:
            avg, peak = {}, {}
            for cid, idx in self._groups():
                values = self.cpu_power_w[idx]
                avg[cid] = float(values.mean())
                peak[cid] = float(values.max())
            self._power_stats = (avg, peak)
        return self._power_stats

    def avg_power_w(self):
        return float(self.cpu_power_w.mean())

    def peak_power_w(self):
        return float(self.cpu_power_w.max())

    # -- time --------------------------------------------------------------

    def component_seconds(self):
        """Wall time attributed to each component."""
        return {
            cid: weighted_sum(self.window_s, index=idx)
            for cid, idx in self._groups()
        }


@dataclass
class PerfTrace:
    """HPM sampler output, already aggregated per component."""

    sample_period_s: float
    n_samples: int
    component_samples: dict     # cid -> tick count
    component_cycles: dict      # cid -> cycles
    component_instructions: dict
    component_l2_accesses: dict
    component_l2_misses: dict

    def component_ipc(self):
        """Measured IPC per component."""
        out = {}
        for cid, cycles in self.component_cycles.items():
            instr = self.component_instructions.get(cid, 0)
            out[cid] = instr / cycles if cycles > 0 else 0.0
        return out

    def component_l2_miss_rate(self):
        """Measured L2 miss rate per component."""
        out = {}
        for cid, acc in self.component_l2_accesses.items():
            miss = self.component_l2_misses.get(cid, 0)
            out[cid] = miss / acc if acc > 0 else 0.0
        return out

    def component_time_share(self):
        """Fraction of timer ticks landing in each component."""
        total = sum(self.component_samples.values())
        if total == 0:
            raise MeasurementError("perf trace contains no samples")
        return {
            cid: n / total for cid, n in self.component_samples.items()
        }
