"""Timer-driven hardware-performance-monitor sampling.

"Our system performance measurements are obtained using the processor's
hardware performance monitors (HPM) ... the operating system's main timer
is responsible for taking periodic samples (every 1 ms in our P6 platform
and 10 ms in the DBPXA255) of anything that is running on the processor.
We keep track of JVM component execution by placing a system call at the
start of the JVM component that informs the OS what JVM component is
currently executing." (Section IV-E)

The sampler reads the free-running counters at every timer tick and
attributes the delta since the previous tick to the component that was
executing *at the tick* — the same last-sample-wins attribution as the
real OS-timer scheme, with the same error character for components
shorter than the timer period.
"""

import numpy as np

from repro.errors import MeasurementError
from repro.measurement.traces import PerfTrace
from repro.obs import NULL_OBS
from repro.reduce import group_indices, weighted_sum


class HPMSampler:
    """Samples performance counters along a completed timeline."""

    def __init__(self, platform, period_s=None, obs=None, noise=None):
        self.platform = platform
        self.period_s = period_s or platform.hpm_period_s
        self.obs = obs if obs is not None else NULL_OBS
        # Uncertainty hook: a seeded NoiseModel delays the timer ticks
        # by interrupt latency before the counters are read.  None keeps
        # sampling byte-identical to the hook-free path.
        self.noise = noise
        if self.period_s <= 0:
            raise MeasurementError("HPM period must be positive")

    def sample(self, timeline, port=None):
        """Produce a :class:`PerfTrace` for a completed run."""
        if port is None:
            port = self.platform.port
        arrays = timeline.to_arrays()
        duration = float(arrays.ends_s[-1])
        # Same relative tolerance as the DAQ: a run of N periods whose
        # float duration lands ulps below N * period still yields N
        # ticks instead of rejecting (N == 1) or dropping the last one.
        ratio = duration / self.period_s
        n = int(ratio * (1.0 + 1e-9) + 1e-9)
        if n < 1:
            raise MeasurementError("run shorter than one HPM period")
        ticks = (np.arange(n + 1, dtype=np.float64)) * self.period_s
        ticks[-1] = min(ticks[-1], duration)
        if self.noise is not None:
            ticks = self.noise.hpm_tick_times(
                ticks, self.period_s, duration
            )

        seg = np.searchsorted(arrays.ends_s, ticks, side="right")
        seg = np.minimum(seg, len(arrays.ends_s) - 1)
        span_s = arrays.ends_s[seg] - arrays.starts_s[seg]
        frac = np.where(
            span_s > 0,
            (ticks - arrays.starts_s[seg]) / np.where(span_s > 0,
                                                      span_s, 1.0),
            0.0,
        )
        frac = np.clip(frac, 0.0, 1.0)

        # Cumulative counters at each tick (linear within segments).
        cum = {}
        for name in ("instructions", "l2_accesses", "l2_misses"):
            per_seg = getattr(arrays, name).astype(np.float64)
            ends = np.cumsum(per_seg)
            starts = ends - per_seg
            cum[name] = starts[seg] + frac * per_seg[seg]
        seg_cycles = (
            arrays.end_cycles - arrays.start_cycles
        ).astype(np.float64)
        cyc_ends = np.cumsum(seg_cycles)
        cyc_starts = cyc_ends - seg_cycles
        cum["cycles"] = cyc_starts[seg] + frac * seg_cycles[seg]

        # Component at each tick, from the port latch (the "system call"
        # view the OS has).
        cycles_at_tick = cum["cycles"].astype(np.int64)
        port_cycles, port_values = port.history_arrays()
        # Ticks before the first latch update see the port's idle value.
        # Same guard as the DAQ: an empty latch history attributes every
        # tick to idle instead of crashing on the eagerly-evaluated
        # gather inside ``np.where``.
        idle = np.int16(getattr(port, "idle_value", 0))
        if len(port_values) == 0:
            idx = np.full(n + 1, -1, dtype=np.int64)
            component = np.full(n + 1, idle, dtype=np.int16)
        else:
            idx = np.searchsorted(port_cycles, cycles_at_tick,
                                  side="right") - 1
            component = np.where(
                idx >= 0, port_values[np.maximum(idx, 0)], idle
            ).astype(np.int16)

        # Attribute each inter-tick delta to the component at the tick's
        # *end* (the handler sees who is running when the timer fires).
        comp_of_delta = component[1:]
        counters = ("cycles", "instructions", "l2_accesses", "l2_misses")
        deltas = {name: np.diff(cum[name]) for name in counters}
        out = {"samples": {}, **{name: {} for name in counters}}
        metrics = self.obs.metrics
        if metrics.enabled:
            metrics.counter("hpm.samples").inc(n)
            metrics.counter("hpm.pre_latch_ticks").inc(
                int((idx < 0).sum())
            )
        for cid, idx in group_indices(comp_of_delta):
            out["samples"][cid] = len(idx)
            for name in counters:
                out[name][cid] = weighted_sum(deltas[name], index=idx)
        return PerfTrace(
            sample_period_s=self.period_s,
            n_samples=n,
            component_samples=out["samples"],
            component_cycles=out["cycles"],
            component_instructions=out["instructions"],
            component_l2_accesses=out["l2_accesses"],
            component_l2_misses=out["l2_misses"],
        )
