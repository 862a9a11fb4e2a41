"""The high-speed data acquisition system.

"Once voltage and current consumption are known and sampled every 40 us
(the fastest sampling rate of our digital acquisition system based on the
number of sampling channels used), we multiply these values to obtain
instantaneous power consumption.  At each sampling point we examine the
memory-mapped register and assign the measured power consumption to the
corresponding component.  This approach places a 40 us measurement window
on all power measurements: transient changes inside the 40 us window are
not captured by our system, nor do we keep track of when exactly a
component switch happens." (Section IV-D)

The simulated DAQ reproduces those properties exactly: it samples the
ground-truth timeline at fixed wall-clock instants, reads the power that
was being drawn *at that instant* through the sense-resistor channels
(noise included), and attributes the whole sample to the component ID
latched on the port at that instant.  Component activity shorter than the
sampling window can therefore be missed or misattributed — the same
attribution error the real infrastructure has, and one the test suite
quantifies against ground truth.
"""

import numpy as np

from repro.errors import MeasurementError
from repro.measurement.sense import channels_for
from repro.measurement.traces import PowerTrace
from repro.obs import NULL_OBS
from repro.units import DAQ_SAMPLE_PERIOD_S


def _non_decreasing(values):
    return len(values) < 2 or bool(np.all(values[1:] >= values[:-1]))


def sorted_lookup(table, keys):
    """``np.searchsorted(table, keys, side="right")``, merged when it can.

    When both arrays are non-decreasing, the number of table entries at
    or below ``keys[i]`` only grows with ``i``: entry ``j`` is counted
    from ``first[j]``, the first key ``>= table[j]``, on.  So the answer
    is ``j`` on the run of keys from ``first[j - 1]`` up to ``first[j]``,
    written in one pass over the keys instead of one binary search per
    key (the DAQ has about sixty samples per timeline segment).  Any
    other input (a key out of order, a NaN) takes the binary search, so
    the result is the same either way.
    """
    if not (_non_decreasing(keys) and _non_decreasing(table)):
        return np.searchsorted(table, keys, side="right")
    first = np.searchsorted(keys, table, side="left")
    runs = np.diff(first, prepend=0, append=len(keys))
    return np.repeat(np.arange(len(table) + 1), runs)


class DAQ:
    """Samples power channels plus the component-ID register."""

    def __init__(self, platform, rng, sample_period_s=DAQ_SAMPLE_PERIOD_S,
                 obs=None, noise=None):
        if sample_period_s <= 0:
            raise MeasurementError("sample period must be positive")
        self.platform = platform
        self.sample_period_s = sample_period_s
        self.rng = rng
        self.obs = obs if obs is not None else NULL_OBS
        # ``noise`` is the uncertainty subsystem's hook (a seeded
        # NoiseModel or None): it supplies the sense channels' ADC
        # quantizer and jitters the instants the sample clock actually
        # fires at.  None leaves acquisition byte-identical to the
        # hook-free path.
        self.noise = noise
        adc = noise.quantizer() if noise is not None else None
        self.cpu_channel, self.mem_channel = channels_for(
            platform.name, rng, adc=adc
        )

    def acquire(self, timeline, port=None):
        """Acquire a :class:`PowerTrace` over a completed run.

        ``port`` defaults to the platform's component-ID port (whose latch
        history the VM populated during the run).
        """
        if port is None:
            port = self.platform.port
        arrays = timeline.to_arrays()
        duration = float(arrays.ends_s[-1])
        period = self.sample_period_s
        # Count full windows with a *relative* tolerance: the duration is
        # a cumulative float sum, so a run of exactly N periods can land
        # within a few ulps below N * period.  A fixed absolute epsilon
        # only covers that near N == 1 and rejected runs a hair under
        # one period outright.
        ratio = duration / period
        n_full = int(ratio * (1.0 + 1e-9) + 1e-9)
        if n_full < 1:
            raise MeasurementError(
                "run shorter than one DAQ sample period"
            )
        # Cover the whole run: full windows plus, when the duration is
        # not an exact multiple of the period, one final partial window
        # weighted by its actual width.  Without it up to a full sample
        # window of tail energy is silently discarded.
        # When the count rounded *up* (duration a few ulps under a whole
        # number of periods) the tail comes out slightly negative; treat
        # it as zero rather than emitting a partial window.
        tail_s = duration - n_full * period
        if tail_s <= 1e-6 * period:
            tail_s = 0.0
        n = n_full + (1 if tail_s else 0)
        window_s = np.full(n, period, dtype=np.float64)
        if tail_s:
            window_s[-1] = tail_s
        times = np.cumsum(window_s)
        times -= 0.5 * window_s
        # The instants the DAQ *actually* reads the timeline at: with a
        # noise model attached these carry the sample clock's jitter,
        # while the trace keeps nominal timestamps — the real instrument
        # reports its own clock, not its true fire times.
        if self.noise is not None:
            read_times = self.noise.daq_sample_times(
                times, period, duration
            )
        else:
            read_times = times

        # Locate each sample's segment.  Everything that depends only on
        # the segment is computed once per segment below and gathered
        # per sample; elementwise arithmetic commutes with the gather
        # bit for bit, so ``(P / V)[seg]`` is ``P[seg] / V``.
        seg = sorted_lookup(arrays.ends_s, read_times)
        np.minimum(seg, len(arrays.ends_s) - 1, out=seg)

        # Map sample instants to cycle counts (linear within a segment):
        # frac = (t - start) / span, zero on a segment without wall span.
        span_s = arrays.ends_s - arrays.starts_s
        positive = span_s > 0
        frac = arrays.starts_s[seg]
        np.subtract(read_times, frac, out=frac)
        del read_times
        frac /= np.where(positive, span_s, 1.0)[seg]
        if not positive.all():
            frac[~positive[seg]] = 0.0
        frac *= (arrays.end_cycles - arrays.start_cycles).astype(
            np.float64)[seg]
        frac += arrays.start_cycles.astype(np.float64)[seg]
        cycles = frac.astype(np.int64)
        del frac

        # Read the latched component ID at each cycle count.  Samples
        # taken before the first latch update belong to the port's
        # power-on/idle value, not to whichever component happened to be
        # latched first; so does every sample of a port with an empty
        # history (replayed traces, external port sources).  ``latched``
        # counts the latch updates at or before each sample, and the
        # idle value sits at position 0 of the lookup table.
        port_cycles, port_values = port.history_arrays()
        idle = np.int16(getattr(port, "idle_value", 0))
        latched = sorted_lookup(port_cycles, cycles)
        del cycles
        component = np.concatenate(
            ([idle], port_values)
        ).astype(np.int16)[latched]

        metrics = self.obs.metrics
        if metrics.enabled:
            attributed = int(np.count_nonzero(latched))
            metrics.counter("daq.samples").inc(n)
            metrics.counter("daq.samples_attributed").inc(attributed)
            metrics.counter("daq.samples_pre_latch").inc(n - attributed)
            if tail_s:
                metrics.counter("daq.partial_tail_windows").inc()
        del latched

        # The sense channels read last, once the read instants and cycle
        # counts are gone, so fewer sample-sized arrays live at once.
        cpu = self.cpu_channel.measure(arrays.cpu_power, at=seg)
        mem = self.mem_channel.measure(arrays.mem_power, at=seg)
        self.obs.log.debug(
            "daq.acquired", samples=n,
            sample_period_us=round(1e6 * period, 3),
            duration_s=round(duration, 6),
        )

        return PowerTrace(
            times_s=times,
            cpu_power_w=cpu,
            mem_power_w=mem,
            component=component,
            sample_period_s=self.sample_period_s,
            window_s=window_s,
        )
