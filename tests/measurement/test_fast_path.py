"""Bit-for-bit equivalence of the measurement fast path.

The DAQ does per segment whatever depends only on the segment, finds
segments and port latches by merging sorted arrays, and a power trace
groups its samples by component once.  Every test here compares that
path with the straightforward per-sample and per-mask formulas kept in
this file.  Both sides run on the same NumPy, so the pins hold on any
host.
"""

import numpy as np
import pytest

from repro.errors import MeasurementError
from repro.measurement import daq as daq_module
from repro.measurement.daq import DAQ, sorted_lookup
from repro.measurement.noise import ADCQuantizer, NoiseConfig, NoiseModel
from repro.measurement.traces import PowerTrace
from repro.reduce import BLOCK, weighted_sum
from repro.timeline import ExecutionTimeline, Segment

CLOCK = 1.6e9


# -- reference implementations ------------------------------------------

def reference_measure(channel, true_power_w):
    """``SenseChannel.measure`` as one fresh array per step."""
    current_a = true_power_w / channel.rail_voltage_v
    vdrop = current_a * channel._actual_r
    vdrop_read = vdrop + channel.rng.normal(
        0.0, channel.vdrop_noise_v, size=true_power_w.shape
    )
    if channel.adc is not None:
        lsb = channel.adc.lsb_v
        clipped = np.clip(vdrop_read, -channel.adc.range_v,
                          channel.adc.range_v)
        vdrop_read = np.round(clipped / lsb) * lsb
    current_est = vdrop_read / channel.resistor.resistance_ohm
    return channel.rail_voltage_v * current_est


def reference_acquire(daq, timeline, port):
    """``DAQ.acquire`` with a binary search per sample and every
    segment quantity gathered before any arithmetic."""
    arrays = timeline.to_arrays()
    duration = float(arrays.ends_s[-1])
    period = daq.sample_period_s
    n_full = int(duration / period * (1.0 + 1e-9) + 1e-9)
    tail_s = duration - n_full * period
    if tail_s <= 1e-6 * period:
        tail_s = 0.0
    n = n_full + (1 if tail_s else 0)
    window_s = np.full(n, period, dtype=np.float64)
    if tail_s:
        window_s[-1] = tail_s
    times = np.cumsum(window_s) - 0.5 * window_s
    read_times = times
    if daq.noise is not None and daq.noise.config.daq_jitter_frac > 0:
        jitter = daq.noise.rng.normal(
            0.0, daq.noise.config.daq_jitter_frac * period, size=n
        )
        read_times = np.clip(times + jitter, 0.0, duration)

    seg = np.searchsorted(arrays.ends_s, read_times, side="right")
    seg = np.minimum(seg, len(arrays.ends_s) - 1)
    cpu = reference_measure(daq.cpu_channel, arrays.cpu_power[seg])
    mem = reference_measure(daq.mem_channel, arrays.mem_power[seg])

    seg_span_s = arrays.ends_s[seg] - arrays.starts_s[seg]
    seg_span_c = (
        arrays.end_cycles[seg] - arrays.start_cycles[seg]
    ).astype(np.float64)
    frac = np.where(
        seg_span_s > 0,
        (read_times - arrays.starts_s[seg])
        / np.where(seg_span_s > 0, seg_span_s, 1.0),
        0.0,
    )
    cycles = (
        arrays.start_cycles[seg].astype(np.float64) + frac * seg_span_c
    ).astype(np.int64)
    port_cycles, port_values = port.history_arrays()
    idle = np.int16(port.idle_value)
    if len(port_values) == 0:
        component = np.full(n, idle, dtype=np.int16)
    else:
        idx = np.searchsorted(port_cycles, cycles, side="right") - 1
        component = np.where(
            idx >= 0, port_values[np.maximum(idx, 0)], idle
        ).astype(np.int16)
    return {"times_s": times, "window_s": window_s, "cpu_power_w": cpu,
            "mem_power_w": mem, "component": component}


def reference_groups(trace):
    for cid in np.unique(trace.component):
        yield int(cid), trace.component == cid


def reference_reductions(trace):
    groups = list(reference_groups(trace))
    return {
        "present": [cid for cid, _ in groups],
        "cpu_energy": {
            cid: weighted_sum(trace.cpu_power_w[m], trace.window_s[m])
            for cid, m in groups
        },
        "mem_energy": {
            cid: weighted_sum(trace.mem_power_w[m], trace.window_s[m])
            for cid, m in groups
        },
        "seconds": {
            cid: weighted_sum(trace.window_s[m]) for cid, m in groups
        },
        "avg_power": {
            cid: float(trace.cpu_power_w[m].mean()) for cid, m in groups
        },
        "peak_power": {
            cid: float(trace.cpu_power_w[m].max()) for cid, m in groups
        },
    }


def reductions(trace):
    return {
        "present": trace.components_present(),
        "cpu_energy": trace.component_cpu_energy_j(),
        "mem_energy": trace.component_mem_energy_j(),
        "seconds": trace.component_seconds(),
        "avg_power": trace.component_avg_power_w(),
        "peak_power": trace.component_peak_power_w(),
    }


def exact(value):
    """Bit-exact comparison form of floats, dicts of floats and arrays."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, dict):
        return [(k, exact(v)) for k, v in value.items()]
    if isinstance(value, float):
        return value.hex()
    return value


# -- fixtures ------------------------------------------------------------

class HistoryPort:
    """A port given by its latch history arrays."""

    def __init__(self, cycles, values, idle_value=0):
        self.idle_value = idle_value
        self._cycles = np.asarray(cycles, dtype=np.int64)
        self._values = np.asarray(values, dtype=np.int16)

    def history_arrays(self):
        return self._cycles, self._values


def random_run(seed, n_segments=400):
    """A timeline with uneven segments (some with no wall span) and a
    port whose latches fall inside segments, on boundaries, twice on one
    cycle and after a delayed first write."""
    rng = np.random.default_rng(seed)
    timeline = ExecutionTimeline(CLOCK)
    cycle = 0
    for i in range(n_segments):
        cycles = int(rng.integers(2_000, 400_000))
        wall = 0.0 if i % 37 == 5 else cycles / CLOCK * rng.uniform(1, 2)
        timeline.append(Segment(
            start_cycle=cycle, end_cycle=cycle + cycles,
            component=int(rng.integers(0, 6)),
            cpu_power_w=float(rng.uniform(0.05, 20.0)),
            mem_power_w=float(rng.uniform(0.01, 2.0)),
            wall_s=wall,
        ))
        cycle += cycles
    latches = np.sort(rng.integers(cycle // 50, cycle, size=300))
    latches[10] = latches[11]              # two writes on one cycle
    values = rng.integers(-2, 9, size=len(latches))
    return timeline, HistoryPort(latches, values, idle_value=7)


def make_daq(p6, seed, noise_config=None, period=40e-6):
    noise = (NoiseModel.for_seed(noise_config, seed + 1)
             if noise_config is not None else None)
    return DAQ(p6, np.random.default_rng(seed), sample_period_s=period,
               noise=noise)


def assert_acquire_matches(p6, timeline, port, noise_config=None,
                           period=40e-6, seed=11):
    trace = make_daq(p6, seed, noise_config, period).acquire(timeline, port)
    ref = reference_acquire(make_daq(p6, seed, noise_config, period),
                            timeline, port)
    for name, expected in ref.items():
        assert exact(getattr(trace, name)) == exact(expected), name
    return trace


NOISY = NoiseConfig()
ADC_ONLY = NoiseConfig(daq_jitter_frac=0.0, hpm_jitter_frac=0.0)


# -- DAQ -----------------------------------------------------------------

class TestAcquireMatchesReference:
    @pytest.mark.parametrize("noise_config", [None, NOISY, ADC_ONLY],
                             ids=["noise-off", "noise-on", "adc-only"])
    def test_random_run(self, p6, noise_config):
        timeline, port = random_run(3)
        assert_acquire_matches(p6, timeline, port, noise_config)

    @pytest.mark.parametrize("noise_config", [None, NOISY],
                             ids=["noise-off", "noise-on"])
    def test_partial_tail_window(self, p6, noise_config):
        timeline, port = random_run(4, n_segments=50)
        period = 1e-4
        assert timeline.duration_s / period % 1 > 0.01
        trace = assert_acquire_matches(p6, timeline, port, noise_config,
                                       period=period)
        assert trace.window_s[-1] < period

    @pytest.mark.parametrize("noise_config", [None, NOISY],
                             ids=["noise-off", "noise-on"])
    def test_empty_latch_history(self, p6, noise_config):
        timeline, _ = random_run(5, n_segments=60)
        port = HistoryPort([], [], idle_value=9)
        trace = assert_acquire_matches(p6, timeline, port, noise_config)
        assert set(trace.component.tolist()) == {9}

    def test_segments_without_wall_span(self, p6):
        # Reads never land inside a segment of no wall span, except on
        # the last segment, which takes every read at or past its end.
        # Jittered reads clipped to the end of a run whose last segment
        # has negative wall span (its ends out of order, so the binary
        # search answers) sit off that segment's start; their fraction
        # must read as zero.
        timeline = ExecutionTimeline(CLOCK)
        cycle = 0
        for wall in (1e-3, 0.0, 1e-3, 1e-3, -2e-4):
            cycles = 1_000_000
            timeline.append(Segment(
                start_cycle=cycle, end_cycle=cycle + cycles, component=0,
                cpu_power_w=5.0, mem_power_w=0.5, wall_s=wall,
            ))
            cycle += cycles
        latches = np.arange(0, cycle, 250_000)
        port = HistoryPort(latches, np.arange(len(latches)) % 5)
        # About one seed in five clips a read to the end of the run.
        for seed in range(10, 30):
            assert_acquire_matches(p6, timeline, port,
                                   NoiseConfig(daq_jitter_frac=0.9),
                                   seed=seed)

    def test_real_port_from_a_simulated_run(self, p6):
        from repro.core.experiment import Experiment, ExperimentConfig

        config = ExperimentConfig(benchmark="_202_jess", heap_mb=32,
                                  input_scale=0.05, seed=3)
        sim = Experiment(config).simulate()
        assert_acquire_matches(p6, sim.run.timeline,
                               sim.measurement_target().port, NOISY)

    def test_in_order_reads_take_the_merge(self, p6, order_checks):
        timeline, port = random_run(7)
        make_daq(p6, 1, NOISY).acquire(timeline, port)
        # Keys and table of both lookups (segments, latches) in order.
        assert order_checks == [True] * 4

    def test_out_of_order_reads_take_the_binary_search(self, p6,
                                                       order_checks):
        # Jitter of 0.9 periods puts many reads before their
        # predecessor, so the order check fails and the binary search
        # answers both lookups.
        timeline, port = random_run(6)
        make_daq(p6, 1, NoiseConfig(daq_jitter_frac=0.9)).acquire(
            timeline, port)
        assert order_checks == [False, False]
        assert_acquire_matches(p6, timeline, port,
                               NoiseConfig(daq_jitter_frac=0.9))


@pytest.fixture
def order_checks(monkeypatch):
    """The verdicts of the DAQ's order checks, in call order."""
    verdicts = []
    check = daq_module._non_decreasing

    def spy(values):
        verdicts.append(check(values))
        return verdicts[-1]

    monkeypatch.setattr(daq_module, "_non_decreasing", spy)
    return verdicts


class TestSortedLookup:
    def reference(self, table, keys):
        return np.searchsorted(table, keys, side="right")

    @pytest.mark.parametrize("seed", range(5))
    def test_sorted_with_ties(self, seed):
        rng = np.random.default_rng(seed)
        table = np.sort(rng.integers(0, 200, size=60))
        keys = np.sort(np.concatenate([rng.integers(-5, 210, size=500),
                                       table[:20]]))
        assert exact(sorted_lookup(table, keys)) == \
            exact(self.reference(table, keys))

    def test_floats_matching_table_entries(self):
        table = np.cumsum(np.full(100, 0.1))
        keys = np.sort(np.concatenate([table, table - 1e-17,
                                       np.linspace(0, 11, 333)]))
        assert exact(sorted_lookup(table, keys)) == \
            exact(self.reference(table, keys))

    @pytest.mark.parametrize("case", ["keys", "table", "nan"])
    def test_unsorted_input_falls_back(self, case):
        rng = np.random.default_rng(9)
        table = np.sort(rng.random(40))
        keys = np.sort(rng.random(300))
        if case == "keys":
            keys[[10, 200]] = keys[[200, 10]]
        elif case == "table":
            table[[3, 30]] = table[[30, 3]]
        else:
            keys[50] = np.nan
        assert exact(sorted_lookup(table, keys)) == \
            exact(self.reference(table, keys))

    def test_empty_table_and_keys(self):
        keys = np.arange(5.0)
        empty = np.array([], dtype=np.float64)
        assert exact(sorted_lookup(empty, keys)) == \
            exact(self.reference(empty, keys))
        assert exact(sorted_lookup(keys, empty)) == \
            exact(self.reference(keys, empty))


class TestQuantizeInPlace:
    def test_out_matches_fresh_arrays(self):
        adc = ADCQuantizer(bits=12, range_v=0.25)
        values = np.random.default_rng(2).normal(0.0, 0.2, size=2000)
        fresh = adc.quantize(values)
        buffer = values.copy()
        assert adc.quantize(buffer, out=buffer) is buffer
        assert exact(buffer) == exact(fresh)
        lsb = adc.lsb_v
        assert exact(fresh) == exact(
            np.round(np.clip(values, -0.25, 0.25) / lsb) * lsb)


# -- power-trace grouping ------------------------------------------------

def make_trace(component, seed=0, tail=False):
    rng = np.random.default_rng(seed)
    component = np.asarray(component, dtype=np.int16)
    n = len(component)
    window = np.full(n, 40e-6)
    if tail:
        window[-1] = 13e-6
    return PowerTrace(
        times_s=np.cumsum(window) - 0.5 * window,
        cpu_power_w=rng.normal(8.0, 3.0, size=n),
        mem_power_w=rng.normal(0.4, 0.2, size=n),
        component=component,
        sample_period_s=40e-6,
        window_s=window,
    )


class TestSharedGroupIndex:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_traces(self, seed):
        rng = np.random.default_rng(seed)
        ids = np.array([-3, 0, 1, 2, 5, 7])
        component = ids[rng.integers(0, len(ids), size=5000)]
        trace = make_trace(component, seed, tail=bool(seed % 2))
        assert exact(reductions(trace)) == exact(reference_reductions(trace))

    def test_trace_longer_than_three_blocks(self):
        # Groups that span several reduction blocks, in runs.
        rng = np.random.default_rng(9)
        component = np.repeat(rng.integers(-1, 4, 2000), 100)
        trace = make_trace(component[: 3 * BLOCK + 7], seed=9, tail=True)
        assert exact(reductions(trace)) == exact(reference_reductions(trace))

    def test_single_component_trace(self):
        trace = make_trace(np.full(777, 4))
        assert exact(reductions(trace)) == exact(reference_reductions(trace))
        assert trace.components_present() == [4]

    def test_one_sample_component(self):
        component = np.zeros(500, dtype=np.int16)
        component[321] = 3
        trace = make_trace(component, seed=5)
        assert exact(reductions(trace)) == exact(reference_reductions(trace))
        assert trace.component_seconds()[3] == 40e-6

    def test_negative_ids_in_id_order(self):
        trace = make_trace([5, -1, -7, 5, 0, -1, -7, -7], seed=2)
        assert trace.components_present() == [-7, -1, 0, 5]
        assert exact(reductions(trace)) == exact(reference_reductions(trace))

    def test_grouping_is_built_once(self):
        trace = make_trace([1, 0, 1, 1, 2])
        first = trace._groups()
        trace.component_cpu_energy_j()
        trace.component_peak_power_w()
        assert trace._groups() is first


class TestPowerTraceLengths:
    @pytest.mark.parametrize("column", ["cpu_power_w", "mem_power_w",
                                        "component", "window_s"])
    @pytest.mark.parametrize("delta", [-1, 1])
    def test_column_length_must_match_times(self, column, delta):
        n = 10
        fields = {
            "times_s": np.arange(n) * 40e-6,
            "cpu_power_w": np.ones(n),
            "mem_power_w": np.ones(n),
            "component": np.zeros(n, dtype=np.int16),
            "window_s": np.full(n, 40e-6),
        }
        fields[column] = np.resize(fields[column], n + delta)
        with pytest.raises(MeasurementError, match=column):
            PowerTrace(sample_period_s=40e-6, **fields)
