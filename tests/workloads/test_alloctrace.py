"""Tests for allocation-trace record/replay."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hardware.platform import make_platform
from repro.jvm.vm import JikesRVM
from repro.units import MB
from repro.workloads.alloctrace import (
    AllocationTrace,
    TraceWorkloadRun,
    record_trace,
)

from tests.conftest import make_tiny_spec


@pytest.fixture(scope="module")
def spec():
    return make_tiny_spec()


@pytest.fixture(scope="module")
def trace(spec):
    return record_trace(spec, seed=5, alloc_bytes=spec.alloc_bytes * 2)


class TestRecord:
    def test_covers_requested_volume(self, spec, trace):
        assert trace.total_bytes >= spec.alloc_bytes * 2

    def test_metadata(self, spec, trace):
        assert trace.benchmark == spec.name
        assert trace.cohort_count > 100

    def test_lifetimes_non_negative(self, trace):
        finite = trace.lifetimes[np.isfinite(trace.lifetimes)]
        assert (finite >= 0).all()

    def test_live_profile(self, spec, trace):
        clocks, live = trace.live_profile(points=32)
        assert len(clocks) == 32
        # Steady-state live hovers near the spec target.
        mid = live[8:24].mean()
        assert spec.live_bytes / 4 < mid < spec.live_bytes * 4

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AllocationTrace(
                benchmark="x",
                sizes=np.array([1, 2]),
                lifetimes=np.array([1.0]),
            )
        with pytest.raises(ConfigurationError):
            AllocationTrace(
                benchmark="x",
                sizes=np.array([], dtype=np.int64),
                lifetimes=np.array([]),
            )


class TestPersistence:
    def test_round_trip(self, trace, tmp_path):
        path = trace.save(tmp_path / "trace.npz")
        loaded = AllocationTrace.load(path)
        assert loaded.benchmark == trace.benchmark
        assert (loaded.sizes == trace.sizes).all()
        assert np.array_equal(
            loaded.lifetimes, trace.lifetimes, equal_nan=False
        ) or np.allclose(
            loaded.lifetimes, trace.lifetimes, equal_nan=True
        )


class TestReplay:
    def test_replay_is_verbatim(self, spec, trace):
        run = TraceWorkloadRun(spec, np.random.default_rng(9), trace,
                               n_slices=8)
        sizes_a, deaths_a = run.draw_cohort_batch(0.0, 4 * MB)
        assert sizes_a.tolist() == [int(s) for s in
                                    trace.sizes[:len(sizes_a)]]
        # Deaths run on the allocation clock: birth plus lifetime.
        clock, deaths = 0.0, []
        for size, life in zip(sizes_a.tolist(), trace.lifetimes):
            deaths.append(clock + float(life))
            clock += size
        assert deaths_a.tolist() == deaths
        assert sum(sizes_a.tolist()) >= 4 * MB > sum(sizes_a[:-1].tolist())

    def test_short_trace_rejected(self, spec):
        short = record_trace(spec, seed=5, alloc_bytes=1 * MB)
        with pytest.raises(ConfigurationError):
            TraceWorkloadRun(spec, np.random.default_rng(9), short)

    def test_identical_streams_across_collectors(self, spec, trace):
        results = {}
        for collector in ("SemiSpace", "MarkSweep"):
            workload = TraceWorkloadRun(
                spec, np.random.default_rng(9), trace, n_slices=40
            )
            vm = JikesRVM(make_platform("p6"), collector=collector,
                          heap_mb=24, seed=9, n_slices=40)
            run = vm.run(workload)
            results[collector] = run
        # Both VMs allocated the exact same byte stream...
        alloc = {
            c: r.workload.replayed_bytes for c, r in results.items()
        }
        assert alloc["SemiSpace"] == alloc["MarkSweep"]
        # ...while their collectors behaved differently on it.
        assert (
            results["SemiSpace"].gc_stats.copied_bytes > 0
        )
        assert results["MarkSweep"].gc_stats.copied_bytes == 0
