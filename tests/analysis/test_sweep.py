"""The analysis sweeps run on the campaign engine and give the numbers
one-experiment runs give, exactly."""

import pytest

from repro.analysis.edp import edp_sweep
from repro.analysis.energy import energy_decomposition_sweep
from repro.analysis.power_stats import power_table
from repro.core.experiment import run_experiment
from repro.errors import CampaignError, OutOfMemoryError
from repro.jvm.components import Component

BENCHMARKS = ("_202_jess", "_201_compress")
COLLECTORS = ("SemiSpace", "GenCopy")
HEAPS = (32, 48)
AXES = {"input_scale": 0.3, "seed": 13}


@pytest.fixture(scope="module")
def reference():
    """``run_experiment`` result per (benchmark, collector, heap)."""
    return {
        (bench, collector, heap): run_experiment(
            bench, collector=collector, heap_mb=heap, **AXES)
        for bench in BENCHMARKS
        for collector in COLLECTORS
        for heap in HEAPS
    }


class TestSameNumbers:
    def test_edp_sweep(self, reference):
        sweep = edp_sweep(BENCHMARKS, COLLECTORS, HEAPS, **AXES)
        assert set(sweep.results) == set(reference)
        for (bench, collector, heap), result in reference.items():
            assert sweep.edp(bench, collector, heap) == result.edp

    def test_energy_decomposition_sweep(self, reference):
        records = energy_decomposition_sweep(
            BENCHMARKS, heap_mb=32, collector="SemiSpace", **AXES)
        assert list(records) == list(BENCHMARKS)
        for bench, record in records.items():
            breakdown = reference[(bench, "SemiSpace", 32)].breakdown
            for comp in Component:
                assert record.frac(comp) == breakdown.fraction(comp)
            assert record.jvm_fraction == breakdown.jvm_fraction()
            assert record.mem_ratio == breakdown.mem_to_cpu_ratio()

    def test_power_table(self, reference):
        rows = power_table(BENCHMARKS, heap_mb=48, collector="GenCopy",
                           **AXES)
        assert [row.benchmark for row in rows] == list(BENCHMARKS)
        for row in rows:
            power = reference[(row.benchmark, "GenCopy", 48)].power
            avg = power.component_avg_power_w()
            peak = power.component_peak_power_w()
            wanted = [c for c in (Component.APP, Component.GC,
                                  Component.CL) if int(c) in avg]
            assert row.avg_power_w == {c: avg[int(c)] for c in wanted}
            assert row.peak_power_w == {c: peak[int(c)] for c in wanted}


class TestFailedCells:
    def test_oom_cell_is_absent_from_an_edp_sweep(self):
        sweep = edp_sweep(["_209_db"], ["SemiSpace"], [8],
                          input_scale=0.2)
        assert sweep.results == {}
        assert sweep.edp("_209_db", "SemiSpace", 8) == float("inf")

    def test_oom_cell_raises_the_experiments_error(self):
        with pytest.raises(OutOfMemoryError) as direct:
            run_experiment("_209_db", collector="SemiSpace", heap_mb=8,
                           input_scale=0.2)
        with pytest.raises(OutOfMemoryError) as swept:
            energy_decomposition_sweep(["_209_db"], heap_mb=8,
                                       input_scale=0.2)
        assert str(swept.value) == str(direct.value)
        assert swept.value.live_bytes == direct.value.live_bytes

    def test_other_failure_names_the_cell(self):
        with pytest.raises(CampaignError,
                           match=r"no_such_benchmark .*SemiSpace @ 32 MB"
                                 r".*\[UnknownBenchmarkError\]"):
            edp_sweep(["no_such_benchmark"], ["SemiSpace"], [32])

    def test_unsupported_collector_is_skipped(self):
        sweep = edp_sweep(["_202_jess"], ["SemiSpace", "KaffeGC"], [32],
                          input_scale=0.1)
        assert list(sweep.results) == [("_202_jess", "SemiSpace", 32)]
