"""Tests for the energy-decomposition analysis helpers."""

import pytest

from repro.analysis.energy import (
    decomposition_rows,
    energy_decomposition_sweep,
    max_jvm_fraction,
    memory_energy_ratio,
    suite_average,
)
from repro.jvm.components import Component


@pytest.fixture(scope="module")
def small_sweep():
    return energy_decomposition_sweep(
        ["_202_jess", "_201_compress"],
        heap_mb=32,
        collector="SemiSpace",
        input_scale=0.3,
        seed=13,
    )


class TestSweep:
    def test_results_keyed_by_benchmark(self, small_sweep):
        assert set(small_sweep) == {"_202_jess", "_201_compress"}

    def test_rows(self, small_sweep):
        rows = decomposition_rows(
            small_sweep,
            components=(Component.GC, Component.CL),
        )
        assert len(rows) == 2
        name, gc_pct, cl_pct, app_pct, jvm_pct = rows[0]
        assert 0 <= gc_pct <= 100
        assert app_pct + gc_pct + cl_pct == pytest.approx(100, abs=1)

    def test_suite_average(self, small_sweep):
        avg = suite_average(small_sweep, Component.GC)
        fracs = [r.frac(Component.GC) for r in small_sweep.values()]
        assert avg == pytest.approx(sum(fracs) / 2)

    def test_max_jvm_fraction(self, small_sweep):
        name, frac = max_jvm_fraction(small_sweep)
        assert name in small_sweep
        assert frac == max(r.jvm_fraction for r in small_sweep.values())

    def test_memory_ratio_in_paper_band(self, small_sweep):
        ratio = memory_energy_ratio(small_sweep)
        assert 0.01 < ratio < 0.2

    def test_empty_inputs(self):
        assert suite_average({}) == 0.0
        assert memory_energy_ratio({}) == 0.0
