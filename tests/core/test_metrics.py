"""Tests for metrics: energy breakdowns and EDP."""

import pytest

from repro.errors import ConfigurationError
from repro.core.metrics import EnergyBreakdown, edp
from repro.jvm.components import Component, JIKES_COMPONENTS


def breakdown(app=60.0, gc=25.0, cl=5.0, base=2.0, opt=8.0, mem=7.0):
    return EnergyBreakdown(
        cpu_energy_j={
            int(Component.APP): app,
            int(Component.GC): gc,
            int(Component.CL): cl,
            int(Component.BASE): base,
            int(Component.OPT): opt,
        },
        mem_energy_j={int(Component.APP): mem},
        seconds={int(Component.APP): 5.0, int(Component.GC): 2.0},
        jvm_components=JIKES_COMPONENTS,
    )


class TestEDP:
    def test_product(self):
        assert edp(100.0, 10.0) == pytest.approx(1000.0)

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            edp(-1.0, 10.0)

    def test_lower_is_better_semantics(self):
        # Halving execution time at the same power quarters the EDP
        # (the paper's "quadratic effect", Section VI-B).
        power = 10.0
        slow = edp(power * 10.0, 10.0)
        fast = edp(power * 5.0, 5.0)
        assert fast == pytest.approx(slow / 4.0)


class TestEnergyBreakdown:
    def test_totals(self):
        b = breakdown()
        assert b.total_cpu_j == pytest.approx(100.0)
        assert b.total_mem_j == pytest.approx(7.0)

    def test_fraction(self):
        b = breakdown()
        assert b.fraction(Component.GC) == pytest.approx(0.25)
        assert b.fraction(Component.APP) == pytest.approx(0.60)

    def test_jvm_fraction(self):
        b = breakdown()
        assert b.jvm_fraction() == pytest.approx(0.40)
        assert b.jvm_energy_j() == pytest.approx(40.0)

    def test_app_fraction_complements(self):
        b = breakdown()
        assert b.app_fraction() == pytest.approx(0.60)

    def test_missing_component_is_zero(self):
        b = breakdown()
        assert b.fraction(Component.JIT) == 0.0

    def test_mem_ratio(self):
        b = breakdown()
        assert b.mem_to_cpu_ratio() == pytest.approx(0.07)

    def test_as_fractions_names(self):
        fracs = breakdown().as_fractions()
        assert fracs["GC"] == pytest.approx(0.25)
        assert fracs["App"] == pytest.approx(0.60)

    def test_total_is_summed_once(self):
        class CountingDict(dict):
            sums = 0

            def values(self):
                CountingDict.sums += 1
                return super().values()

        b = breakdown()
        b = EnergyBreakdown(
            cpu_energy_j=CountingDict(b.cpu_energy_j),
            mem_energy_j=b.mem_energy_j, seconds=b.seconds,
            jvm_components=b.jvm_components,
        )
        for _ in range(3):
            b.fraction(Component.GC)
            b.jvm_fraction()
            b.app_fraction()
            b.mem_to_cpu_ratio()
            b.as_fractions()
        assert CountingDict.sums == 1
        assert b.total_cpu_j == pytest.approx(100.0)

    def test_zero_energy_guards(self):
        b = EnergyBreakdown(
            cpu_energy_j={}, mem_energy_j={}, seconds={},
            jvm_components=JIKES_COMPONENTS,
        )
        assert b.jvm_fraction() == 0.0
        assert b.fraction(Component.GC) == 0.0
        assert b.mem_to_cpu_ratio() == 0.0
