"""Average/peak component power (Figure 8)."""

from dataclasses import dataclass

from repro.core.experiment import run_experiment
from repro.jvm.components import Component


@dataclass
class PowerRow:
    """One benchmark's Figure 8 entry."""

    benchmark: str
    heap_mb: int
    avg_power_w: dict    # Component -> average watts
    peak_power_w: dict   # Component -> peak watts

    def peak_component(self):
        """Which component sets the run's peak power (the paper: the
        application for most benchmarks, the GC for `_209_db`)."""
        return max(self.peak_power_w, key=self.peak_power_w.get)


def power_table(benchmarks, heap_mb, collector="GenCopy", vm="jikes",
                platform="p6", components=(Component.APP, Component.GC,
                                           Component.CL), **kwargs):
    """Figure 8: average and peak power of App/GC/CL per benchmark."""
    rows = []
    for name in benchmarks:
        result = run_experiment(
            name, vm=vm, platform=platform, collector=collector,
            heap_mb=heap_mb, **kwargs
        )
        avg = result.power.component_avg_power_w()
        peak = result.power.component_peak_power_w()
        rows.append(
            PowerRow(
                benchmark=name,
                heap_mb=heap_mb,
                avg_power_w={
                    c: avg.get(int(c), 0.0) for c in components
                    if int(c) in avg
                },
                peak_power_w={
                    c: peak.get(int(c), 0.0) for c in components
                    if int(c) in peak
                },
            )
        )
    return rows


def collector_power_summary(benchmarks, collectors, heap_mb=64,
                            vm="jikes", platform="p6", **kwargs):
    """Average GC power per collector across benchmarks (the paper's
    GenCopy 12.8 W / SemiSpace 12.3 W / GenMS 12.7 W / MarkSweep 11.7 W
    comparison), plus the matching average application power."""
    summary = {}
    for collector in collectors:
        gc_total, app_total, n = 0.0, 0.0, 0
        for name in benchmarks:
            result = run_experiment(
                name, vm=vm, platform=platform, collector=collector,
                heap_mb=heap_mb, **kwargs
            )
            avg = result.power.component_avg_power_w()
            gc_power = avg.get(int(Component.GC))
            if gc_power is None:
                continue
            gc_total += gc_power
            app_total += avg.get(int(Component.APP), 0.0)
            n += 1
        summary[collector] = {
            "gc_avg_power_w": gc_total / n if n else 0.0,
            "app_avg_power_w": app_total / n if n else 0.0,
            "benchmarks": n,
        }
    return summary
