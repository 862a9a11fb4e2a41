"""Average/peak component power (Figure 8)."""

from dataclasses import dataclass

from repro.analysis.sweep import fitting, sweep_records
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
    records = fitting(sweep_records(
        benchmarks, (collector,), (heap_mb,), vm=vm, platform=platform,
        **kwargs,
    ))
    return [
        PowerRow(
            benchmark=name,
            heap_mb=heap_mb,
            avg_power_w={
                c: record.avg_power[c] for c in components
                if c in record.avg_power
            },
            peak_power_w={
                c: record.peak_power[c] for c in components
                if c in record.peak_power
            },
        )
        for (name, _, _), record in records.items()
    ]


def collector_power_summary(benchmarks, collectors, heap_mb=64,
                            vm="jikes", platform="p6", **kwargs):
    """Average GC power per collector across benchmarks (the paper's
    GenCopy 12.8 W / SemiSpace 12.3 W / GenMS 12.7 W / MarkSweep 11.7 W
    comparison), plus the matching average application power."""
    records = fitting(sweep_records(
        benchmarks, collectors, (heap_mb,), vm=vm, platform=platform,
        **kwargs,
    ))
    summary = {}
    for collector in collectors:
        gc_total, app_total, n = 0.0, 0.0, 0
        for (_, cell_collector, _), record in records.items():
            gc_power = record.avg_power.get(Component.GC)
            if cell_collector != collector or gc_power is None:
                continue
            gc_total += gc_power
            app_total += record.avg_power.get(Component.APP, 0.0)
            n += 1
        summary[collector] = {
            "gc_avg_power_w": gc_total / n if n else 0.0,
            "app_avg_power_w": app_total / n if n else 0.0,
            "benchmarks": n,
        }
    return summary
