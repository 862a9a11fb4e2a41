"""Energy-decomposition analyses (Figures 6, 9, and 11)."""

from repro.analysis.sweep import fitting, sweep_records
from repro.jvm.components import Component


def energy_decomposition_sweep(benchmarks, heap_mb, vm="jikes",
                               collector="SemiSpace", platform="p6",
                               input_scale=1.0, **kwargs):
    """Run every benchmark at one heap size as one campaign; return
    ``{benchmark: CellRecord}`` in input order.  A benchmark that runs
    out of heap raises :class:`~repro.errors.OutOfMemoryError`."""
    records = fitting(sweep_records(
        benchmarks, (collector,), (heap_mb,), vm=vm, platform=platform,
        input_scale=input_scale, **kwargs,
    ))
    return {name: record for (name, _, _), record in records.items()}


def decomposition_rows(results, components):
    """Flatten decomposition records into printable table rows:
    one row per benchmark with a percent column per component plus App."""
    rows = []
    for name, record in results.items():
        row = [name]
        jvm_total = 0.0
        for comp in components:
            frac = record.frac(comp)
            jvm_total += frac
            row.append(100.0 * frac)
        row.append(100.0 * (1.0 - jvm_total))  # application remainder
        row.append(100.0 * record.jvm_fraction)
        rows.append(row)
    return rows


def suite_average(results, component=Component.GC):
    """Average energy share of *component* across a record set."""
    if not results:
        return 0.0
    total = sum(r.frac(component) for r in results.values())
    return total / len(results)


def max_jvm_fraction(results):
    """The benchmark with the largest JVM energy share (the paper's
    '60 % of total energy' headline is `_213_javac` at 32 MB)."""
    name = max(results, key=lambda n: results[n].jvm_fraction)
    return name, results[name].jvm_fraction


def memory_energy_ratio(results):
    """Average memory-to-CPU energy ratio across a record set
    (paper Section VI-B: about 7 % for SpecJVM98, 5 % for DaCapo, 8 %
    for Java Grande)."""
    if not results:
        return 0.0
    total = sum(r.mem_ratio for r in results.values())
    return total / len(results)
