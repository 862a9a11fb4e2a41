"""Energy-delay-product sweeps (Figures 7 and 10, Section VI-B).

An :class:`EDPSweep` is the full result grid over (benchmark, collector,
heap size).  Helpers answer the paper's specific questions: how much a
bigger heap improves a collector's EDP, which collector wins at each heap
size, and where non-generational collectors catch up with generational
ones.
"""

from dataclasses import dataclass, field

from repro.analysis.sweep import sweep_records
from repro.errors import ConfigurationError

#: The heap ladder used for the Jikes RVM sweeps (Section IV-A).
JIKES_HEAPS_MB = (32, 48, 64, 80, 96, 112, 128)

#: The reduced ladder used on the PXA255 (Section VI-E).
PXA255_HEAPS_MB = (12, 16, 20, 24, 28, 32)


@dataclass
class EDPSweep:
    """Grid of cell records keyed by (benchmark, collector, heap)."""

    results: dict = field(default_factory=dict)

    def add(self, benchmark, collector, heap_mb, result):
        self.results[(benchmark, collector, heap_mb)] = result

    def get(self, benchmark, collector, heap_mb):
        return self.results[(benchmark, collector, heap_mb)]

    def edp(self, benchmark, collector, heap_mb):
        """EDP in joule-seconds; ``inf`` for configurations that OOMed."""
        result = self.results.get((benchmark, collector, heap_mb))
        if result is None:
            return float("inf")
        return result.edp

    def series(self, benchmark, collector):
        """EDP-vs-heap series ``[(heap_mb, edp), ...]`` for one line of
        Figure 7."""
        points = []
        for bench, coll, heap in sorted(self.results):
            if bench == benchmark and coll == collector:
                points.append((heap, self.edp(bench, coll, heap)))
        return points

    def improvement(self, benchmark, collector, heap_from, heap_to):
        """Fractional EDP reduction when growing the heap
        (e.g. the paper's javac 56 % from 32 to 48 MB)."""
        before = self.edp(benchmark, collector, heap_from)
        after = self.edp(benchmark, collector, heap_to)
        if before <= 0:
            raise ConfigurationError("EDP must be positive")
        return 1.0 - after / before

    def collector_gap(self, benchmark, collector_a, collector_b, heap_mb):
        """Fractional EDP advantage of A over B (positive = A better)."""
        a = self.edp(benchmark, collector_a, heap_mb)
        b = self.edp(benchmark, collector_b, heap_mb)
        if b <= 0:
            raise ConfigurationError("EDP must be positive")
        return 1.0 - a / b

    def best_collector(self, benchmark, heap_mb, collectors):
        """The collector with the lowest EDP at one heap size."""
        return min(
            collectors, key=lambda c: self.edp(benchmark, c, heap_mb)
        )

    def crossover_heap(self, benchmark, gen_collector, nongen_collector,
                       heaps, tolerance=0.08):
        """Smallest heap at which the non-generational collector comes
        within ``tolerance`` of (or beats) the generational one — the
        paper's observation that non-generational efficiency approaches
        generational efficiency as the heap grows."""
        for heap in sorted(heaps):
            gen = self.edp(benchmark, gen_collector, heap)
            nongen = self.edp(benchmark, nongen_collector, heap)
            if nongen <= gen * (1.0 + tolerance):
                return heap
        return None


def edp_sweep(benchmarks, collectors, heaps, vm="jikes", platform="p6",
              input_scale=1.0, **kwargs):
    """Run the full (benchmark x collector x heap) grid as one campaign.

    Configurations whose live set genuinely does not fit (tiny heap,
    semispace discipline) run out of memory; they are recorded as
    absent (EDP = infinity), matching how papers leave unrunnable
    points off the plot.  Each present point is a
    :class:`~repro.export.CellRecord`.
    """
    sweep = EDPSweep()
    records = sweep_records(
        benchmarks, collectors, heaps, vm=vm, platform=platform,
        input_scale=input_scale, **kwargs,
    )
    for (bench, collector, heap), record in records.items():
        if not record.oom:
            sweep.add(bench, collector, heap, record)
    return sweep
