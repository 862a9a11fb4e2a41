"""Shared machinery for the figure-regeneration benchmark harness.

Every benchmark module asks the session-wide :class:`ExperimentCache`
for results.  The cache is backed by the campaign runner
(:mod:`repro.campaign`): figure drivers batch their whole grid through
:meth:`ExperimentCache.get_many`, which executes the missing cells on a
process pool and memoizes every cell's summary both in memory and in
the campaign's on-disk cache — so identical configurations are
simulated once per machine, not once per pytest session.  Cached
entries are slimmed to :class:`~repro.export.CellRecord` summaries so
the cache stays small.

Environment knobs:

* ``REPRO_BENCH_FAST=1`` — thinner heap ladders while iterating;
* ``REPRO_BENCH_WORKERS=N`` — campaign worker processes (default: CPU
  count, capped at 8);
* ``REPRO_BENCH_CACHE=0`` — disable the on-disk cell cache;
* ``REPRO_BENCH_CACHE_DIR=path`` — cache location (default
  ``benchmarks/output/cellcache``).

Figure output is written to ``benchmarks/output/*.txt`` (and echoed to
stdout) so the regenerated tables survive pytest's capture.
"""

import os
from pathlib import Path

from repro.campaign import CampaignRunner
from repro.spec import ScenarioSpec

OUTPUT_DIR = Path(__file__).parent / "output"

#: All sixteen benchmark names in Figure 5 order.
SPECJVM98 = (
    "_201_compress", "_202_jess", "_209_db", "_213_javac",
    "_222_mpegaudio", "_227_mtrt", "_228_jack",
)
DACAPO = ("antlr", "fop", "jython", "pmd", "ps")
JGF = ("euler", "moldyn", "raytracer", "search")
ALL_BENCHMARKS = SPECJVM98 + DACAPO + JGF

#: Heap ladders (paper Sections IV-A and VI-E).
JIKES_HEAPS = (32, 48, 64, 80, 96, 112, 128)
PXA_HEAPS = (12, 16, 20, 24, 28, 32)

#: Set REPRO_BENCH_FAST=1 to run a thinner grid while iterating.
FAST = os.environ.get("REPRO_BENCH_FAST", "") == "1"
if FAST:
    JIKES_HEAPS = (32, 48, 128)
    PXA_HEAPS = (12, 20, 32)

SEED = 42

#: Campaign execution knobs for the figure harness.
WORKERS = int(os.environ.get(
    "REPRO_BENCH_WORKERS", str(min(os.cpu_count() or 1, 8))
))
CACHE_DIR = (
    None
    if os.environ.get("REPRO_BENCH_CACHE", "1") == "0"
    else Path(os.environ.get(
        "REPRO_BENCH_CACHE_DIR", str(OUTPUT_DIR / "cellcache")
    ))
)

def cell(benchmark, vm="jikes", platform="p6", collector=None,
         heap_mb=64, input_scale=1.0, seed=SEED):
    """One figure-grid cell as an :class:`ExperimentConfig`.

    Routed through the scenario layer so figure cells are the same
    objects a spec file or the CLI flag path would build.
    """
    return ScenarioSpec.for_experiment(
        benchmark, vm=vm, platform=platform, collector=collector,
        heap_mb=heap_mb, input_scale=input_scale, seed=seed,
    ).experiment_config()


class ExperimentCache:
    """Runs experiments at most once per configuration.

    Cells execute through the campaign runner: batched lookups
    (:meth:`get_many`) run all missing cells in one parallel campaign;
    the on-disk cell cache persists results across pytest sessions.
    """

    def __init__(self, workers=WORKERS, cache_dir=CACHE_DIR):
        self._records = {}
        self._runner = CampaignRunner(
            workers=workers, cache_dir=cache_dir, retries=1,
        )

    def get_many(self, configs):
        """CellRecords for *configs* (an ExperimentConfig iterable),
        returned as ``{config: record}``; missing cells run as one
        campaign."""
        configs = list(configs)
        missing = [
            c for c in dict.fromkeys(configs) if c not in self._records
        ]
        if missing:
            self._records.update(self._runner.run(missing).records())
        return {c: self._records[c] for c in configs}

    def get(self, benchmark, vm="jikes", platform="p6",
            collector=None, heap_mb=64, input_scale=1.0, seed=SEED):
        config = cell(
            benchmark, vm=vm, platform=platform, collector=collector,
            heap_mb=heap_mb, input_scale=input_scale, seed=seed,
        )
        return self.get_many([config])[config]

    def __len__(self):
        return len(self._records)


def emit(name, text):
    """Write a regenerated figure to disk and echo it."""
    OUTPUT_DIR.mkdir(exist_ok=True)
    path = OUTPUT_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n=== {name} ===")
    print(text)
    return path


def pct(x):
    return f"{100.0 * x:5.1f}"
