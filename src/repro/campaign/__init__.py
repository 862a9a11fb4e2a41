"""Campaign subsystem: parallel, cached experiment matrices.

The paper's results come from a *matrix* of runs (benchmarks x VMs x
platforms x heap sizes x collectors); this package turns a declarative
:class:`~repro.spec.ScenarioSpec` into individual
:class:`~repro.core.experiment.ExperimentConfig` cells, executes them on
a process pool with per-cell timeout, bounded retry and graceful
degradation, and memoizes each cell's summary in a content-addressed
on-disk cache so repeated figure/benchmark runs only pay for new cells.

Quickstart::

    from repro.campaign import CampaignRunner
    from repro.spec import ScenarioSpec

    spec = ScenarioSpec(
        benchmarks=("_202_jess", "_209_db"),
        collectors=("SemiSpace", "GenCopy"),
        heap_mbs=(32, 64),
    )
    runner = CampaignRunner(workers=4, cache_dir=".repro-cache")
    result = runner.run(spec)
    print(result.summary.describe())
"""

from repro.campaign.artifacts import ArtifactStore, sim_key
from repro.campaign.cache import ResultCache, config_key
from repro.campaign.grid import derive_cell_seed, expand_grid
from repro.campaign.runner import (
    CampaignResult,
    CampaignRunner,
    CampaignSummary,
    CellResult,
    run_campaign,
)

__all__ = [
    "ArtifactStore",
    "CampaignResult",
    "CampaignRunner",
    "CampaignSummary",
    "CellResult",
    "ResultCache",
    "config_key",
    "derive_cell_seed",
    "expand_grid",
    "run_campaign",
    "sim_key",
]
