"""The analyses' one way to run a (benchmark x collector x heap) grid:
built through the scenario layer, run as one
:class:`~repro.campaign.CampaignRunner` campaign, read as
:class:`~repro.export.CellRecord` summaries."""

from repro.campaign import CampaignRunner
from repro.errors import OutOfMemoryError
from repro.spec import ScenarioSpec


def sweep_records(benchmarks, collectors, heap_mbs, **axes):
    """Run the grid; return ``{(benchmark, collector, heap_mb):
    CellRecord}`` in grid order.

    ``axes`` are single values keyed by their scenario names (``vm``,
    ``platform``, ``seed``, ``input_scale``, ``warmup``...).  A
    collector the VM does not implement is skipped; a cell that ran out
    of heap is a record with ``oom`` set; any other failed cell raises
    :class:`~repro.errors.CampaignError`.
    """
    spec = ScenarioSpec.from_dict({
        "benchmarks": list(benchmarks),
        "collectors": list(collectors),
        "heap_mbs": list(heap_mbs),
        **axes,
    })
    return {
        (cfg.benchmark, cfg.collector, cfg.heap_mb): record
        for cfg, record in CampaignRunner().run(spec).records().items()
    }


def fitting(records):
    """*records* as they are, once no cell ran out of heap; raises
    :class:`~repro.errors.OutOfMemoryError` for the first that did."""
    for record in records.values():
        if record.oom:
            raise OutOfMemoryError.from_message(record.error)
    return records
