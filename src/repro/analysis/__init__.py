"""Offline analyses that regenerate the paper's figures and tables.

The sweeps run their grid as one campaign on the campaign engine
(:mod:`repro.analysis.sweep`) and hold :class:`~repro.export.CellRecord`
summaries, as the figure harness does.

Each module corresponds to a family of results:

* :mod:`repro.analysis.energy` — energy decompositions (Figures 6, 9, 11),
* :mod:`repro.analysis.edp` — energy-delay-product sweeps (Figures 7, 10)
  and the Section VI-B comparisons,
* :mod:`repro.analysis.power_stats` — average/peak component power
  (Figure 8),
* :mod:`repro.analysis.thermal` — the Figure 1 thermal-emergency
  experiment,
* :mod:`repro.analysis.pauses` — GC pause statistics and minimum
  mutator utilization (MMU) curves,
* :mod:`repro.analysis.figures` — ASCII line charts, grouped bars, and
  sparklines for the regenerated figures,
* :mod:`repro.analysis.validation` — measurement-vs-ground-truth error
  analysis (beyond the paper: quantifies the methodology itself).
"""

from repro.analysis.edp import EDPSweep, edp_sweep
from repro.analysis.energy import energy_decomposition_sweep
from repro.analysis.figures import grouped_bars, line_chart, sparkline
from repro.analysis.pauses import mmu, mmu_curve, pause_stats
from repro.analysis.power_stats import collector_power_summary, power_table
from repro.analysis.thermal import thermal_replay, thermal_experiment
from repro.analysis.timeseries import bin_power, gc_power_dip
from repro.analysis.validation import attribution_error

__all__ = [
    "EDPSweep",
    "attribution_error",
    "bin_power",
    "collector_power_summary",
    "edp_sweep",
    "energy_decomposition_sweep",
    "gc_power_dip",
    "grouped_bars",
    "line_chart",
    "mmu",
    "mmu_curve",
    "pause_stats",
    "power_table",
    "sparkline",
    "thermal_experiment",
    "thermal_replay",
]
