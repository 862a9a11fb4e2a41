"""The paper's primary contribution: the characterization methodology.

* :mod:`repro.core.experiment` — the end-to-end experiment runner
  (configure platform + VM, warm up, execute, acquire power and
  performance traces, decompose);
* :mod:`repro.core.simulation` — the explicit simulate phase and its
  serialized :class:`SimulationArtifact` (one recorded execution,
  measured under any number of measurement configurations);
* :mod:`repro.core.decomposition` — per-component energy/power/time
  decomposition from acquired traces;
* :mod:`repro.core.metrics` — energy, average/peak power, and the
  energy-delay product (EDP);
* :mod:`repro.core.report` — plain-text rendering of results.
"""

from repro.core.decomposition import decompose
from repro.core.experiment import (
    Experiment,
    ExperimentConfig,
    ExperimentResult,
    run_experiment,
)
from repro.core.metrics import EnergyBreakdown, edp
from repro.core.simulation import (
    SimulationArtifact,
    SimulationResult,
    simulate,
)

__all__ = [
    "EnergyBreakdown",
    "Experiment",
    "ExperimentConfig",
    "ExperimentResult",
    "SimulationArtifact",
    "SimulationResult",
    "decompose",
    "edp",
    "run_experiment",
    "simulate",
]
