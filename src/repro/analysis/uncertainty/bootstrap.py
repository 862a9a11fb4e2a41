"""The bootstrap engine: N measurements of one recorded execution.

The simulate/measure split makes uncertainty quantification cheap: the
expensive phase (executing the workload) runs once and is snapshotted
as a :class:`~repro.core.simulation.SimulationArtifact`; the cheap
phase (sampling the recording) replays N times under independent,
seeded realizations of the measurement-chain noise model
(:mod:`repro.measurement.noise`).  Each replicate streams through
:class:`~repro.analysis.uncertainty.distribution.OnlineStats`; the
result is an :class:`UncertaintyReport` — per-quantity
:class:`EnergyDistribution` objects with percentile CIs and, because
the artifact carries exact ground truth, per-interval coverage.

Replicate seeds are *derived*, never sequential: the same versioned
sha256 scheme as :func:`repro.campaign.grid.derive_cell_seed`, over
(base seed, replicate index, role).  Changing N never reshuffles the
seeds of existing replicates, so an N=64 report extends an N=32 one
rather than replacing it, and thread- or process-parallel replicate
execution is order-independent by construction.
"""

import hashlib
from dataclasses import dataclass

from repro.analysis.uncertainty.distribution import (
    EnergyDistribution,
    OnlineStats,
)
from repro.core.experiment import Experiment
from repro.core.simulation import (
    MeasurementSession,
    SimulationArtifact,
    SimulationResult,
)
from repro.errors import ConfigurationError
from repro.jvm.components import Component
from repro.measurement.noise import DEFAULT_NOISE, NoiseConfig

#: Version of the replicate-seed derivation.  Bump when the derivation
#: changes incompatibly; reports record the version that produced them.
REPLICATE_SEED_VERSION = 1


def derive_replicate_seed(base_seed, replicate, role="measure",
                          version=REPLICATE_SEED_VERSION):
    """Stable per-replicate seed from the replicate's identity.

    Mirrors :func:`repro.campaign.grid.derive_cell_seed`: sha256 over
    the identity parts, first four digest bytes as the seed.  The
    ``role`` part keeps independent uses of the scheme (measurement
    noise vs. any future resampling role) in disjoint streams.
    """
    if version != REPLICATE_SEED_VERSION:
        raise ConfigurationError(
            f"unknown replicate-seed version {version!r}"
        )
    if replicate < 0:
        raise ConfigurationError("replicate index must be >= 0")
    parts = [
        "uncertainty-replicate",
        f"v{version}",
        str(int(base_seed)),
        str(int(replicate)),
        str(role),
    ]
    digest = hashlib.sha256("|".join(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


def _component_label(cid):
    """Stable human label for a component id."""
    return Component.from_port_value(int(cid)).name


@dataclass(frozen=True)
class UncertaintyReport:
    """Every energy number of one experiment, as a distribution.

    ``totals`` maps quantity name (``cpu_energy_j``, ``mem_energy_j``,
    ``total_energy_j``) to its distribution; ``components`` maps
    component labels (``GC``, ``APP``...) to the distribution of that
    component's DAQ-attributed CPU energy.  Totals carry exact ground
    truth and should be *calibrated* (a 95% interval covers truth
    ~95% of the time); component intervals quantify measurement noise
    around a systematically biased estimator, so their coverage is
    reported but expected to be lower — the gap is the sampler's
    attribution bias made visible.
    """

    n_replicates: int
    base_seed: int
    ci_level: float
    noise: NoiseConfig
    seed_version: int
    totals: dict            # name -> EnergyDistribution
    components: dict        # component label -> EnergyDistribution

    @property
    def coverage(self):
        """Fraction of truth-bearing intervals that cover their truth."""
        checked = [
            d for d in list(self.totals.values())
            + list(self.components.values())
            if d.covered is not None
        ]
        if not checked:
            return None
        return sum(1 for d in checked if d.covered) / len(checked)

    def distribution(self, name):
        """Look up a distribution by total name or component label."""
        if name in self.totals:
            return self.totals[name]
        if name in self.components:
            return self.components[name]
        raise ConfigurationError(
            f"no distribution named {name!r}; have "
            f"{sorted(self.totals)} and {sorted(self.components)}"
        )

    def as_dict(self):
        """JSON-ready form (the export schema's uncertainty section)."""
        return {
            "n_replicates": self.n_replicates,
            "base_seed": self.base_seed,
            "ci_level": self.ci_level,
            "seed_version": self.seed_version,
            "noise": self.noise.as_dict(),
            "totals": {
                name: dist.as_dict()
                for name, dist in sorted(self.totals.items())
            },
            "components": {
                name: dist.as_dict()
                for name, dist in sorted(self.components.items())
            },
        }

    def describe(self):
        """Multi-line human-readable rendering."""
        lines = [
            f"uncertainty over {self.n_replicates} replicates "
            f"(seed {self.base_seed}, "
            f"{100 * self.ci_level:.0f}% percentile CI)"
        ]
        for name in ("cpu_energy_j", "mem_energy_j", "total_energy_j"):
            if name in self.totals:
                lines.append(
                    f"  {name}: {self.totals[name].describe()}"
                )
        for name, dist in sorted(self.components.items()):
            lines.append(f"  {name}: {dist.describe()}")
        cov = self.coverage
        if cov is not None:
            lines.append(f"  truth coverage: {100 * cov:.0f}%")
        return "\n".join(lines)


class BootstrapEngine:
    """Replays the measurement phase N times over one simulation.

    ``config`` fixes the observation knobs (DAQ/HPM periods, rotation)
    shared by every replicate; only the per-replicate measurement seed
    differs, derived from ``config.seed`` by
    :func:`derive_replicate_seed`.  The engine never simulates: it
    accepts a finished :class:`SimulationResult` or
    :class:`SimulationArtifact` and runs pure sampler passes through
    one :class:`~repro.core.simulation.MeasurementSession`, so N=32
    costs one run reconstruction, 32 measurement passes and zero
    workload executions.
    """

    def __init__(self, config, noise=DEFAULT_NOISE, replicates=32,
                 ci_level=0.95, obs=None):
        if replicates < 2:
            raise ConfigurationError(
                "bootstrap needs at least 2 replicates"
            )
        if not (0.0 < ci_level < 1.0):
            raise ConfigurationError("ci_level must be in (0, 1)")
        if not isinstance(noise, NoiseConfig):
            raise ConfigurationError(
                f"noise must be a NoiseConfig, got "
                f"{type(noise).__name__}"
            )
        if not noise.enabled:
            raise ConfigurationError(
                "the noise model disables every error source; a "
                "bootstrap over it would produce N identical "
                "replicates and a zero-width interval"
            )
        self.config = config
        self.noise = noise
        self.replicates = int(replicates)
        self.ci_level = float(ci_level)
        self.obs = obs

    def measure_replicate(self, sim, index):
        """Run one replicate over *sim* (a session, result or
        artifact); returns its ``ExperimentResult``."""
        experiment = Experiment(self.config, obs=self.obs)
        return experiment.measure(
            sim, noise=self.noise,
            measurement_seed=derive_replicate_seed(self.config.seed, index),
        )

    def run(self, sim, attach_to=None):
        """Measure *sim* ``replicates`` times; returns the report.

        ``attach_to`` optionally names an existing
        :class:`~repro.core.experiment.ExperimentResult` to hang the
        report on (its ``uncertainty`` field), keeping the noise-free
        point estimate and the distribution side by side.
        """
        if not isinstance(sim, (SimulationResult, SimulationArtifact)):
            raise ConfigurationError(
                "run() takes a SimulationResult or SimulationArtifact, "
                f"got {type(sim).__name__}"
            )
        session = MeasurementSession(sim)
        truth = self._ground_truth(session)
        totals = {
            "cpu_energy_j": OnlineStats(),
            "mem_energy_j": OnlineStats(),
            "total_energy_j": OnlineStats(),
        }
        components = {}
        for i in range(self.replicates):
            result = self.measure_replicate(session, i)
            # Each property re-runs a whole-trace energy sum; read them
            # once and add them the way ``ExperimentResult.total_energy_j``
            # does.
            cpu, mem = result.cpu_energy_j, result.mem_energy_j
            totals["cpu_energy_j"].add(cpu)
            totals["mem_energy_j"].add(mem)
            totals["total_energy_j"].add(cpu + mem)
            per_comp = result.breakdown.cpu_energy_j
            # Free this replicate's trace before the next one is taken.
            del result
            for cid, energy in per_comp.items():
                label = _component_label(cid)
                stats = components.get(label)
                if stats is None:
                    # A component first observed at replicate i was
                    # measured (at zero energy) by the i earlier
                    # replicates too — backfill so every accumulator
                    # holds exactly `replicates` samples.
                    stats = components[label] = OnlineStats()
                    for _ in range(i):
                        stats.add(0.0)
                stats.add(energy)
            for label, stats in components.items():
                if stats.n < i + 1:
                    stats.add(0.0)
        report = UncertaintyReport(
            n_replicates=self.replicates,
            base_seed=self.config.seed,
            ci_level=self.ci_level,
            noise=self.noise,
            seed_version=REPLICATE_SEED_VERSION,
            totals={
                name: EnergyDistribution.from_stats(
                    name, stats, ci_level=self.ci_level,
                    truth=truth["totals"].get(name),
                )
                for name, stats in totals.items()
            },
            components={
                label: EnergyDistribution.from_stats(
                    label, stats, ci_level=self.ci_level,
                    truth=truth["components"].get(label),
                )
                for label, stats in components.items()
            },
        )
        if attach_to is not None:
            attach_to.uncertainty = report
        return report

    @staticmethod
    def _ground_truth(session):
        """Exact energies from the recorded timeline."""
        timeline = session.run.timeline
        cpu = timeline.cpu_energy_j()
        mem = timeline.mem_energy_j()
        per_comp = timeline.component_cpu_energy_j()
        return {
            "totals": {
                "cpu_energy_j": float(cpu),
                "mem_energy_j": float(mem),
                "total_energy_j": float(cpu + mem),
            },
            "components": {
                _component_label(cid): float(e)
                for cid, e in per_comp.items()
            },
        }


def bootstrap_uncertainty(config, sim, noise=DEFAULT_NOISE,
                          replicates=32, ci_level=0.95,
                          obs=None, attach_to=None):
    """One-call API: build the engine, run it, return the report."""
    engine = BootstrapEngine(
        config, noise=noise, replicates=replicates,
        ci_level=ci_level, obs=obs,
    )
    return engine.run(sim, attach_to=attach_to)


__all__ = [
    "BootstrapEngine",
    "REPLICATE_SEED_VERSION",
    "UncertaintyReport",
    "bootstrap_uncertainty",
    "derive_replicate_seed",
]
