"""The end-to-end experiment runner.

One :class:`Experiment` reproduces one cell of the paper's result matrix:
a benchmark, on a VM, with a collector and heap size, on a platform.  The
runner follows the paper's protocol (Section V): a warm-up pass before
measurement (modeled as warm OS caches for class loading), then the
measured run, power acquired by the 40 us DAQ and performance by the
timer-driven HPM sampler, then offline decomposition.

The simulator is deterministic, so — unlike the paper, which needed
separate power and performance runs on the same physical machine — both
traces are acquired over the *same* execution; this removes run-to-run
variation without changing what either instrument observes.
"""

from dataclasses import dataclass
from dataclasses import field as dataclass_field
from typing import Optional

import numpy as np

from repro.core.decomposition import component_profiles
from repro.core.metrics import edp
from repro.core.simulation import (
    MeasurementSession,
    simulate as _simulate_phase,
)
from repro.errors import ConfigurationError
from repro.hardware.platform import validate_overrides
from repro.jvm.components import Component
from repro.measurement.hpm_sampler import HPMSampler
from repro.measurement.multiplexing import (
    MultiplexedHPMSampler,
    resolve_rotation,
)
from repro.measurement.noise import NOISE_SEED_OFFSET, NoiseModel
from repro.obs import NULL_OBS
from repro.units import DAQ_SAMPLE_PERIOD_S


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one measurement run."""

    benchmark: str
    vm: str = "jikes"
    platform: str = "p6"
    collector: Optional[str] = None
    heap_mb: int = 64
    seed: int = 42
    input_scale: float = 1.0
    warmup: bool = True
    repetitions: int = 1
    fan_enabled: bool = True
    n_slices: int = 160
    daq_period_s: float = DAQ_SAMPLE_PERIOD_S
    dvfs_freq_scale: Optional[float] = None
    #: Hardware-constant overrides for the cell's platform, as a
    #: canonical tuple of ``(key, value)`` pairs (a mapping is accepted
    #: and normalized); see
    #: :data:`repro.hardware.platform.SUPPORTED_OVERRIDES`.
    overrides: tuple = ()
    #: Measurement-side HPM sampling period (``None`` = the platform's
    #: default).  A measurement knob like ``daq_period_s``: it changes
    #: how the execution is observed, never the execution itself, so it
    #: is excluded from the simulation identity (sim-key) and sweeps
    #: share one artifact.
    hpm_period_s: Optional[float] = None
    #: Counter-rotation schedule for multiplexed HPM sampling: ``None``
    #: (single-pass sampler), a preset name from
    #: :data:`repro.measurement.multiplexing.ROTATIONS`, or an explicit
    #: sequence of event-name groups (normalized to a tuple of tuples).
    #: Also measurement-side.
    hpm_rotation: Optional[tuple] = None

    def __post_init__(self):
        if self.heap_mb <= 0:
            raise ConfigurationError("heap_mb must be positive")
        if self.input_scale <= 0:
            raise ConfigurationError("input_scale must be positive")
        if self.repetitions < 1:
            raise ConfigurationError("repetitions must be >= 1")
        if self.n_slices < 1:
            raise ConfigurationError("n_slices must be >= 1")
        if self.daq_period_s <= 0:
            # A zero period would hang the DAQ sampler loop.
            raise ConfigurationError("daq_period_s must be positive")
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0")
        if self.hpm_period_s is not None and self.hpm_period_s <= 0:
            raise ConfigurationError("hpm_period_s must be positive")
        object.__setattr__(
            self, "overrides", validate_overrides(self.overrides)
        )
        object.__setattr__(
            self, "hpm_rotation", resolve_rotation(self.hpm_rotation)
        )


@dataclass
class ExperimentResult:
    """Everything one experiment produced."""

    config: ExperimentConfig
    run: object              # RunResult (ground truth side)
    power: object            # PowerTrace (measured)
    perf: object             # PerfTrace (measured)
    breakdown: object        # EnergyBreakdown (measured)
    #: The :class:`~repro.core.simulation.MeasurementSession` this
    #: result was measured through; it owns the run's perturbation
    #: report, so every result of one session shares one report.
    session: Optional[object] = dataclass_field(
        default=None, repr=False, compare=False
    )
    #: Optional :class:`repro.analysis.uncertainty.UncertaintyReport`
    #: attached by the bootstrap engine: the same result, with every
    #: energy number carrying a distribution.  ``None`` (the default)
    #: for ordinary single-measurement runs; excluded from equality so
    #: attaching a report never changes result identity.
    uncertainty: Optional[object] = dataclass_field(
        default=None, repr=False, compare=False
    )

    # -- headline metrics (measured) ---------------------------------

    @property
    def duration_s(self):
        return self.power.duration_s

    @property
    def cpu_energy_j(self):
        return self.power.cpu_energy_j()

    @property
    def mem_energy_j(self):
        return self.power.mem_energy_j()

    @property
    def total_energy_j(self):
        return self.cpu_energy_j + self.mem_energy_j

    @property
    def edp(self):
        """Energy-delay product over CPU + memory energy."""
        return edp(self.total_energy_j, self.duration_s)

    @property
    def perturbation(self):
        """The methodology's own cost (port-write instrumentation) as a
        :class:`~repro.core.metrics.PerturbationReport` — the paper's
        Section IV-C "perturbation of the measurement itself" number,
        surfaced first-class instead of buried in timeline segments."""
        return self.session.perturbation

    def gc_energy_fraction(self):
        return self.breakdown.fraction(Component.GC)

    def jvm_energy_fraction(self):
        return self.breakdown.jvm_fraction()

    def profiles(self):
        """Merged per-component power/performance profiles."""
        return component_profiles(self.power, self.perf, self.config.vm,
                                  breakdown=self.breakdown)

    def summary(self):
        """Human-readable one-paragraph result."""
        cfg = self.config
        fracs = self.breakdown.as_fractions()
        frac_text = ", ".join(
            f"{name} {100 * f:.1f}%" for name, f in fracs.items()
        )
        return (
            f"{cfg.benchmark} | {cfg.vm}/{cfg.platform} | "
            f"{self.run.collector_name} @ {cfg.heap_mb} MB: "
            f"time {self.duration_s:.2f} s, CPU {self.cpu_energy_j:.1f} J, "
            f"mem {self.mem_energy_j:.2f} J, "
            f"EDP {self.edp:.1f} Js | energy share: {frac_text}"
        )


class Experiment:
    """Runs one configured measurement, in one or two phases.

    The pipeline is explicitly split along the paper's own protocol
    boundary: :meth:`simulate` executes the workload and produces the
    ground truth (timeline + port latch history), :meth:`measure` runs
    the samplers and decomposition over a finished simulation — either
    the live :class:`~repro.core.simulation.SimulationResult` or a
    deserialized :class:`~repro.core.simulation.SimulationArtifact` —
    through a :class:`~repro.core.simulation.MeasurementSession`, which
    takes every acquisition and decides what may be reused.
    :meth:`load_or_simulate` resolves the config's artifact through a
    store.
    :meth:`run` is the fused convenience path (simulate then measure
    under one trace span), bit-identical to phase-at-a-time execution.

    ``obs`` is an optional :class:`~repro.obs.Observability` bundle;
    when given, the runner records wall-clock phase spans (setup, VM
    execution, DAQ acquisition, decomposition, HPM sampling), the VM
    and scheduler record simulated-clock spans, and the measurement
    stages feed the metrics registry.  Instrumentation is write-only:
    a traced run produces byte-identical results to an untraced one.
    """

    def __init__(self, config, obs=None):
        self.config = config
        self.obs = obs if obs is not None else NULL_OBS

    def _bound_obs(self):
        obs = self.obs
        if obs.enabled:
            cfg = self.config
            obs = obs.bind(
                benchmark=cfg.benchmark, vm=cfg.vm,
                platform=cfg.platform, seed=cfg.seed,
            )
        return obs

    # -- phases ---------------------------------------------------------

    def simulate(self):
        """Run only the simulate phase; returns a
        :class:`~repro.core.simulation.SimulationResult` whose
        ``artifact()`` snapshot can be stored and measured later (or
        elsewhere)."""
        cfg = self.config
        obs = self._bound_obs()
        with obs.tracer.wall_span("simulate", benchmark=cfg.benchmark,
                                  vm=cfg.vm, platform=cfg.platform,
                                  seed=cfg.seed):
            sim = _simulate_phase(cfg, obs=obs)
        if obs.metrics.enabled:
            obs.metrics.counter("experiment.simulations").inc()
        return sim

    def load_or_simulate(self, store=None):
        """``(artifact, hit)``: the config's
        :class:`~repro.core.simulation.SimulationArtifact` from *store*
        (an :class:`~repro.campaign.artifacts.ArtifactStore`, or
        ``None``) when it holds one, else from :meth:`simulate`, written
        back to *store*.  ``hit`` says which."""
        if store is not None:
            artifact = store.get(self.config)
            if artifact is not None:
                return artifact, True
        artifact = self.simulate().artifact()
        if store is not None:
            store.put(self.config, artifact)
        return artifact, False

    def measure(self, sim, noise=None, measurement_seed=None):
        """Run only the measurement phase over *sim* (a
        :class:`~repro.core.simulation.MeasurementSession`,
        :class:`~repro.core.simulation.SimulationResult` or
        :class:`~repro.core.simulation.SimulationArtifact`); returns an
        :class:`ExperimentResult`.  Pass one session to measure many
        configs of one simulation: they share its run reconstruction,
        perturbation report and, per DAQ setting, its acquisition.  The
        DAQ and HPM periods and the rotation come from the config, so
        one artifact fans out into a whole accuracy-vs-overhead
        frontier through ``replace(config, daq_period_s=...)``.

        The two keywords belong to the uncertainty subsystem
        (:mod:`repro.analysis.uncertainty`): ``noise`` attaches a
        :class:`~repro.measurement.noise.NoiseConfig` error model to the
        measurement chain, and ``measurement_seed`` replaces the
        experiment seed in the measurement-side RNG derivations so one
        artifact can be re-measured under independent, exactly
        reproducible noise draws.  Both default to ``None``, which keeps
        measurement byte-identical to the pre-uncertainty path.
        """
        if measurement_seed is not None and measurement_seed < 0:
            raise ConfigurationError("measurement_seed must be >= 0")
        obs = self._bound_obs()
        with obs.tracer.wall_span("measure",
                                  benchmark=self.config.benchmark,
                                  vm=self.config.vm,
                                  platform=self.config.platform):
            result = self._measure_phase(sim, obs, noise,
                                         measurement_seed)
        if obs.metrics.enabled:
            obs.metrics.counter("experiment.measurements").inc()
        return result

    def run(self):
        """Execute the experiment; returns an :class:`ExperimentResult`."""
        cfg = self.config
        obs = self._bound_obs()
        tracer = obs.tracer
        obs.log.info("experiment.start", collector=cfg.collector,
                     heap_mb=cfg.heap_mb)
        with tracer.wall_span("experiment", benchmark=cfg.benchmark,
                              vm=cfg.vm, platform=cfg.platform,
                              seed=cfg.seed):
            sim = _simulate_phase(cfg, obs=obs)
            result = self._measure_phase(sim, obs)
        if obs.metrics.enabled:
            obs.metrics.counter("experiment.runs").inc()
        if obs.log.enabled:
            obs.log.info(
                "experiment.finish",
                duration_s=round(result.duration_s, 6),
                cpu_energy_j=round(result.cpu_energy_j, 6),
                mem_energy_j=round(result.mem_energy_j, 6),
                perturbation_fraction=round(
                    result.perturbation.energy_fraction, 6
                ),
            )
        return result

    # -- internals ------------------------------------------------------

    def _measure_phase(self, sim, obs, noise_cfg=None,
                       measurement_seed=None):
        """The sampler + decomposition passes over a finished simulation.

        Every source goes through a
        :class:`~repro.core.simulation.MeasurementSession` (a throwaway
        one for a bare result or artifact), which resolves it to one
        run and one :class:`~repro.core.simulation.MeasurementTarget`
        (platform name, effective HPM period, component-ID port), so
        the fused, split and campaign paths run the same code.  This
        method checks the source against the config and resolves the
        config's HPM period, measurement seed, noise model and sampler;
        the session takes the DAQ acquisition with its decomposition
        and the HPM pass, and alone decides whether either is served
        from what it holds.
        """
        cfg = self.config
        session = (
            sim if isinstance(sim, MeasurementSession)
            else MeasurementSession(sim)
        )
        if session.artifact is not None:
            self._check_artifact(session.artifact)
        if session.vm != cfg.vm:
            raise ConfigurationError(
                f"cannot measure a {session.vm!r} simulation as a "
                f"{cfg.vm!r} experiment"
            )
        target = session.target
        hpm_period_s = (
            target.hpm_period_s if cfg.hpm_period_s is None
            else cfg.hpm_period_s
        )
        # The measurement-side seed: the experiment seed by default, a
        # per-replicate derived seed when the uncertainty subsystem
        # re-measures one artifact many times.  All measurement RNG
        # streams (sense channels, noise model, multiplexing phase)
        # derive from it with distinct offsets.
        base_seed = (
            cfg.seed if measurement_seed is None else measurement_seed
        )
        noise = None
        if noise_cfg is not None and noise_cfg.enabled:
            noise = NoiseModel.for_seed(
                noise_cfg, base_seed + NOISE_SEED_OFFSET
            )
        power, breakdown = session.acquire(cfg.daq_period_s, base_seed,
                                           noise=noise, obs=obs)
        if cfg.hpm_rotation:
            # A noisy replicate draws its multiplexing phase alignment
            # from the replicate's own stream; without a noise model the
            # sampler keeps its historical timeline-derived determinism.
            mux_rng = (
                np.random.default_rng(base_seed + 6700417)
                if noise is not None else None
            )
            sampler = MultiplexedHPMSampler(
                target, rotation=cfg.hpm_rotation, period_s=hpm_period_s,
                obs=obs, rng=mux_rng, noise=noise,
            )
        else:
            sampler = HPMSampler(
                target, period_s=hpm_period_s, obs=obs, noise=noise
            )
        perf = session.sample_hpm(sampler)
        return ExperimentResult(
            config=cfg,
            run=session.run,
            power=power,
            perf=perf,
            breakdown=breakdown,
            session=session,
        )

    def _check_artifact(self, artifact):
        """Refuse to measure an artifact recorded for a different
        simulation identity — silently wrong numbers are worse than a
        loud re-simulation."""
        from repro.campaign.artifacts import sim_key

        expected = sim_key(self.config)
        if artifact.sim_key != expected:
            raise ConfigurationError(
                f"artifact {artifact.sim_key[:12]} does not match this "
                f"config's simulation identity {expected[:12]} "
                f"(benchmark {artifact.benchmark!r} on "
                f"{artifact.vm_name}/{artifact.platform_name})"
            )


def run_experiment(benchmark, obs=None, **kwargs):
    """Convenience one-call API: build the config, run, return the result.

    Example::

        result = run_experiment("_213_javac", collector="SemiSpace",
                                heap_mb=32)
        print(result.summary())

    ``obs`` (an :class:`~repro.obs.Observability` bundle) enables
    tracing/metrics/logging for the run; every other keyword goes to
    :class:`ExperimentConfig`.
    """
    config = ExperimentConfig(benchmark=benchmark, **kwargs)
    return Experiment(config, obs=obs).run()
