"""The simulate phase and its serialized artifact.

The paper's protocol is two-phase: execute the workload once with the
instrumentation active, then decompose *offline* from the recorded DAQ
and HPM traces (Section IV).  This module makes the first phase an
explicit, cacheable product: :func:`simulate` runs the VM and returns a
:class:`SimulationResult`, whose :class:`SimulationArtifact` captures
everything the measurement phase observes —

* the ground-truth timeline, as exact-dtype column arrays
  (:meth:`repro.timeline.ExecutionTimeline.to_columns`);
* the component-ID port's latch history (cycle/value arrays plus the
  idle value), replayed through :class:`ReplayPort`;
* the run's ground truth the exporters read (collector name, GC stats,
  port-write and perturbation counts, compile tallies);
* the measurement-relevant platform facts (name — which selects the
  sense-resistor channels — and the effective HPM period after
  overrides).

Because the samplers are pure passes over a finished timeline and the
measurement RNG derives from the config seed, measuring from an
artifact is bit-identical to measuring the live run: one recorded
execution can be measured under any number of DAQ periods (the
accuracy-vs-overhead frontier of ``repro overhead``, and the campaign
runner's sim-key sharing) without re-simulating.

Axis classification lives in :mod:`repro.spec`
(:data:`~repro.spec.SIMULATION_CONFIG_FIELDS` /
:data:`~repro.spec.MEASUREMENT_CONFIG_FIELDS`); the artifact cache key
over the simulation-only fields lives in
:mod:`repro.campaign.artifacts`.
"""

from dataclasses import dataclass, replace

import numpy as np

from repro.core.decomposition import decompose
from repro.core.metrics import perturbation_report
from repro.errors import ConfigurationError, MeasurementError
from repro.jvm.vm import RunResult
from repro.measurement.daq import DAQ
from repro.obs import NULL_OBS
from repro.timeline import ExecutionTimeline

#: Schema tag on serialized artifacts; bump on incompatible layout
#: changes so stale artifacts are rejected at load, not mis-measured.
ARTIFACT_SCHEMA = "repro-sim-artifact-v1"


class ReplayPort:
    """A component-ID port reconstructed from recorded latch history.

    Exposes exactly the surface the samplers consume
    (:meth:`history_arrays` and ``idle_value``), plus the read/history
    accessors of the live :class:`~repro.hardware.ioport.ComponentIDPort`
    so analysis code works on either.
    """

    def __init__(self, cycles, values, idle_value=0, name="replay"):
        self._cycles = np.asarray(cycles, dtype=np.int64)
        self._values = np.asarray(values, dtype=np.int16)
        if self._cycles.shape != self._values.shape:
            raise MeasurementError(
                "port history cycle/value arrays disagree in length"
            )
        self.idle_value = int(idle_value)
        self.name = name

    def history_arrays(self):
        return self._cycles, self._values

    def history(self):
        return list(zip(self._cycles.tolist(), self._values.tolist()))

    def read(self, cycle):
        i = int(np.searchsorted(self._cycles, cycle, side="right")) - 1
        if i < 0:
            return self.idle_value
        return int(self._values[i])

    @property
    def write_count(self):
        # Mirrors the live port: the power-on latch is not a write.
        return max(len(self._cycles) - 1, 0)


@dataclass(frozen=True)
class MeasurementTarget:
    """The platform facts the measurement phase actually consumes.

    The DAQ needs the platform *name* (it selects the sense-resistor
    channel models) and a port; the HPM sampler needs the effective
    sampling period and the same port.  Nothing else of the platform is
    observable from the measurement side, which is what makes artifact
    replay exact.
    """

    name: str
    hpm_period_s: float
    port: object


@dataclass
class SimulationArtifact:
    """Serialized product of one simulate phase.

    Everything here is plain data (scalars, NumPy arrays, a dict) so the
    artifact pickles compactly and survives across processes; the
    ``sim_config`` dict is the canonical simulation identity the content
    hash was computed over, kept inline for human inspection and
    defensive verification.
    """

    sim_key: str
    sim_config: dict
    platform_name: str
    hpm_period_s: float
    timeline_columns: dict          # ExecutionTimeline.to_columns()
    port_cycles: np.ndarray
    port_values: np.ndarray
    port_idle: int
    benchmark: str
    vm_name: str
    collector_name: str
    heap_mb: int
    seed: int
    repetitions: int
    port_writes: int
    perturbation_cycles: int
    opt_compiles: int = 0
    base_compiles: int = 0
    jit_compiles: int = 0
    gc_stats: object = None         # GCStats snapshot

    # -- construction ---------------------------------------------------

    @classmethod
    def from_run(cls, config, run, platform):
        """Snapshot a completed simulate phase.

        Copies, never aliases: the artifact must stay valid however the
        live platform/VM objects are reused or mutated afterwards.
        """
        from repro.campaign.artifacts import sim_key
        from repro.spec import canonical_sim_dict

        port_cycles, port_values = platform.port.history_arrays()
        return cls(
            sim_key=sim_key(config),
            sim_config=canonical_sim_dict(config),
            platform_name=platform.name,
            hpm_period_s=float(platform.hpm_period_s),
            timeline_columns=run.timeline.to_columns(),
            port_cycles=np.array(port_cycles, copy=True),
            port_values=np.array(port_values, copy=True),
            port_idle=int(getattr(platform.port, "idle_value", 0)),
            benchmark=run.benchmark,
            vm_name=run.vm_name,
            collector_name=run.collector_name,
            heap_mb=run.heap_mb,
            seed=run.seed,
            repetitions=run.repetitions,
            port_writes=run.port_writes,
            perturbation_cycles=run.perturbation_cycles,
            opt_compiles=run.opt_compiles,
            base_compiles=run.base_compiles,
            jit_compiles=run.jit_compiles,
            gc_stats=replace(run.gc_stats),
        )

    # -- reconstruction -------------------------------------------------

    def timeline(self):
        """The ground-truth timeline, reconstructed exactly."""
        return ExecutionTimeline.from_columns(self.timeline_columns)

    def port(self):
        """The latch history as a sampler-compatible :class:`ReplayPort`."""
        return ReplayPort(
            self.port_cycles, self.port_values,
            idle_value=self.port_idle,
        )

    def measurement_target(self):
        """The platform view the measurement phase runs against."""
        return MeasurementTarget(
            name=self.platform_name,
            hpm_period_s=self.hpm_period_s,
            port=self.port(),
        )

    def run_result(self):
        """The run's ground-truth side as a :class:`RunResult`.

        The live-object fields that do not serialize (collector,
        classloader, workload) come back ``None``; everything the
        exporters and reports read is present.
        """
        return RunResult(
            benchmark=self.benchmark,
            vm_name=self.vm_name,
            platform_name=self.platform_name,
            collector_name=self.collector_name,
            heap_mb=self.heap_mb,
            seed=self.seed,
            timeline=self.timeline(),
            gc_stats=replace(self.gc_stats),
            collector=None,
            classloader=None,
            workload=None,
            port_writes=self.port_writes,
            perturbation_cycles=self.perturbation_cycles,
            repetitions=self.repetitions,
            opt_compiles=self.opt_compiles,
            base_compiles=self.base_compiles,
            jit_compiles=self.jit_compiles,
        )

    @property
    def n_segments(self):
        return int(self.timeline_columns.get("n", 0))

    # -- serialization --------------------------------------------------

    def to_payload(self):
        """Plain-dict form (the bytes the artifact store pickles)."""
        return {
            "schema": ARTIFACT_SCHEMA,
            "sim_key": self.sim_key,
            "sim_config": dict(self.sim_config),
            "platform_name": self.platform_name,
            "hpm_period_s": self.hpm_period_s,
            "timeline_columns": self.timeline_columns,
            "port_cycles": self.port_cycles,
            "port_values": self.port_values,
            "port_idle": self.port_idle,
            "benchmark": self.benchmark,
            "vm_name": self.vm_name,
            "collector_name": self.collector_name,
            "heap_mb": self.heap_mb,
            "seed": self.seed,
            "repetitions": self.repetitions,
            "port_writes": self.port_writes,
            "perturbation_cycles": self.perturbation_cycles,
            "opt_compiles": self.opt_compiles,
            "base_compiles": self.base_compiles,
            "jit_compiles": self.jit_compiles,
            "gc_stats": self.gc_stats,
        }

    @classmethod
    def from_payload(cls, payload):
        """Rebuild from :meth:`to_payload` output; schema-checked."""
        if not isinstance(payload, dict):
            raise MeasurementError(
                f"artifact payload must be a dict, got "
                f"{type(payload).__name__}"
            )
        schema = payload.get("schema")
        if schema != ARTIFACT_SCHEMA:
            raise MeasurementError(
                f"unknown artifact schema {schema!r} "
                f"(expected {ARTIFACT_SCHEMA!r})"
            )
        data = {k: v for k, v in payload.items() if k != "schema"}
        return cls(**data)


@dataclass
class SimulationResult:
    """The live product of one simulate phase (pre-serialization)."""

    config: object              # ExperimentConfig
    run: RunResult              # live, with collector/workload attached
    platform: object            # live Platform

    def artifact(self):
        """Snapshot into a serializable :class:`SimulationArtifact`."""
        return SimulationArtifact.from_run(
            self.config, self.run, self.platform
        )

    def measurement_target(self):
        """Measure straight off the live objects (the fused path)."""
        return MeasurementTarget(
            name=self.platform.name,
            hpm_period_s=float(self.platform.hpm_period_s),
            port=self.platform.port,
        )


class MeasurementSession:
    """One recorded execution, measured any number of times.

    Every measurement goes through a session
    (:meth:`repro.core.experiment.Experiment.measure` builds a
    throwaway one when handed a bare result or artifact).  The session
    reconstructs the ground-truth :class:`RunResult` and the
    :class:`MeasurementTarget` once, computes the run's perturbation
    report on first use, and takes every DAQ acquisition
    (:meth:`acquire`) and HPM pass (:meth:`sample_hpm`) of its run.  It
    alone decides whether one is served from what it holds: the most
    recent noise-free DAQ acquisition with its decomposition, and the
    noise-free HPM timer pass of every HPM period it has sampled.

    A DAQ acquisition reads only the timeline, the port, the platform
    name (all fixed by the session's simulation) plus the DAQ period and
    the measurement base seed, so those two values are its key: cells
    that differ only in HPM period or rotation reuse it.  One
    acquisition is held at a time, and it is dropped before a new one
    is taken.  A noise-free HPM timer pass reads no seed at all, so its
    key is the resolved HPM period alone: a single-pass cell reuses the
    held :class:`~repro.measurement.traces.PerfTrace` as it is, and a
    multiplexed cell extrapolates from it.  Timer passes are a few
    per-component numbers each, so every period's is kept.  A served
    measurement records its ``daq-acquire`` or ``hpm-sample`` span
    with ``reused=True`` and counts ``daq.reused`` or ``hpm.reused``.

    Noisy measurements never read or fill a hold: the noise model's
    single stream feeds the DAQ clock jitter and then the HPM interrupt
    latency, so reusing either would shift the draws after it.  A held
    power trace's arrays are read-only, and nothing writes a
    :class:`~repro.measurement.traces.PerfTrace` after sampling, since
    several results share them.
    """

    def __init__(self, sim):
        if isinstance(sim, SimulationArtifact):
            self.artifact = sim
            self.vm = sim.sim_config["vm"]
            self.run = sim.run_result()
        elif isinstance(sim, SimulationResult):
            self.artifact = None
            self.vm = sim.config.vm
            self.run = sim.run
        else:
            raise ConfigurationError(
                "measure() takes a MeasurementSession, SimulationResult "
                f"or SimulationArtifact, got {type(sim).__name__}"
            )
        self.target = sim.measurement_target()
        self._perturbation = None
        #: ``(key, power, breakdown)`` of the held acquisition, stored
        #: as one tuple so an interrupted update never pairs a key with
        #: another key's trace.
        self._held = None
        #: Resolved HPM period -> the noise-free timer pass's PerfTrace.
        self._timer_passes = {}

    @property
    def perturbation(self):
        """The run's :class:`~repro.core.metrics.PerturbationReport`,
        computed once per session."""
        if self._perturbation is None:
            self._perturbation = perturbation_report(
                self.run.timeline, self.run.port_writes
            )
        return self._perturbation

    def acquire(self, daq_period_s, base_seed, noise=None, obs=None):
        """The ``(power, breakdown)`` of a DAQ acquisition of the
        session's run at *daq_period_s*, measured from *base_seed*.

        A noise-free acquisition under the held key is served as it is.
        Anything else drops the held pair, acquires from
        ``default_rng(base_seed + 7919)`` and decomposes the trace; a
        noise-free result is then held, its arrays read-only.
        """
        obs = obs if obs is not None else NULL_OBS
        tracer = obs.tracer
        key = (daq_period_s, base_seed)
        held = self._held
        if noise is None and held is not None and held[0] == key:
            if obs.metrics.enabled:
                obs.metrics.counter("daq.reused").inc()
            with tracer.wall_span("daq-acquire", reused=True):
                pass
            return held[1], held[2]
        self._held = None
        with tracer.wall_span("daq-acquire"):
            daq = DAQ(self.target, np.random.default_rng(base_seed + 7919),
                      sample_period_s=daq_period_s, obs=obs, noise=noise)
            power = daq.acquire(self.run.timeline, port=self.target.port)
        with tracer.wall_span("decompose"):
            breakdown = decompose(power, self.vm)
        if noise is None:
            for name in ("times_s", "cpu_power_w", "mem_power_w",
                         "component", "window_s"):
                getattr(power, name).flags.writeable = False
            self._held = (key, power, breakdown)
        return power, breakdown

    def sample_hpm(self, sampler):
        """*sampler*'s :class:`~repro.measurement.traces.PerfTrace` of
        the session's run, under an ``hpm-sample`` span on the
        sampler's own ``obs``.

        A sampler that reads no seed (no noise model and, multiplexed,
        no injected rng) gets its timer pass from the hold, taking and
        holding it on the first call for its period; a multiplexed one
        then extrapolates from it.  Any other sampler samples afresh.
        """
        timeline, port = self.run.timeline, self.target.port
        obs = sampler.obs
        if not _reads_no_seed(sampler):
            with obs.tracer.wall_span("hpm-sample"):
                return sampler.sample(timeline, port=port)
        timer_pass = self._timer_passes.get(sampler.period_s)
        span_args = {}
        if timer_pass is not None:
            span_args["reused"] = True
            if obs.metrics.enabled:
                obs.metrics.counter("hpm.reused").inc()
        with obs.tracer.wall_span("hpm-sample", **span_args):
            base = getattr(sampler, "base_sampler", None)
            if timer_pass is None:
                timer_pass = (base() if base else sampler).sample(
                    timeline, port=port)
                self._timer_passes[sampler.period_s] = timer_pass
            if base is None:
                return timer_pass
            return sampler.extrapolate(timer_pass, timeline)


def _reads_no_seed(sampler):
    """Whether an HPM sampler's trace depends only on the run, the port
    and its period."""
    return sampler.noise is None and getattr(sampler, "rng", None) is None


def simulate(config, obs=None):
    """Run the simulate phase for *config*: build the platform and VM,
    execute the workload, return a :class:`SimulationResult`.

    This is the exact setup + VM-run half of the historical fused
    ``Experiment.run``; the tracer spans keep their names so existing
    trace tooling sees the same phases.
    """
    obs = obs if obs is not None else NULL_OBS
    tracer = obs.tracer
    with tracer.wall_span("setup"):
        # Builders live in the scenario layer (imported lazily:
        # repro.spec imports repro.campaign.grid, which imports the
        # experiment config this module serves).
        from repro.spec import build_platform, build_vm

        platform = build_platform(config)
        vm = build_vm(config, platform, obs=obs)
    # The paper's warm-up pass is modeled inside the VM run
    # (``warm=`` pre-heats OS caches), so execution is a single
    # phase here; see docs/OBSERVABILITY.md.
    with tracer.wall_span("vm-run", warmup=config.warmup):
        run = vm.run(
            config.benchmark,
            input_scale=config.input_scale,
            warm=config.warmup,
            repetitions=config.repetitions,
        )
    return SimulationResult(config=config, run=run, platform=platform)


__all__ = [
    "ARTIFACT_SCHEMA",
    "MeasurementSession",
    "MeasurementTarget",
    "ReplayPort",
    "SimulationArtifact",
    "SimulationResult",
    "simulate",
]
