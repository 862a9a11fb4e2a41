"""Tests for the per-artifact measurement session.

Every campaign cell measures through one
:class:`~repro.core.simulation.MeasurementSession` per sim-key group:
cells that differ only in HPM period or rotation share its run
reconstruction, its perturbation report and its DAQ acquisition, and
cells with one HPM period share its timer pass.  Each check here is
referenced against the fused per-cell path
(:func:`~repro.campaign.runner._execute_cell`), which simulates and
measures one config on its own, or against a session of the cell's
own.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.uncertainty import (
    DEFAULT_NOISE,
    BootstrapEngine,
    bootstrap_uncertainty,
    derive_replicate_seed,
)
from repro.campaign import run_campaign
from repro.campaign.runner import _execute_cell
from repro.core.decomposition import component_profiles
from repro.core.experiment import Experiment
from repro.core.simulation import MeasurementSession
from repro.errors import ConfigurationError
from repro.export import result_to_cell_dict
from repro.measurement.daq import DAQ
from repro.measurement.hpm_sampler import HPMSampler
from repro.measurement.multiplexing import MultiplexedHPMSampler
from repro.measurement.traces import PowerTrace
from repro.spec import ScenarioSpec

SCENARIOS = Path(__file__).resolve().parents[2] / "examples" / "scenarios"

DAQ_PERIODS = (40e-6, 1e-3)

# A reduced DAQ x HPM matrix over one simulation identity: grid order
# nests the HPM axes inside each DAQ period.
GRID = ScenarioSpec(
    benchmarks=("_202_jess",),
    collectors=("SemiSpace",),
    heap_mbs=(24,),
    input_scales=(0.1,),
    n_slices=40,
    daq_periods_s=DAQ_PERIODS,
    hpm_periods_s=(None, 2e-3),
    hpm_rotations=(None, "xscale-pairs"),
)

# The 27-cell DAQ x HPM x rotation matrix of a campaign sweep, at test
# scale.
SWEEP = ScenarioSpec(
    benchmarks=("_202_jess",),
    collectors=("SemiSpace",),
    heap_mbs=(24,),
    input_scales=(0.1,),
    n_slices=40,
    daq_periods_s=(40e-6, 200e-6, 1e-3),
    hpm_periods_s=(None, 2e-3, 10e-3),
    hpm_rotations=(None, "xscale-pairs", "round-robin"),
)

TRACE_ARRAYS = ("times_s", "cpu_power_w", "mem_power_w", "component",
                "window_s")


def encode(payload):
    return json.dumps(payload, sort_keys=True)


def fused_bytes(cells):
    out = []
    for config in cells:
        outcome = _execute_cell(config, None)
        assert outcome["ok"], outcome
        out.append(encode(outcome["payload"]))
    return out


def payload_bytes(result):
    assert result.summary.n_failed == 0, result.summary.describe()
    return [encode(cell.payload) for cell in result.cells]


@pytest.fixture(scope="module")
def grid_fused():
    """Fused per-cell bytes of every GRID cell, keyed by config."""
    cells = GRID.cells()
    return dict(zip(cells, fused_bytes(cells)))


@pytest.fixture(scope="module")
def artifact():
    return Experiment(GRID.cells()[0]).simulate().artifact()


@pytest.fixture
def acquisitions(monkeypatch):
    """The sample period of every ``DAQ.acquire`` call, in order."""
    calls = []
    original = DAQ.acquire

    def spy(self, timeline, port=None):
        calls.append(self.sample_period_s)
        return original(self, timeline, port=port)

    monkeypatch.setattr(DAQ, "acquire", spy)
    return calls


@pytest.fixture
def timer_passes(monkeypatch):
    """The period of every ``HPMSampler.sample`` call, in order."""
    calls = []
    original = HPMSampler.sample

    def spy(self, timeline, port=None):
        calls.append(self.period_s)
        return original(self, timeline, port=port)

    monkeypatch.setattr(HPMSampler, "sample", spy)
    return calls


class TestCampaignMatchesFused:
    def test_serial_grid(self, grid_fused):
        result = run_campaign(GRID, workers=1)
        assert result.summary.n_simulations == 1
        assert payload_bytes(result) == list(grid_fused.values())

    def test_two_workers(self, grid_fused):
        result = run_campaign(GRID, workers=2)
        assert result.summary.n_simulations == 1
        assert payload_bytes(result) == list(grid_fused.values())

    def test_one_acquisition_per_daq_setting(self, acquisitions):
        result = run_campaign(GRID, workers=1)
        assert len(result) == 8
        assert acquisitions == list(DAQ_PERIODS)

    def test_one_sim_key_per_cell(self, tmp_path, monkeypatch):
        from repro import spec

        store = tmp_path / "artifacts"
        run_campaign(GRID, workers=1, artifact_dir=store)
        calls = []
        original = spec.canonical_sim_dict

        def spy(config):
            calls.append(config)
            return original(config)

        monkeypatch.setattr(spec, "canonical_sim_dict", spy)
        result = run_campaign(GRID, workers=1, artifact_dir=store)
        assert result.summary.n_artifact_hits == 1
        assert len(calls) == len(result) == 8

    def test_alternating_daq_key_evicts_and_matches(self, grid_fused,
                                                    acquisitions):
        cells = GRID.cells()
        fine = [c for c in cells if c.daq_period_s == DAQ_PERIODS[0]]
        coarse = [c for c in cells if c.daq_period_s == DAQ_PERIODS[1]]
        alternating = [c for pair in zip(fine, coarse) for c in pair]
        result = run_campaign(alternating, workers=1)
        assert result.summary.n_simulations == 1
        # Every neighbour has another DAQ key: nothing is reused.
        assert acquisitions == [c.daq_period_s for c in alternating]
        assert payload_bytes(result) == [
            grid_fused[c] for c in alternating
        ]


class TestTimerPasses:
    """A noise-free HPM timer pass is taken once per session and
    resolved HPM period; everything seeded samples afresh."""

    def test_one_pass_per_hpm_period(self, artifact, timer_passes):
        result = run_campaign(SWEEP, workers=1)
        assert len(result) == 27
        assert timer_passes == [artifact.hpm_period_s, 2e-3, 10e-3]
        # Each cell measured through a session of its own takes its own
        # pass and gives the same bytes.
        alone = [encode(result_to_cell_dict(Experiment(c).measure(artifact)))
                 for c in SWEEP.cells()]
        assert len(timer_passes) == 3 + 27
        assert payload_bytes(result) == alone

    @pytest.mark.parametrize("rotation", [None, "xscale-pairs"])
    def test_noisy_measurement_never_uses_a_held_pass(self, artifact,
                                                      timer_passes,
                                                      rotation):
        session = MeasurementSession(artifact)
        experiment = Experiment(
            replace(GRID.cells()[0], hpm_rotation=rotation))
        held = experiment.measure(session, measurement_seed=5)
        assert len(timer_passes) == 1
        noisy = experiment.measure(session, noise=DEFAULT_NOISE,
                                   measurement_seed=5)
        assert len(timer_passes) == 2
        # The noisy pass was not held: the next noise-free cell reuses
        # the first one.
        again = experiment.measure(session, measurement_seed=5)
        assert len(timer_passes) == 2
        assert again.perf == held.perf
        alone = experiment.measure(artifact, noise=DEFAULT_NOISE,
                                   measurement_seed=5)
        assert encode(result_to_cell_dict(noisy)) == \
            encode(result_to_cell_dict(alone))
        assert noisy.perf != held.perf

    def test_injected_rng_never_uses_a_held_pass(self, artifact,
                                                 timer_passes):
        session = MeasurementSession(artifact)
        Experiment(GRID.cells()[0]).measure(session)
        assert len(timer_passes) == 1
        # An unseeded multiplexed sampler extrapolates from the held pass.
        session.sample_hpm(MultiplexedHPMSampler(session.target))
        assert len(timer_passes) == 1

        def seeded():
            return MultiplexedHPMSampler(
                session.target, rng=np.random.default_rng(5))

        # A seeded one takes a pass of its own.
        got = session.sample_hpm(seeded())
        assert len(timer_passes) == 2
        want = seeded().sample(session.run.timeline, port=session.target.port)
        assert got == want
        # Nor is the seeded sampler's pass held for the next one.
        session.sample_hpm(seeded())
        assert len(timer_passes) == 4

    def test_bootstrap_report_unchanged_while_passes_are_held(
            self, artifact, monkeypatch, timer_passes):
        """Multiplexed replicates draw their phase alignment from their
        own stream; a noise-free pass held under their period must not
        reach them."""
        config = replace(GRID.cells()[0], hpm_rotation="xscale-pairs")
        want = encode(
            bootstrap_uncertainty(config, artifact, replicates=2).as_dict()
        )
        engine = BootstrapEngine(config, replicates=2)
        sessions = []

        def through_held(session, index):
            sessions.append(session)
            seed = derive_replicate_seed(config.seed, index)
            experiment = Experiment(config)
            experiment.measure(session, measurement_seed=seed)
            return experiment.measure(session, noise=engine.noise,
                                      measurement_seed=seed)

        monkeypatch.setattr(engine, "measure_replicate", through_held)
        assert encode(engine.run(artifact).as_dict()) == want
        # The replicates' noise-free measurements left the default
        # period's pass held.
        session = sessions[0]
        taken = len(timer_passes)
        session.sample_hpm(HPMSampler(session.target))
        assert len(timer_passes) == taken


class TestSharedSimulationMatchesFused:
    """Two runs through one artifact store (a miss, then a hit) give
    the fused path's bytes, for the DAQ-period/DVFS example spec and
    for the DAQ x HPM grid."""

    @pytest.mark.parametrize("name", ["daq-period-sweep", "daq-x-hpm"])
    def test_store_miss_then_hit(self, name, grid_fused, tmp_path):
        if name == "daq-x-hpm":
            campaign = GRID
            want = list(grid_fused.values())
        else:
            campaign = ScenarioSpec.from_file(SCENARIOS / f"{name}.toml")
            want = fused_bytes(campaign.cells())
        store = tmp_path / "artifacts"
        first = run_campaign(campaign, workers=1, artifact_dir=store)
        second = run_campaign(campaign, workers=1, artifact_dir=store)
        n_keys = first.summary.n_sim_keys
        assert first.summary.n_simulations == n_keys
        assert first.summary.n_artifact_hits == 0
        assert second.summary.n_simulations == 0
        assert second.summary.n_artifact_hits == n_keys
        assert payload_bytes(first) == want
        assert payload_bytes(second) == want


class TestSession:
    def test_hpm_only_cells_share_everything(self, artifact):
        session = MeasurementSession(artifact)
        config = GRID.cells()[0]
        first = Experiment(config).measure(session)
        second = Experiment(
            replace(config, hpm_period_s=2e-3)
        ).measure(session)
        assert second.run is first.run
        assert second.power is first.power
        assert second.breakdown is first.breakdown
        assert second.perturbation is first.perturbation
        assert second.perf.n_samples < first.perf.n_samples

    def test_measurement_seed_is_part_of_the_key(self, artifact,
                                                 acquisitions):
        session = MeasurementSession(artifact)
        experiment = Experiment(replace(GRID.cells()[0], daq_period_s=1e-3))

        def at(sim, seed):
            return encode(result_to_cell_dict(
                experiment.measure(sim, measurement_seed=seed)
            ))

        got = [at(session, s) for s in (1, 1, 2, 1)]
        # 1 acquires, 1 reuses, 2 evicts and acquires, 1 acquires again.
        assert acquisitions == [1e-3] * 3
        want = [at(artifact, s) for s in (1, 1, 2, 1)]
        assert got == want
        assert got[0] != got[2]

    def test_noisy_measurement_is_never_served(self, artifact,
                                               acquisitions):
        session = MeasurementSession(artifact)
        experiment = Experiment(replace(GRID.cells()[0], daq_period_s=1e-3))
        held = experiment.measure(session, measurement_seed=5)
        served = experiment.measure(session, noise=DEFAULT_NOISE,
                                    measurement_seed=5)
        assert len(acquisitions) == 2
        assert served.power is not held.power
        # Not held: its arrays stay writeable and the next noise-free
        # measurement acquires again.
        assert served.power.cpu_power_w.flags.writeable
        experiment.measure(session, measurement_seed=5)
        assert len(acquisitions) == 3
        alone = experiment.measure(artifact, noise=DEFAULT_NOISE,
                                   measurement_seed=5)
        assert encode(result_to_cell_dict(served)) == \
            encode(result_to_cell_dict(alone))
        assert encode(result_to_cell_dict(served)) != \
            encode(result_to_cell_dict(held))

    def test_bootstrap_report_unchanged_by_held_acquisitions(
            self, artifact, monkeypatch):
        """Every replicate measures through the engine's one session;
        when that session holds a noise-free acquisition under the
        replicate's own key, the report must equal the plain
        bootstrap's."""
        config = GRID.cells()[0]
        want = encode(
            bootstrap_uncertainty(config, artifact, replicates=2).as_dict()
        )
        engine = BootstrapEngine(config, replicates=2)
        sessions = []

        def through_held(session, index):
            sessions.append(session)
            seed = derive_replicate_seed(config.seed, index)
            experiment = Experiment(config)
            experiment.measure(session, measurement_seed=seed)
            return experiment.measure(session, noise=engine.noise,
                                      measurement_seed=seed)

        monkeypatch.setattr(engine, "measure_replicate", through_held)
        assert encode(engine.run(artifact).as_dict()) == want
        assert len(sessions) == 2
        assert isinstance(sessions[0], MeasurementSession)
        assert sessions[1] is sessions[0]

    def test_other_sim_key_still_raises(self, artifact):
        session = MeasurementSession(artifact)
        other = replace(GRID.cells()[0], heap_mb=32)
        with pytest.raises(ConfigurationError,
                           match="simulation identity"):
            Experiment(other).measure(session)

    def test_other_vm_raises_on_a_live_session(self):
        config = GRID.cells()[0]
        session = MeasurementSession(Experiment(config).simulate())
        with pytest.raises(ConfigurationError, match="'kaffe'"):
            Experiment(replace(config, vm="kaffe")).measure(session)

    def test_rejects_other_types(self):
        with pytest.raises(ConfigurationError, match="MeasurementSession"):
            MeasurementSession("not-a-simulation")

    def test_held_trace_is_read_only(self, artifact):
        session = MeasurementSession(artifact)
        power = Experiment(GRID.cells()[0]).measure(session).power
        for name in TRACE_ARRAYS:
            array = getattr(power, name)
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[0]
        # Reductions still work on the shared arrays.
        assert np.isfinite(power.cpu_energy_j())


class TestTracedCampaign:
    def test_reuse_recorded_and_payloads_unchanged(self, grid_fused,
                                                   tmp_path):
        traced = run_campaign(GRID, workers=1, trace_dir=tmp_path)
        assert payload_bytes(traced) == list(grid_fused.values())
        cells = GRID.cells()
        for index, config in enumerate(cells):
            events = json.loads(
                (tmp_path / f"cell-{index:04d}.json").read_text()
            )
            spans = [e for e in events if e.get("name") == "daq-acquire"]
            hpm_spans = [e for e in events
                         if e.get("name") == "hpm-sample"]
            counters = next(
                e for e in events if e.get("name") == "repro_metrics"
            )["args"]["counters"]
            assert len(spans) == 1
            assert len(hpm_spans) == 1
            # HPM axes nest inside each DAQ period: the first cell of
            # each period acquires, the other three reuse.
            if index % 4 == 0:
                assert "args" not in spans[0]
                assert counters["daq.samples"] > 0
                assert "daq.reused" not in counters
            else:
                assert spans[0]["args"] == {"reused": True}
                assert counters["daq.reused"] == 1
                assert "daq.samples" not in counters
            # The first DAQ period's plain cells take the two HPM
            # periods' timer passes; every other cell reuses one.
            if index in (0, 2):
                assert "args" not in hpm_spans[0]
                assert counters["hpm.samples"] > 0
                assert "hpm.reused" not in counters
            else:
                assert hpm_spans[0]["args"] == {"reused": True}
                assert counters["hpm.reused"] == 1
                assert "hpm.samples" not in counters


class TestPowerTraceStatistics:
    def test_profiles_from_a_cached_trace_equal_a_fresh_recompute(
            self, artifact):
        result = Experiment(GRID.cells()[0]).measure(artifact)
        power = result.power
        first = result.profiles()
        assert result.profiles() == first
        fresh = PowerTrace(
            times_s=power.times_s.copy(),
            cpu_power_w=power.cpu_power_w.copy(),
            mem_power_w=power.mem_power_w.copy(),
            component=power.component.copy(),
            sample_period_s=power.sample_period_s,
            window_s=power.window_s.copy(),
        )
        assert component_profiles(fresh, result.perf, "jikes") == first
        # Callers get copies: editing one leaves the cache intact.
        power.component_avg_power_w().clear()
        power.component_peak_power_w().clear()
        assert power.component_avg_power_w() == \
            fresh.component_avg_power_w()
        assert power.component_peak_power_w() == \
            fresh.component_peak_power_w()
