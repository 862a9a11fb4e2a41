"""Tests for the explicit simulate/measure split.

The contract under test is the tentpole guarantee: a run split into
``simulate()`` -> artifact -> ``measure()`` — including a full
serialize/deserialize round trip of the artifact — produces output
*byte-identical* to the fused ``run()`` path, for both of the paper's
reference platforms.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.core.experiment import Experiment, ExperimentConfig
from repro.core.simulation import (
    ARTIFACT_SCHEMA,
    SimulationArtifact,
    SimulationResult,
    simulate,
)
from repro.errors import (
    ConfigurationError,
    MeasurementError,
    TimelineError,
)
from repro.export import result_to_cell_dict
from repro.timeline import COLUMNS_SCHEMA, ExecutionTimeline, Segment

# The two reference cells named by the acceptance criteria: the P6
# desktop under Jikes RVM and the PXA255 handheld under Kaffe.
REFERENCE_CELLS = {
    "p6-jikes": ExperimentConfig(
        "_202_jess", vm="jikes", platform="p6",
        collector="SemiSpace", heap_mb=24, seed=99,
        input_scale=0.1, n_slices=40,
    ),
    "pxa255-kaffe": ExperimentConfig(
        "_213_javac", vm="kaffe", platform="pxa255",
        heap_mb=16, seed=77, input_scale=0.1, n_slices=40,
    ),
}


def cell_bytes(result):
    """The cell's canonical export, as bytes (the byte-identity unit
    the campaign cache and result store both key on)."""
    return json.dumps(result_to_cell_dict(result), sort_keys=True)


@pytest.fixture(scope="module", params=sorted(REFERENCE_CELLS))
def cell(request):
    config = REFERENCE_CELLS[request.param]
    return config, Experiment(config).run()


class TestSplitEqualsFused:
    def test_live_split_is_byte_identical(self, cell):
        config, fused = cell
        experiment = Experiment(config)
        sim = experiment.simulate()
        split = experiment.measure(sim)
        assert cell_bytes(split) == cell_bytes(fused)
        assert np.array_equal(split.power.cpu_power_w,
                              fused.power.cpu_power_w)
        assert np.array_equal(split.power.mem_power_w,
                              fused.power.mem_power_w)

    def test_artifact_split_is_byte_identical(self, cell):
        config, fused = cell
        experiment = Experiment(config)
        artifact = experiment.simulate().artifact()
        split = experiment.measure(artifact)
        assert cell_bytes(split) == cell_bytes(fused)

    def test_serialized_artifact_is_byte_identical(self, cell):
        config, fused = cell
        experiment = Experiment(config)
        payload = experiment.simulate().artifact().to_payload()
        revived = SimulationArtifact.from_payload(payload)
        split = experiment.measure(revived)
        assert cell_bytes(split) == cell_bytes(fused)
        assert np.array_equal(split.power.cpu_power_w,
                              fused.power.cpu_power_w)
        assert split.perf.n_samples == fused.perf.n_samples

    def test_measure_is_repeatable(self, cell):
        config, fused = cell
        experiment = Experiment(config)
        artifact = experiment.simulate().artifact()
        first = experiment.measure(artifact)
        second = experiment.measure(artifact)
        assert cell_bytes(first) == cell_bytes(second)

    def test_daq_period_is_measurement_only(self, cell):
        """One artifact serves any DAQ period — the sweep hook."""
        config, fused = cell
        experiment = Experiment(config)
        artifact = experiment.simulate().artifact()
        slow = Experiment(
            replace(config, daq_period_s=400e-6)
        ).measure(artifact)
        assert slow.power.n_samples < fused.power.n_samples
        # The ground truth side is untouched by the period change.
        assert slow.run.timeline.total_cycles == \
            fused.run.timeline.total_cycles


class TestArtifactRoundTrip:
    def test_payload_schema_and_versioned(self, cell):
        config, _ = cell
        payload = simulate(config).artifact().to_payload()
        assert payload["schema"] == ARTIFACT_SCHEMA
        assert SimulationArtifact.from_payload(payload).sim_key == \
            payload["sim_key"]

    def test_rejects_wrong_schema(self, cell):
        config, _ = cell
        payload = simulate(config).artifact().to_payload()
        payload["schema"] = "something-else"
        with pytest.raises(MeasurementError):
            SimulationArtifact.from_payload(payload)

    def test_timeline_values_and_dtypes_exact(self, cell):
        config, _ = cell
        sim = simulate(config)
        original = sim.run.timeline
        revived = sim.artifact().timeline()
        assert len(revived) == len(original)
        assert revived.tags == original.tags
        n = len(original)
        for name in original._columns():
            column = getattr(original, name)
            copy = getattr(revived, name)
            assert copy.dtype == column.dtype, name
            assert np.array_equal(copy[:n], column[:n]), name

    def test_port_history_exact(self, cell):
        config, _ = cell
        sim = simulate(config)
        cycles, values = sim.platform.port.history_arrays()
        port = sim.artifact().port()
        replay_cycles, replay_values = port.history_arrays()
        assert np.array_equal(replay_cycles, cycles)
        assert np.array_equal(replay_values, values)

    def test_gc_stats_preserved(self, cell):
        config, _ = cell
        sim = simulate(config)
        art = SimulationArtifact.from_payload(
            sim.artifact().to_payload()
        )
        assert art.run_result().gc_stats == sim.run.gc_stats

    def test_simulate_returns_simulation_result(self, cell):
        config, _ = cell
        sim = simulate(config)
        assert isinstance(sim, SimulationResult)
        assert sim.artifact().n_segments == len(sim.run.timeline)


class TestTimelineColumns:
    def _roundtrip(self, timeline):
        return ExecutionTimeline.from_columns(timeline.to_columns())

    def test_empty_timeline(self):
        timeline = ExecutionTimeline(clock_hz=1e9)
        revived = self._roundtrip(timeline)
        assert len(revived) == 0
        assert revived.clock_hz == 1e9
        # The revived timeline must stay appendable (capacity > 0).
        revived.append(Segment(
            start_cycle=0, end_cycle=10, component=1,
            instructions=5, l2_accesses=1, l2_misses=0,
            mem_accesses=1, cpu_power_w=1.0, mem_power_w=0.1,
        ))
        assert len(revived) == 1

    def test_single_segment(self):
        timeline = ExecutionTimeline(clock_hz=2e8)
        timeline.append(Segment(
            start_cycle=3, end_cycle=17, component=2,
            instructions=9, l2_accesses=4, l2_misses=2,
            mem_accesses=3, cpu_power_w=2.5, mem_power_w=0.25,
            tag="only",
        ))
        revived = self._roundtrip(timeline)
        assert len(revived) == 1
        assert revived.segment(0) == timeline.segment(0)
        assert revived.tags == ["only"]

    def test_schema_guard(self):
        timeline = ExecutionTimeline(clock_hz=1e9)
        data = timeline.to_columns()
        assert data["schema"] == COLUMNS_SCHEMA
        data["schema"] = "bogus"
        with pytest.raises(TimelineError):
            ExecutionTimeline.from_columns(data)


class TestMeasureGuards:
    def test_mismatched_artifact_refused(self):
        a = REFERENCE_CELLS["p6-jikes"]
        artifact = Experiment(a).simulate().artifact()
        other = ExperimentConfig(
            "_202_jess", vm="jikes", platform="p6",
            collector="SemiSpace", heap_mb=32, seed=99,
            input_scale=0.1, n_slices=40,
        )
        with pytest.raises(ConfigurationError,
                           match="simulation identity"):
            Experiment(other).measure(artifact)

    def test_measure_rejects_other_types(self):
        config = REFERENCE_CELLS["p6-jikes"]
        with pytest.raises(ConfigurationError):
            Experiment(config).measure("not-a-simulation")

    def test_measure_rejects_a_negative_seed(self):
        config = REFERENCE_CELLS["p6-jikes"]
        with pytest.raises(ConfigurationError, match="measurement_seed"):
            Experiment(config).measure("not-a-simulation",
                                       measurement_seed=-1)
