"""Tests for sim-key sharing in the campaign runner.

A DAQ-period sweep is the motivating case: N cells that differ only in
measurement knobs must run exactly one simulate phase, and each cell's
payload must be byte-identical to the fused single-cell path.
"""

import pytest

from repro.campaign import CampaignRunner
from repro.campaign.runner import _execute_cell
from repro.spec import ScenarioSpec

# 4 measurement points over one simulation identity.
SWEEP = ScenarioSpec(
    benchmarks=("_202_jess",),
    collectors=("SemiSpace",),
    heap_mbs=(24,),
    input_scales=(0.1,),
    n_slices=40,
    daq_periods_s=(40e-6, 200e-6, 1e-3, 1e-2),
)

# Two sim identities x two measurement points.
MIXED = ScenarioSpec(
    benchmarks=("_202_jess",),
    collectors=("SemiSpace", "GenCopy"),
    heap_mbs=(24,),
    input_scales=(0.1,),
    n_slices=40,
    daq_periods_s=(40e-6, 1e-3),
)


@pytest.fixture(scope="module")
def sweep_result():
    return CampaignRunner(workers=1).run(SWEEP)


class TestSweepSharesOneSimulation:
    def test_one_simulation_for_four_cells(self, sweep_result):
        s = sweep_result.summary
        assert len(sweep_result) == 4
        assert s.n_ok == 4
        assert s.n_simulations == 1
        assert s.n_sim_keys == 1
        assert s.n_artifact_hits == 0

    def test_cells_annotated_with_sim_key(self, sweep_result):
        keys = {c.sim_key for c in sweep_result}
        assert len(keys) == 1
        assert all(len(k) == 64 for k in keys)
        assert sum(1 for c in sweep_result if c.simulated) == 1
        # Grid order is preserved: the first cell ran the simulation.
        assert sweep_result.cells[0].simulated

    def test_payloads_match_fused_path(self, sweep_result):
        """Shared-simulation output == per-cell fused output, byte for
        byte (the acceptance criterion)."""
        for cell in sweep_result:
            fused = _execute_cell(cell.config, None)
            assert fused["ok"]
            assert cell.payload == fused["payload"]

    def test_summary_counters_exported(self, sweep_result):
        data = sweep_result.summary.as_dict()
        assert data["n_simulations"] == 1
        assert data["n_sim_keys"] == 1
        assert data["n_artifact_hits"] == 0
        assert "1 simulation(s) across 1 sim-key(s)" in \
            sweep_result.summary.describe()

    def test_parallel_matches_serial(self, sweep_result):
        parallel = CampaignRunner(workers=2).run(SWEEP)
        assert parallel.summary.n_simulations == 1
        for a, b in zip(sweep_result, parallel):
            assert a.payload == b.payload


class TestArtifactStoreAcrossRuns:
    def test_second_run_simulates_nothing(self, tmp_path):
        art = tmp_path / "artifacts"
        first = CampaignRunner(workers=1, artifact_dir=art).run(SWEEP)
        assert first.summary.n_simulations == 1
        assert first.summary.n_artifact_hits == 0
        second = CampaignRunner(workers=1, artifact_dir=art).run(SWEEP)
        assert second.summary.n_simulations == 0
        assert second.summary.n_artifact_hits == 1
        for a, b in zip(first, second):
            assert a.payload == b.payload

    def test_store_holds_one_artifact_per_key(self, tmp_path):
        from repro.campaign.artifacts import ArtifactStore

        art = tmp_path / "artifacts"
        CampaignRunner(workers=1, artifact_dir=art).run(MIXED)
        assert len(ArtifactStore(art)) == 2


class TestMixedGrid:
    def test_two_keys_two_simulations(self):
        result = CampaignRunner(workers=1).run(MIXED)
        s = result.summary
        assert len(result) == 4
        assert s.n_simulations == 2
        assert s.n_sim_keys == 2
        # Cells pair off: same collector -> same sim-key.
        by_collector = {}
        for cell in result:
            by_collector.setdefault(
                cell.config.collector, set()
            ).add(cell.sim_key)
        assert all(len(keys) == 1
                   for keys in by_collector.values())
