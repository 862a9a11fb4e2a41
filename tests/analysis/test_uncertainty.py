"""Tests for the probabilistic-attribution subsystem.

Four contracts, in rough order of importance:

1. **Byte-identity when off** — with no noise model attached, every
   result matches the goldens recorded before the subsystem existed
   (``tests/golden/pre_uncertainty_results.json``, one pin per
   platform/VM reference cell).
2. **Determinism when on** — a fixed base seed yields an identical
   report across runs, and replicate measurements are order- and
   worker-independent (derived seeds, not sequential draws).
3. **Calibration** — the totals carry exact ground truth from the
   recorded timeline, so their 95% intervals must cover truth at
   roughly the nominal rate across independent cells.
4. **One simulation** — a bootstrap (or a measurement-axis campaign)
   re-measures a single recorded execution; it never re-simulates.
"""

import json
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.analysis.uncertainty import (
    BootstrapEngine,
    NoiseConfig,
    REPLICATE_SEED_VERSION,
    bootstrap_uncertainty,
    derive_replicate_seed,
)
from repro.campaign.runner import run_campaign
from repro.core.experiment import Experiment, ExperimentConfig
from repro.errors import ConfigurationError
from repro.export import format_with_ci, result_to_dict
from repro.spec import ScenarioSpec

GOLDEN = Path(__file__).parent.parent / "golden" / \
    "pre_uncertainty_results.json"

SMALL = ExperimentConfig(
    "_202_jess", vm="jikes", platform="p6", collector="SemiSpace",
    heap_mb=24, seed=11, input_scale=0.1, n_slices=40,
)


@pytest.fixture(scope="module")
def small_sim():
    return Experiment(SMALL).simulate()


@pytest.fixture(scope="module")
def small_report(small_sim):
    return bootstrap_uncertainty(SMALL, small_sim, replicates=16)


class TestReplicateSeeds:
    def test_stable_pinned_derivation(self):
        # The derivation is part of the on-disk contract (reports
        # record seed_version); these values must never change for v1.
        import hashlib
        for base, idx in ((42, 0), (42, 31), (7, 5)):
            parts = "|".join([
                "uncertainty-replicate", "v1", str(base), str(idx),
                "measure",
            ])
            expected = int.from_bytes(
                hashlib.sha256(parts.encode()).digest()[:4], "big"
            )
            assert derive_replicate_seed(base, idx) == expected

    def test_distinct_across_index_seed_and_role(self):
        seeds = {derive_replicate_seed(42, i) for i in range(64)}
        assert len(seeds) == 64
        assert derive_replicate_seed(42, 0) != \
            derive_replicate_seed(43, 0)
        assert derive_replicate_seed(42, 0, role="resample") != \
            derive_replicate_seed(42, 0)

    def test_extending_n_never_reshuffles(self):
        first_32 = [derive_replicate_seed(42, i) for i in range(32)]
        first_of_64 = [derive_replicate_seed(42, i) for i in range(64)]
        assert first_of_64[:32] == first_32

    def test_version_and_index_guards(self):
        with pytest.raises(ConfigurationError):
            derive_replicate_seed(42, 0, version=99)
        with pytest.raises(ConfigurationError):
            derive_replicate_seed(42, -1)
        assert REPLICATE_SEED_VERSION == 1


class TestEngineValidation:
    def test_rejects_too_few_replicates(self):
        with pytest.raises(ConfigurationError):
            BootstrapEngine(SMALL, replicates=1)

    @pytest.mark.parametrize("ci", [0.0, 1.0, -0.5, 1.5])
    def test_rejects_bad_ci_level(self, ci):
        with pytest.raises(ConfigurationError):
            BootstrapEngine(SMALL, ci_level=ci)

    def test_rejects_non_config_noise(self):
        with pytest.raises(ConfigurationError):
            BootstrapEngine(SMALL, noise={"adc_bits": 12})

    def test_rejects_disabled_noise(self):
        quiet = NoiseConfig(adc_bits=None, daq_jitter_frac=0.0,
                            hpm_jitter_frac=0.0)
        with pytest.raises(ConfigurationError):
            BootstrapEngine(SMALL, noise=quiet)

    def test_run_rejects_raw_configs(self, small_sim):
        engine = BootstrapEngine(SMALL, replicates=4)
        with pytest.raises(ConfigurationError):
            engine.run(SMALL)


class TestDeterminism:
    def test_same_seed_same_report(self, small_sim, small_report):
        again = bootstrap_uncertainty(SMALL, small_sim, replicates=16)
        assert again.as_dict() == small_report.as_dict()

    def test_artifact_and_in_memory_agree(self, small_sim,
                                          small_report):
        from_artifact = bootstrap_uncertainty(
            SMALL, small_sim.artifact(), replicates=16
        )
        assert from_artifact.as_dict() == small_report.as_dict()

    def test_replicates_are_order_independent(self, small_sim):
        engine = BootstrapEngine(SMALL, replicates=8)
        serial = [
            engine.measure_replicate(small_sim, i).cpu_energy_j
            for i in range(8)
        ]
        reversed_order = [
            engine.measure_replicate(small_sim, i).cpu_energy_j
            for i in reversed(range(8))
        ]
        assert serial == list(reversed(reversed_order))

    def test_replicates_survive_thread_workers(self, small_sim):
        engine = BootstrapEngine(SMALL, replicates=8)
        serial = [
            engine.measure_replicate(small_sim, i).cpu_energy_j
            for i in range(8)
        ]
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(
                lambda i: engine.measure_replicate(
                    small_sim, i
                ).cpu_energy_j,
                range(8),
            ))
        assert threaded == serial

    def test_distinct_seeds_give_distinct_replicates(self, small_sim):
        engine = BootstrapEngine(SMALL, replicates=8)
        energies = {
            engine.measure_replicate(small_sim, i).cpu_energy_j
            for i in range(8)
        }
        assert len(energies) > 1


class TestReportShape:
    def test_totals_and_components_complete(self, small_report):
        assert set(small_report.totals) == {
            "cpu_energy_j", "mem_energy_j", "total_energy_j",
        }
        assert small_report.components
        for dist in small_report.totals.values():
            assert dist.n == 16
            assert dist.ci_low <= dist.mean <= dist.ci_high
            assert dist.stddev > 0
        for dist in small_report.components.values():
            assert dist.n == 16

    def test_noise_widens_nothing_catastrophically(self, small_sim,
                                                   small_report):
        # The error model perturbs the observation, not the workload:
        # the spread must stay small relative to the point estimate.
        point = Experiment(SMALL).measure(small_sim)
        dist = small_report.totals["cpu_energy_j"]
        assert dist.ci_half_width < 0.05 * point.cpu_energy_j
        assert dist.mean == pytest.approx(
            point.cpu_energy_j, rel=0.05
        )

    def test_lookup_and_describe(self, small_report):
        assert small_report.distribution("cpu_energy_j") is \
            small_report.totals["cpu_energy_j"]
        with pytest.raises(ConfigurationError):
            small_report.distribution("nope")
        text = small_report.describe()
        assert "cpu_energy_j" in text
        assert "95% percentile CI" in text

    def test_as_dict_round_trips_through_json(self, small_report):
        payload = small_report.as_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["seed_version"] == REPLICATE_SEED_VERSION
        assert payload["noise"]["adc_bits"] == 12


class TestCalibration:
    def test_total_intervals_cover_truth(self, small_sim):
        # Totals are unbiased under the noise model, so the 95%
        # percentile interval should cover the recorded truth at
        # roughly the nominal rate.  Pool the three totals over
        # several base seeds and assert a tolerant floor (small-N
        # percentile intervals under-cover slightly).
        covered = checked = 0
        for seed in (11, 12, 13, 14):
            cfg = ExperimentConfig(
                "_202_jess", vm="jikes", platform="p6",
                collector="SemiSpace", heap_mb=24, seed=seed,
                input_scale=0.1, n_slices=40,
            )
            sim = small_sim if seed == 11 else \
                Experiment(cfg).simulate()
            report = bootstrap_uncertainty(cfg, sim, replicates=16)
            for dist in report.totals.values():
                assert dist.truth is not None
                checked += 1
                covered += bool(dist.covered)
        assert checked == 12
        assert covered / checked >= 0.6


class TestSurfaceIntegration:
    def test_export_has_no_uncertainty_key_by_default(self, small_sim):
        result = Experiment(SMALL).measure(small_sim)
        assert "uncertainty" not in result_to_dict(result)

    def test_attach_to_surfaces_in_export(self, small_sim,
                                          small_report):
        result = Experiment(SMALL).measure(small_sim)
        engine = BootstrapEngine(SMALL, replicates=16)
        report = engine.run(small_sim, attach_to=result)
        assert result.uncertainty is report
        exported = result_to_dict(result)
        assert exported["uncertainty"] == small_report.as_dict()

    def test_format_with_ci(self, small_report):
        dist = small_report.totals["cpu_energy_j"]
        with_ci = format_with_ci(dist.mean, dist)
        assert "±" in with_ci and with_ci.endswith("J")
        assert "±" not in format_with_ci(1.25, None)


class TestNoiseFreeByteIdentity:
    """With no noise attached nothing in this PR may move a byte."""

    @pytest.mark.parametrize("pin", ["p6_jikes", "pxa255_kaffe"])
    def test_matches_pre_subsystem_golden(self, pin):
        golden = json.loads(GOLDEN.read_text())[pin]
        result = Experiment(
            ExperimentConfig(**golden["config"])
        ).run()
        # Compare through a JSON round trip so the stored text's
        # float formatting is the arbiter, exactly as `repro export`
        # would write it.
        assert json.loads(json.dumps(result_to_dict(result))) == \
            golden["result"]


class TestCampaignSharesOneSimulation:
    def test_hpm_sweep_records_once(self, tmp_path):
        campaign = ScenarioSpec(
            benchmarks=("_202_jess",),
            vms=("jikes",),
            platforms=("p6",),
            collectors=("SemiSpace",),
            heap_mbs=(24,),
            seeds=(11,),
            input_scales=(0.1,),
            n_slices=40,
            hpm_periods_s=(None, 0.002),
            hpm_rotations=(None, "xscale-pairs"),
        )
        outcome = run_campaign(
            campaign, artifact_dir=tmp_path / "artifacts"
        )
        summary = outcome.summary
        assert summary.n_cells == 4
        assert summary.n_ok == 4
        # The whole measurement-side matrix shares ONE recorded
        # execution: one simulate phase; the other three cells reuse
        # it in-memory within the sim-key group.
        assert summary.n_simulations == 1
        assert summary.n_sim_keys == 1
        # A fresh run against the same store never simulates at all —
        # the group is served by one artifact-store fetch.
        again = run_campaign(
            campaign, artifact_dir=tmp_path / "artifacts"
        ).summary
        assert again.n_simulations == 0
        assert again.n_artifact_hits == 1
