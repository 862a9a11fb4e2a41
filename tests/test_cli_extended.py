"""Tests for the pauses/export CLI commands."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cli import main

DAQ_SWEEP = (Path(__file__).resolve().parents[1] / "examples" / "scenarios"
             / "daq-period-sweep.toml")


class TestPausesCommand:
    def test_output(self, capsys):
        code = main([
            "pauses", "_202_jess", "--heap", "32",
            "--input-scale", "0.2", "--collector", "SemiSpace",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "pauses" in out
        assert "MMU" in out
        assert "window ms" in out


class TestExportCommand:
    def test_writes_files(self, tmp_path, capsys):
        prefix = str(tmp_path / "exp")
        code = main([
            "export", "_201_compress", "--heap", "32",
            "--input-scale", "0.2", "--collector", "MarkSweep",
            "--output", prefix,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "wrote" in out

        summary = json.loads((tmp_path / "exp.json").read_text())
        assert summary["config"]["benchmark"] == "_201_compress"
        assert summary["gc"]["collections"] > 0

        csv_text = (tmp_path / "exp.csv").read_text()
        header = csv_text.splitlines()[0]
        assert header == \
            "time_s,cpu_power_w,mem_power_w,component,window_s"
        assert len(csv_text.splitlines()) > 1000


class TestWorkloadCommand:
    def test_output(self, capsys):
        code = main(["workload", "_202_jess"])
        assert code == 0
        out = capsys.readouterr().out
        assert "_202_jess" in out
        assert "nursery survival" in out
        assert "live set" in out


class TestOverheadCommand:
    def test_frontier_table_and_artifact_reuse(self, tmp_path, capsys):
        store = str(tmp_path / "artifacts")
        argv = [
            "overhead", "--heap", "24", "--input-scale", "0.1",
            "--periods", "40", "400", "2000",
            "--artifact-dir", store,
            "--output", str(tmp_path / "frontier.json"),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "(simulated," in out
        assert "misattributed %" in out
        assert "3 measurements" in out

        frontier = json.loads((tmp_path / "frontier.json").read_text())
        assert len(frontier["points"]) == 3
        assert frontier["artifact_source"] == "simulated"
        periods = [p["period_us"] for p in frontier["points"]]
        assert periods == [40.0, 400.0, 2000.0]
        # Coarser sampling takes fewer DAQ samples.
        samples = [p["daq_samples"] for p in frontier["points"]]
        assert samples == sorted(samples, reverse=True)

        # Second invocation measures off the stored artifact.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "(store," in out

    def test_periods_share_one_session(self, tmp_path, capsys,
                                       monkeypatch):
        """One run reconstruction and one perturbation report for all
        periods, and every frontier point (apart from its wall time)
        equals a standalone measurement of the stored artifact."""
        import repro.core.simulation as simulation
        from repro.analysis.validation import attribution_error
        from repro.campaign.artifacts import ArtifactStore, sim_key
        from repro.core.experiment import Experiment
        from repro.core.simulation import SimulationArtifact
        from repro.jvm.components import Component
        from repro.spec import ScenarioSpec

        store = tmp_path / "artifacts"
        frontier_path = tmp_path / "frontier.json"
        periods = [40.0, 400.0, 2000.0]
        argv = [
            "overhead", "--heap", "24", "--input-scale", "0.1",
            "--periods", *map(str, periods),
            "--artifact-dir", str(store),
        ]
        assert main(argv) == 0
        calls = {"run_result": 0, "perturbation_report": 0}

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            SimulationArtifact, "run_result",
            counting("run_result", SimulationArtifact.run_result),
        )
        monkeypatch.setattr(
            simulation, "perturbation_report",
            counting("perturbation_report", simulation.perturbation_report),
        )
        assert main(argv + ["--output", str(frontier_path)]) == 0
        capsys.readouterr()
        assert calls == {"run_result": 1, "perturbation_report": 1}
        monkeypatch.undo()

        frontier = json.loads(frontier_path.read_text())
        config = ScenarioSpec.for_experiment(
            "_202_jess", heap_mb=24, input_scale=0.1,
        ).experiment_config()
        assert sim_key(config) == frontier["sim_key"]
        artifact = ArtifactStore(store).get_key(frontier["sim_key"])
        truth = sum(
            artifact.timeline().component_cpu_energy_j().values()
        )
        for point, period_us in zip(frontier["points"], periods):
            period_s = period_us / 1e6
            result = Experiment(
                replace(config, daq_period_s=period_s)
            ).measure(artifact)
            report = attribution_error(
                artifact.run_result(), artifact.measurement_target(),
                sample_period_s=period_s,
            )
            perturb = result.perturbation
            point.pop("measure_wall_s")
            assert point == {
                "period_us": period_us,
                "daq_samples": result.power.n_samples,
                "cpu_energy_j": result.cpu_energy_j,
                "energy_error_pct":
                    100 * abs(result.cpu_energy_j - truth) / truth,
                "misattributed_pct":
                    100 * report.total_misattribution_fraction(),
                "gc_error_pct": 100 * report.relative_error(Component.GC),
                "perturbation_energy_pct": 100 * perturb.energy_fraction,
                "perturbation_time_pct": 100 * perturb.time_fraction,
            }

    def test_40us_point_equals_default_period_measurement(
            self, tmp_path, capsys):
        """``--periods 40`` is the DAQ's default 40e-6 s period, not a
        float one ulp off it: the frontier point equals a measurement
        of the same artifact at the default ``daq_period_s``."""
        from repro.analysis.validation import attribution_error
        from repro.campaign.artifacts import ArtifactStore
        from repro.core.experiment import Experiment
        from repro.jvm.components import Component
        from repro.spec import ScenarioSpec

        store = tmp_path / "artifacts"
        frontier_path = tmp_path / "frontier.json"
        assert main([
            "overhead", "--heap", "24", "--input-scale", "0.2",
            "--periods", "40", "--artifact-dir", str(store),
            "--output", str(frontier_path),
        ]) == 0
        capsys.readouterr()
        (point,) = json.loads(frontier_path.read_text())["points"]
        config = ScenarioSpec.for_experiment(
            "_202_jess", heap_mb=24, input_scale=0.2,
        ).experiment_config()
        artifact = ArtifactStore(store).get(config)
        result = Experiment(config).measure(artifact)
        report = attribution_error(
            artifact.run_result(), artifact.measurement_target(),
            sample_period_s=config.daq_period_s,
        )
        assert point["daq_samples"] == result.power.n_samples
        assert point["cpu_energy_j"] == result.cpu_energy_j
        assert point["misattributed_pct"] == (
            100 * report.total_misattribution_fraction())
        assert point["gc_error_pct"] == (
            100 * report.relative_error(Component.GC))

    def test_no_artifacts_flag(self, capsys):
        assert main([
            "overhead", "--heap", "24", "--input-scale", "0.1",
            "--periods", "40",  "--no-artifacts",
        ]) == 0
        out = capsys.readouterr().out
        assert "(simulated," in out
        assert "artifact store:" not in out


class TestUncertaintyCommand:
    def test_bootstrap_twice_through_one_artifact_store(self, tmp_path,
                                                        capsys):
        """Two bootstrap runs over one artifact store: the report is a
        pure function of (config, noise, seed, N), and 32 replicates
        ride on one recorded execution the rerun reads back."""
        runs = []
        for n in (1, 2):
            out = tmp_path / f"unc{n}.json"
            assert main([
                "uncertainty", "--heap", "32", "--input-scale", "0.2",
                "--replicates", "32",
                "--artifact-dir", str(tmp_path / "artifacts"),
                "--output", str(out),
            ]) == 0
            runs.append((capsys.readouterr().out,
                         json.loads(out.read_text())))
        (text1, first), (text2, second) = runs
        assert "(simulated," in text1
        assert "(store," in text2
        assert json.dumps(first["report"], sort_keys=True) == \
            json.dumps(second["report"], sort_keys=True)
        assert first["sim_key"] == second["sim_key"]
        assert first["counters"]["n_simulations"] == 1
        assert first["counters"]["artifact_source"] == "simulated"
        assert second["counters"]["n_simulations"] == 0
        assert second["counters"]["artifact_source"] == "store"
        report = first["report"]
        assert report["n_replicates"] == 32
        for name, dist in report["totals"].items():
            assert dist["n"] == 32, name
            assert dist["ci_low"] <= dist["mean"] <= dist["ci_high"], name


class TestSpecCampaignCommand:
    def test_daq_sweep_twice_through_one_artifact_store(self, tmp_path,
                                                        capsys):
        """6 cells = 3 DAQ periods x 2 DVFS points: 2 sim identities,
        simulated once each; the rerun hits the store for both."""
        summaries = []
        for n in (1, 2):
            out = tmp_path / f"run{n}.json"
            assert main([
                "campaign",
                "--spec", str(DAQ_SWEEP),
                "--no-cache", "--artifact-dir", str(tmp_path / "artifacts"),
                "--output", str(out),
            ]) == 0
            capsys.readouterr()
            report = json.loads(out.read_text())
            assert report["summary"]["n_failed"] == 0
            assert report["scenario"]["spec_hash"]
            summaries.append(report["summary"])
        first, second = summaries
        assert first["n_sim_keys"] == second["n_sim_keys"] == 2
        assert first["n_simulations"] == 2
        assert first["n_artifact_hits"] == 0
        assert second["n_simulations"] == 0
        assert second["n_artifact_hits"] == 2


class TestCacheArtifactStore:
    def test_stats_includes_artifact_store(self, tmp_path, capsys):
        assert main([
            "cache", "stats",
            "--cache-dir", str(tmp_path / "cells"),
            "--result-dir", str(tmp_path / "results"),
            "--artifact-dir", str(tmp_path / "artifacts"),
        ]) == 0
        out = capsys.readouterr().out
        assert "artifact store" in out


class TestSpecRunFields:
    """``pauses`` and ``validate`` run the spec's own run fields (here
    two cold repetitions), as ``simulate(config)`` does."""

    SPEC = """
[axes]
benchmarks = ["_202_jess"]
collectors = ["SemiSpace"]
heap_mbs = [32]
input_scales = [0.1]

[run]
warmup = false
repetitions = 2
n_slices = 40
"""

    @pytest.fixture(scope="class")
    def spec_and_sim(self, tmp_path_factory):
        from repro.core.simulation import simulate
        from repro.spec import ScenarioSpec

        path = tmp_path_factory.mktemp("spec") / "two-reps.toml"
        path.write_text(self.SPEC)
        config = ScenarioSpec.from_file(path).experiment_config()
        assert config.repetitions == 2 and not config.warmup
        return path, config, simulate(config)

    def test_pauses_reads_the_repetitions(self, spec_and_sim, capsys):
        from repro.analysis.pauses import pause_stats

        path, config, sim = spec_and_sim
        assert main(["pauses", "--spec", str(path)]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        stats = pause_stats(sim.run.timeline)
        assert first == (f"_202_jess ({sim.run.collector_name}, 32 MB): "
                         f"{stats.describe()}")

    def test_validate_reads_the_repetitions(self, spec_and_sim, capsys,
                                            monkeypatch):
        from repro.analysis import validation

        path, config, sim = spec_and_sim
        reports = []
        original = validation.attribution_error

        def spy(run, platform, **kwargs):
            reports.append(original(run, platform, **kwargs))
            return reports[-1]

        monkeypatch.setattr(validation, "attribution_error", spy)
        assert main(["validate", "--spec", str(path),
                     "--periods", "40", "1000"]) == 0
        want = [original(sim.run, sim.platform,
                         sample_period_s=period_us / 1e6)
                for period_us in (40.0, 1000.0)]
        assert [(r.true_energy_j, r.measured_energy_j) for r in reports] \
            == [(r.true_energy_j, r.measured_energy_j) for r in want]
