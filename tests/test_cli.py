"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_list(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "_202_jess"])
        assert args.benchmark == "_202_jess"
        assert args.vm == "jikes"
        assert args.heap == 64

    def test_sweep_args(self):
        args = build_parser().parse_args([
            "sweep", "_213_javac", "--heaps", "32", "48",
            "--collectors", "SemiSpace",
        ])
        assert args.heaps == [32, 48]
        assert args.collectors == ["SemiSpace"]

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_vm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "x", "--vm", "hotspot"])


class TestCommands:
    def test_list_output(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "_213_javac" in out
        assert "DaCapo" in out
        assert "pxa255" in out

    def test_run_output(self, capsys):
        code = main([
            "run", "_201_compress", "--heap", "32",
            "--input-scale", "0.2", "--collector", "MarkSweep",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "_201_compress" in out
        assert "EDP" in out
        assert "GC" in out

    def test_sweep_output(self, capsys):
        code = main([
            "sweep", "_202_jess", "--heaps", "32", "64",
            "--collectors", "MarkSweep", "GenMS",
            "--input-scale", "0.2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "MarkSweep" in out
        assert "GenMS" in out
        assert "32" in out and "64" in out

    def test_sweep_prints_oom_cell_as_dash(self, capsys):
        # Neither collector fits _209_db's live set in 8 MB: those
        # cells are left off the series, like the figures leave them
        # off the plot, and the sweep still succeeds.
        code = main([
            "sweep", "_209_db", "--heaps", "8", "16",
            "--collectors", "SemiSpace", "GenCopy",
            "--input-scale", "0.2",
        ])
        assert code == 0
        rows = {
            line.split()[0]: line.split()[1:]
            for line in capsys.readouterr().out.splitlines()
            if line.strip()
        }
        assert rows["heap"] == ["MB", "8", "16"]
        for collector in ("SemiSpace", "GenCopy"):
            oom, edp = rows[collector]
            assert oom == "-"
            assert float(edp) > 0

    def test_validate_output(self, capsys):
        code = main([
            "validate", "--benchmark", "_201_compress",
            "--input-scale", "0.2", "--periods", "40", "1000",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "misattributed" in out

    def test_thermal_output(self, capsys):
        code = main([
            "thermal", "--benchmark", "_222_mpegaudio",
            "--repetitions", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "steady" in out


class TestObservabilityFlags:
    def test_run_accepts_trace_and_metrics(self):
        args = build_parser().parse_args([
            "run", "-b", "_202_jess", "--trace", "out.json",
            "--metrics",
        ])
        assert args.bench == "_202_jess"
        assert args.trace == "out.json"
        assert args.metrics is True

    def test_top_level_verbose_quiet(self):
        args = build_parser().parse_args(["--verbose", "list"])
        assert args.verbose and not args.quiet
        args = build_parser().parse_args(["-q", "run", "_202_jess"])
        assert args.quiet

    def test_campaign_trace_dir(self):
        args = build_parser().parse_args([
            "campaign", "--benchmarks", "_202_jess",
            "--trace-dir", "traces",
        ])
        assert args.trace_dir == "traces"

    def test_trace_subcommand(self):
        args = build_parser().parse_args(["trace", "t.json",
                                          "--top", "5"])
        assert args.command == "trace"
        assert args.file == "t.json"
        assert args.top == 5

    def test_run_without_benchmark_fails(self, capsys):
        assert main(["run", "--heap", "32"]) == 2
        assert "benchmark" in capsys.readouterr().err

    def test_run_trace_then_summarize(self, capsys, tmp_path):
        import json

        trace = tmp_path / "out.json"
        code = main([
            "run", "-b", "_202_jess", "--heap", "32",
            "--input-scale", "0.2", "--trace", str(trace),
            "--metrics",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "instrumentation perturbation" in out
        assert "daq.samples" in out
        events = json.loads(trace.read_text())
        assert isinstance(events, list) and events, "empty trace"
        spans = [e for e in events if e.get("ph") == "X"]
        assert spans
        for event in spans:
            for key in ("name", "ph", "ts", "dur", "pid", "tid"):
                assert key in event, f"missing {key}: {event}"
        # Both clocks: the simulated one and the wall clock.
        assert {e["pid"] for e in spans} == {1, 2}

        assert main(["trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "simulated clock" in out
        assert "wall clock" in out


class TestServiceParser:
    def test_serve_defaults(self):
        from repro.serve.server import DEFAULT_PORT

        args = build_parser().parse_args(["serve"])
        assert args.port == DEFAULT_PORT
        assert args.queue_size == 64
        assert args.job_workers == 2

    def test_submit_and_jobs(self):
        args = build_parser().parse_args(
            ["submit", "spec.toml", "--wait",
             "--server", "http://x:1"]
        )
        assert args.spec == "spec.toml"
        assert args.wait
        args = build_parser().parse_args(["jobs"])
        assert args.id is None

    def test_cache_size_suffixes(self):
        from repro.cli import _parse_size

        assert _parse_size("1024") == 1024
        assert _parse_size("2K") == 2048
        assert _parse_size("500M") == 500 * 1024**2
        assert _parse_size("1G") == 1024**3
        with pytest.raises(Exception):
            _parse_size("lots")


class TestCacheCommand:
    def test_stats_lists_both_stores(self, tmp_path, capsys):
        code = main([
            "cache", "stats",
            "--cache-dir", str(tmp_path / "cells"),
            "--result-dir", str(tmp_path / "results"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "cell cache" in out
        assert "result store" in out

    def test_prune_requires_budget(self, tmp_path, capsys):
        code = main([
            "cache", "prune",
            "--cache-dir", str(tmp_path / "cells"),
            "--result-dir", str(tmp_path / "results"),
        ])
        assert code == 2
        assert "--max-bytes" in capsys.readouterr().err

    def test_prune_evicts_to_budget(self, tmp_path, capsys):
        from repro.serve.store import ResultStore

        store = ResultStore(tmp_path / "results")
        store.put_bytes("aa" * 32, b"x" * 1000)
        store.put_bytes("bb" * 32, b"y" * 1000)
        code = main([
            "cache", "prune", "--max-bytes", "1K",
            "--cache-dir", str(tmp_path / "cells"),
            "--result-dir", str(tmp_path / "results"),
        ])
        assert code == 0
        assert "evicted" in capsys.readouterr().out
        assert len(store) == 1


class TestReplayCommand:
    def populate(self, tmp_path):
        """Record one tiny scenario into a result store; returns the
        store dir and the result key."""
        from repro.campaign.runner import CampaignRunner
        from repro.provenance import build_envelope
        from repro.serve.pool import build_result_payload, encode_result
        from repro.serve.store import ResultStore
        from repro.spec import ScenarioSpec

        spec = ScenarioSpec.for_experiment(
            "_202_jess", collector="SemiSpace", heap_mb=32,
            input_scale=0.2,
        )
        result = CampaignRunner(workers=1).run(spec)
        data = encode_result(build_result_payload(spec, result))
        key = spec.spec_hash()
        ResultStore(tmp_path).put_bytes(
            key, data, envelope=build_envelope("result", key)
        )
        return key

    def test_replay_by_hash_is_identical(self, tmp_path, capsys):
        key = self.populate(tmp_path)
        assert main(["replay", key,
                     "--result-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "identical" in out
        assert "1 identical, 0 drifted, 0 unreplayable" in out

    def test_replay_by_unique_prefix(self, tmp_path, capsys):
        key = self.populate(tmp_path)
        assert main(["replay", key[:12],
                     "--result-dir", str(tmp_path)]) == 0
        assert "identical" in capsys.readouterr().out

    def test_replay_all_sweeps_the_store(self, tmp_path, capsys):
        self.populate(tmp_path)
        assert main(["replay", "--all",
                     "--result-dir", str(tmp_path)]) == 0
        assert "1 identical" in capsys.readouterr().out

    def test_drifted_store_entry_exits_one(self, tmp_path, capsys):
        import json

        from repro.serve.store import ResultStore

        key = self.populate(tmp_path)
        store = ResultStore(tmp_path)
        payload = json.loads(store.get_bytes(key))
        payload["cells"][0]["totals"]["cpu_energy_j"] += 5.0
        store.put_bytes(key, (json.dumps(
            payload, sort_keys=True, separators=(",", ":")
        ) + "\n").encode())
        assert main(["replay", key,
                     "--result-dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "drifted" in out
        assert "cpu_energy_j" in out

    def test_unknown_hash_exits_two(self, tmp_path, capsys):
        assert main(["replay", "ab" * 32,
                     "--result-dir", str(tmp_path)]) == 2
        assert "unreplayable" in capsys.readouterr().out

    def test_empty_store_with_all_exits_two(self, tmp_path, capsys):
        assert main(["replay", "--all",
                     "--result-dir", str(tmp_path)]) == 2
        assert "no stored results" in capsys.readouterr().err

    def test_no_target_errors(self, tmp_path, capsys):
        assert main(["replay", "--result-dir", str(tmp_path)]) == 2
        assert "name a result hash" in capsys.readouterr().err


class TestCacheLineageCommand:
    def test_lineage_lists_groups_and_stale_filter(self, tmp_path,
                                                   capsys):
        from repro.provenance import build_envelope
        from repro.serve.store import ResultStore

        store = ResultStore(tmp_path / "results")
        store.put_bytes("aa" * 32, b'{"n": 1}',
                        envelope=build_envelope("result", "aa" * 32))
        store.put_bytes("bb" * 32, b'{"n": 2}')  # legacy, no envelope
        args = ["--cache-dir", str(tmp_path / "cells"),
                "--result-dir", str(tmp_path / "results")]
        assert main(["cache", "lineage", *args]) == 0
        out = capsys.readouterr().out
        assert "current" in out
        assert "stale" in out
        assert "(none)" in out  # the legacy group has no digest
        assert main(["cache", "lineage", "--stale", *args]) == 0
        out = capsys.readouterr().out
        assert "current" not in out.replace("(stale only)", "")

    def test_prune_stale_evicts_only_foreign(self, tmp_path, capsys):
        from repro.provenance import build_envelope
        from repro.serve.store import ResultStore

        store = ResultStore(tmp_path / "results")
        store.put_bytes("aa" * 32, b'{"n": 1}',
                        envelope=build_envelope("result", "aa" * 32))
        store.put_bytes("bb" * 32, b'{"n": 2}')
        assert main(["cache", "prune", "--stale",
                     "--cache-dir", str(tmp_path / "cells"),
                     "--result-dir", str(tmp_path / "results")]) == 0
        out = capsys.readouterr().out
        assert "result store: evicted 1 stale entries" in out
        assert store.get_bytes("aa" * 32) is not None
        assert store.get_bytes("bb" * 32) is None

    def test_prune_requires_a_mode(self, tmp_path, capsys):
        assert main(["cache", "prune",
                     "--cache-dir", str(tmp_path / "cells"),
                     "--result-dir", str(tmp_path / "results")]) == 2
        assert "--max-bytes or --stale" in capsys.readouterr().err
