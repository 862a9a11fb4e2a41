"""Tests for the campaign executor: determinism, caching, isolation."""

import gc
import json
import os
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro import ExperimentConfig
from repro.campaign import CampaignRunner
from repro.campaign import runner as runner_module
from repro.campaign.runner import _CellTimer
from repro.errors import CellTimeoutError
from repro.spec import ScenarioSpec

# Small but non-trivial: 2 benchmarks x 2 collectors x 2 heaps = 8
# cells at a reduced input scale so the whole grid simulates in a
# couple of seconds.
SMALL = ScenarioSpec(
    benchmarks=("_202_jess", "_209_db"),
    collectors=("SemiSpace", "GenCopy"),
    heap_mbs=(32, 64),
    input_scales=(0.1,),
)


#: A good cell, a cell that fails on every attempt, a good cell.
POISONED = [
    ExperimentConfig(benchmark="_202_jess", heap_mb=32, input_scale=0.1),
    ExperimentConfig(benchmark="no_such_benchmark"),
    ExperimentConfig(benchmark="_209_db", heap_mb=32, input_scale=0.1),
]


_EXECUTE_GROUP = runner_module._execute_group


def _kill_worker_once(configs, timeout_s, trace_paths, artifact_dir):
    """``_execute_group`` whose first call for ``_209_db`` kills its
    worker process (the marker file sits beside the trace paths)."""
    marker = Path(trace_paths[0]).parent / "killed"
    if configs[0].benchmark == "_209_db" and not marker.exists():
        marker.touch()
        os._exit(1)
    return _EXECUTE_GROUP(configs, timeout_s, trace_paths, artifact_dir)


@pytest.fixture(scope="module")
def serial_result():
    return CampaignRunner(workers=1).run(SMALL)


class TestSerial:
    def test_all_cells_succeed(self, serial_result):
        assert len(serial_result) == 8
        assert serial_result.summary.n_ok == 8
        assert serial_result.summary.n_failed == 0
        assert not serial_result.failed_cells()

    def test_results_in_grid_order(self, serial_result):
        assert [c.config for c in serial_result] == list(SMALL.cells())

    def test_payload_schema(self, serial_result):
        for cell in serial_result:
            assert cell.payload["schema"] == "repro-cell-v1"
            assert cell.attempts == 1
            assert not cell.from_cache
            assert cell.wall_s > 0

    def test_summary_metrics(self, serial_result):
        s = serial_result.summary
        assert s.n_executed == 8
        assert s.n_cached == 0
        assert s.cache_hit_rate == 0.0
        assert s.cells_per_second > 0
        assert len(s.cell_wall_s) == 8
        assert "8 cells" in s.describe()

    def test_rerun_is_deterministic(self, serial_result):
        again = CampaignRunner(workers=1).run(SMALL)
        for a, b in zip(serial_result, again):
            assert a.payload == b.payload


class TestParallel:
    def test_parallel_bit_identical_to_serial(self, serial_result):
        parallel = CampaignRunner(workers=2).run(SMALL)
        assert parallel.summary.n_ok == 8
        for a, b in zip(serial_result, parallel):
            assert a.config == b.config
            assert a.payload == b.payload


class TestGridOrder:
    def test_reversed_grid_gives_the_same_bytes(self, serial_result):
        def encode(result):
            return {cell.config: json.dumps(cell.payload, sort_keys=True)
                    for cell in result}

        reversed_result = CampaignRunner(workers=1).run(SMALL.cells()[::-1])
        assert reversed_result.summary.n_ok == 8
        assert encode(reversed_result) == encode(serial_result)


class TestCache:
    def test_rerun_hits_cache_and_is_faster(self, tmp_path):
        cold = CampaignRunner(workers=1, cache_dir=tmp_path).run(SMALL)
        assert cold.summary.n_cached == 0

        t0 = time.perf_counter()
        warm = CampaignRunner(workers=1, cache_dir=tmp_path).run(SMALL)
        warm_wall = time.perf_counter() - t0

        assert warm.summary.cache_hit_rate == 1.0
        assert warm.summary.n_executed == 0
        assert all(c.from_cache for c in warm)
        for a, b in zip(cold, warm):
            assert a.payload == b.payload
        assert warm_wall * 5 < cold.summary.wall_s

    def test_cache_is_config_sensitive(self, tmp_path):
        CampaignRunner(workers=1, cache_dir=tmp_path).run(SMALL)
        shifted = replace(SMALL, seeds=(43,))
        other = CampaignRunner(workers=1, cache_dir=tmp_path).run(shifted)
        assert other.summary.n_cached == 0


class TestDegradation:
    def test_poisoned_cell_does_not_abort_campaign(self):
        result = CampaignRunner(workers=1, retries=0).run(POISONED)
        assert result.summary.n_ok == 2
        assert result.summary.n_failed == 1
        bad = result.failed_cells()[0]
        assert bad.config.benchmark == "no_such_benchmark"
        assert bad.error_type == "UnknownBenchmarkError"
        assert "no_such_benchmark" in bad.error
        # The good cells around it still produced payloads.
        assert result.cells[0].ok and result.cells[2].ok

    def test_poisoned_cell_parallel(self):
        # The same retry budget holds in the calling thread and on the
        # process pool.
        for workers in (1, 2):
            result = CampaignRunner(workers=workers, retries=1).run(
                POISONED)
            assert result.summary.n_ok == 2, workers
            bad = result.failed_cells()[0]
            assert bad.attempts == 2, workers  # first try + one retry

    def test_progress_fires_once_per_cell_with_retries(self):
        for workers in (1, 2):
            seen = []
            CampaignRunner(
                workers=workers, retries=1,
                progress=lambda i, total, cell: seen.append(
                    (i, total, cell.ok, cell.attempts)),
            ).run(POISONED)
            assert sorted(seen) == [
                (0, 3, True, 1), (1, 3, False, 2), (2, 3, True, 1),
            ], workers

    def test_oom_is_a_successful_outcome(self):
        cells = [ExperimentConfig(benchmark="_213_javac", heap_mb=8,
                                  input_scale=0.1)]
        result = CampaignRunner(workers=1).run(cells)
        (cell,) = result.cells
        assert cell.ok
        assert cell.oom
        assert cell.payload["oom"] is True
        assert cell.payload["config"]["heap_mb"] == 8

    def test_timeout_fails_cell_gracefully(self):
        # A 1 ms budget is far below any real cell's runtime, so the
        # in-worker interval timer must fire and fail the cell without
        # killing the campaign.
        cells = [ExperimentConfig(benchmark="_201_compress",
                                  heap_mb=64)]
        result = CampaignRunner(workers=1, retries=0,
                                timeout_s=1e-3).run(cells)
        (bad,) = result.cells
        assert not bad.ok
        assert bad.error_type == "CellTimeoutError"
        assert "0.001 s budget" in bad.error

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnraisableExceptionWarning")
    def test_timeout_inside_gc_callback_still_fails(self):
        # The alarm lands inside a gc.callbacks hook, where Python
        # reports its exception as unraisable and carries on: leaving
        # the timer must still raise it.
        def slow(phase, info):
            if phase == "start":
                deadline = time.perf_counter() + 0.1
                while time.perf_counter() < deadline:
                    pass

        gc.callbacks.append(slow)
        try:
            with pytest.raises(CellTimeoutError, match="budget"):
                with _CellTimer(0.01):
                    gc.collect()
        finally:
            gc.callbacks.remove(slow)

    def test_failed_cells_never_cached(self, tmp_path):
        cells = [ExperimentConfig(benchmark="no_such_benchmark")]
        runner = CampaignRunner(workers=1, retries=0, cache_dir=tmp_path)
        runner.run(cells)
        rerun = runner.run(cells)
        assert rerun.summary.n_cached == 0
        assert rerun.summary.n_failed == 1


class TestWorkerDeath:
    def test_dead_worker_is_retried_on_a_fresh_pool(self, tmp_path,
                                                    monkeypatch):
        reference = CampaignRunner().run(POISONED[::2])
        # Forked workers inherit the patched module attribute.
        monkeypatch.setattr(runner_module, "_execute_group",
                            _kill_worker_once)
        result = CampaignRunner(workers=2, retries=1,
                                trace_dir=tmp_path).run(POISONED[::2])
        assert (tmp_path / "killed").exists()
        assert result.summary.n_ok == 2
        assert result.cells[1].attempts == 2
        for a, b in zip(result, reference):
            assert a.payload == b.payload


class TestValidation:
    def test_bad_runner_args_rejected(self):
        from repro.errors import CampaignError

        with pytest.raises(CampaignError):
            CampaignRunner(workers=0)
        with pytest.raises(CampaignError):
            CampaignRunner(retries=-1)
        with pytest.raises(CampaignError):
            CampaignRunner(timeout_s=0)
        with pytest.raises(CampaignError):
            CampaignRunner().run([])

    def test_progress_callback_sees_every_cell(self):
        seen = []
        CampaignRunner(
            workers=1,
            progress=lambda i, total, cell: seen.append((i, total,
                                                         cell.ok)),
        ).run([ExperimentConfig(benchmark="_202_jess", heap_mb=32,
                                input_scale=0.1)])
        assert seen == [(0, 1, True)]

    def test_report_round_trips_through_json(self, serial_result):
        report = serial_result.as_dict()
        assert report["schema"] == "repro-campaign-v1"
        parsed = json.loads(json.dumps(report))
        assert parsed["summary"]["n_ok"] == 8
        assert len(parsed["cells"]) == 8
