"""Tests for the memory-boundness DVFS governor."""

import pytest

from repro.errors import ConfigurationError
from repro.extensions.dvfs_governor import (
    GovernedScheduler,
    MemoryBoundGovernor,
    governed_vm,
)
from repro.hardware.platform import make_platform
from repro.jvm.vm import JikesRVM
from repro.obs import Observability

from tests.conftest import make_tiny_spec


def seg(ipc, cycles=1_000_000):
    """A retired segment of IPC *ipc* as ``observe_row`` takes it: its
    instructions, cycles and end cycle."""
    return int(cycles * ipc), cycles, cycles


class TestGovernor:
    def test_high_ipc_full_speed(self):
        gov = MemoryBoundGovernor()
        assert gov.observe_row(*seg(1.2)) == 1.0

    def test_low_ipc_floor(self):
        gov = MemoryBoundGovernor()
        for _ in range(10):
            scale = gov.observe_row(*seg(0.2))
        assert scale == gov.ladder[-1]

    def test_staircase_monotonic(self):
        gov = MemoryBoundGovernor(window=1)
        scales = [
            gov.observe_row(*seg(ipc))
            for ipc in (1.2, 0.8, 0.6, 0.5, 0.3)
        ]
        assert scales == sorted(scales, reverse=True)

    def test_window_smooths(self):
        gov = MemoryBoundGovernor(window=8)
        for _ in range(8):
            gov.observe_row(*seg(1.2))
        # One memory-bound blip does not reach the floor.
        scale = gov.observe_row(*seg(0.1))
        assert scale > gov.ladder[-1]

    def test_residency_accounting(self):
        gov = MemoryBoundGovernor(window=1)
        gov.observe_row(*seg(1.2))
        gov.observe_row(*seg(0.2))
        residency = gov.residency
        assert sum(residency.values()) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MemoryBoundGovernor(ipc_low=0.9, ipc_high=0.5)
        with pytest.raises(ConfigurationError):
            MemoryBoundGovernor(ladder=(0.5, 1.0))


class TestGovernedRuns:
    @pytest.fixture(scope="class")
    def runs(self):
        # A memory-bound workload: poor locality, high L1 miss rate.
        spec = make_tiny_spec(
            app_overrides={"l1_miss_rate": 0.09, "locality": 0.5},
        )
        plain_vm = JikesRVM(make_platform("p6"), heap_mb=24, seed=6,
                            n_slices=40)
        plain = plain_vm.run(spec)
        governor = MemoryBoundGovernor()
        gov_vm = governed_vm(
            JikesRVM, make_platform("p6"), governor, heap_mb=24,
            seed=6, n_slices=40,
        )
        governed = gov_vm.run(spec)
        return plain, governed, governor

    def test_governor_downclocks_memory_bound_phases(self, runs):
        _, _, governor = runs
        assert governor.residency.get(1.0, 0.0) < 1.0
        assert any(scale < 1.0 for scale in governor.residency)

    def test_governed_run_saves_energy(self, runs):
        plain, governed, _ = runs
        assert (
            governed.timeline.cpu_energy_j()
            < plain.timeline.cpu_energy_j()
        )

    def test_governed_run_is_slower(self, runs):
        plain, governed, _ = runs
        assert governed.duration_s > plain.duration_s

    def test_same_collections(self, runs):
        # The governor changes timing, not memory management.
        plain, governed, _ = runs
        assert (
            governed.gc_stats.collections
            == plain.gc_stats.collections
        )


class TestGovernedScheduler:
    @staticmethod
    def _run(obs=None):
        vm = governed_vm(
            JikesRVM, make_platform("p6"), MemoryBoundGovernor(),
            heap_mb=24, seed=6, n_slices=40, obs=obs,
        )
        return vm.run(make_tiny_spec(
            app_overrides={"l1_miss_rate": 0.09, "locality": 0.5},
        ))

    def test_commits_batches(self, monkeypatch):
        commits = []
        commit = GovernedScheduler._commit_batch

        def counting(self, batch, component, tags):
            consumed = commit(self, batch, component, tags)
            commits.append(consumed)
            return consumed

        monkeypatch.setattr(GovernedScheduler, "_commit_batch", counting)
        run = self._run()
        assert len(commits) > 10
        assert sum(commits) > len(commits)
        # Every row of the timeline, port writes included.
        assert sum(commits) == len(run.timeline)

    def test_metrics_count_every_segment(self):
        obs = Observability.create(trace=False, metrics=True)
        run = self._run(obs)
        emitted = obs.metrics.counter("scheduler.segments_emitted")
        assert emitted.value == len(run.timeline)
