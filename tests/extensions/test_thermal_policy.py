"""Tests for thermal-aware GC scheduling."""

import pytest

from repro.errors import ConfigurationError, OutOfMemoryError, SpaceExhausted
from repro.extensions.thermal_policy import ThermalAwareVM
from repro.hardware.platform import make_platform
from repro.jvm.vm import JikesRVM
from repro.obs import Observability
from repro.obs.tracer import SIM_CLOCK

from tests.conftest import make_tiny_spec


def hot_platform():
    """A fan-failed platform starting near the policy threshold."""
    platform = make_platform("p6", fan_enabled=False)
    platform.thermal.temperature_c = 96.0
    return platform


def kept_hot(platform):
    """*platform*, made to reset to 70 C with its fan off (``run()``
    resets the platform to ambient)."""
    original_reset = platform.reset

    def reset_keep_hot():
        original_reset()
        platform.thermal.fan_enabled = False
        platform.thermal.temperature_c = 70.0

    platform.reset = reset_keep_hot
    return platform


def patch_collect(monkeypatch, wrap):
    """Replace each run's ``collector.collect`` by ``wrap(collect)``."""
    make = ThermalAwareVM._make_collector

    def making(self, rng):
        collector = make(self, rng)
        collector.collect = wrap(collector.collect)
        return collector

    monkeypatch.setattr(ThermalAwareVM, "_make_collector", making)


class TestConstruction:
    def test_threshold_must_be_below_trip(self):
        with pytest.raises(ConfigurationError):
            ThermalAwareVM(make_platform("p6"),
                           policy_threshold_c=99.5)


class TestPolicy:
    def test_cool_platform_never_triggers(self):
        vm = ThermalAwareVM(make_platform("p6"), heap_mb=24, seed=3,
                            n_slices=40)
        vm.run(make_tiny_spec())
        assert vm.policy_stats.triggers == 0
        assert vm.policy_stats.checks > 0

    def test_hot_platform_triggers(self):
        vm = ThermalAwareVM(kept_hot(hot_platform()), heap_mb=24, seed=3,
                            n_slices=40, policy_threshold_c=60.0)
        vm.run(make_tiny_spec())
        assert vm.policy_stats.triggers > 0
        assert all(
            t >= 60.0 for t in vm.policy_stats.trigger_temps_c
        )

    def test_checks_once_the_queued_epoch_has_run(self, monkeypatch):
        # Each check reads the die temperature after the previous
        # slice's AOS epoch commits: after it, only a cooling collection
        # is queued.
        seen = []
        check = ThermalAwareVM._maybe_cool

        def recording(self, state):
            queued = len(state.stream.parts)
            check(self, state)
            stream = state.stream
            seen.append((queued, len(stream.parts) - len(stream.collections)))

        monkeypatch.setattr(ThermalAwareVM, "_maybe_cool", recording)
        vm = ThermalAwareVM(kept_hot(hot_platform()), heap_mb=24, seed=3,
                            n_slices=40, policy_threshold_c=55.0)
        vm.run(make_tiny_spec())
        assert vm.policy_stats.triggers > 0
        assert len(seen) == 40 and all(queued for queued, _ in seen[1:])
        assert all(left == 0 for _, left in seen)

    def test_policy_adds_collections(self):
        spec = make_tiny_spec()
        plain = JikesRVM(make_platform("p6"), heap_mb=24, seed=3,
                         n_slices=40).run(spec)

        vm = ThermalAwareVM(kept_hot(hot_platform()), heap_mb=24, seed=3,
                            n_slices=40, policy_threshold_c=55.0)
        hot = vm.run(spec)
        assert hot.gc_stats.collections > plain.gc_stats.collections


class TestCoolingCollections:
    """A cooling collection takes the VM's one GC path."""

    def test_each_cooling_cycle_is_observed(self, monkeypatch):
        cycles = []

        def wrap(collect):
            def counting(roots, now):
                reports = collect(roots, now)
                cycles.append(len(reports))
                return reports
            return counting

        patch_collect(monkeypatch, wrap)
        obs = Observability.create(trace=True, metrics=True)
        vm = ThermalAwareVM(kept_hot(hot_platform()), heap_mb=24, seed=3,
                            n_slices=40, policy_threshold_c=55.0, obs=obs)
        vm.run(make_tiny_spec())
        assert vm.policy_stats.triggers > 0
        spans = [span for span in obs.tracer.spans_on(SIM_CLOCK, "gc")
                 if span.name == "gc-cycle"]
        observed = sum(n > 0 for n in cycles)
        assert len(spans) == observed
        assert obs.metrics.counter("gc.cycles").value == observed

    def test_cooling_collection_out_of_memory(self, monkeypatch):
        def wrap(collect):
            def exhausted(roots, now):
                raise SpaceExhausted("mature space full")
            return exhausted

        patch_collect(monkeypatch, wrap)
        # No garbage needed: the first check, before any allocation,
        # collects.
        vm = ThermalAwareVM(kept_hot(hot_platform()), heap_mb=24, seed=3,
                            n_slices=40, policy_threshold_c=55.0,
                            min_garbage_bytes=0)
        with pytest.raises(OutOfMemoryError):
            vm.run(make_tiny_spec())
        assert vm.policy_stats.triggers == 1
