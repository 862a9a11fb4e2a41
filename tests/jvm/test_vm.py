"""Tests for the integrated virtual machines."""

import pytest

from repro.errors import (
    ConfigurationError,
    OutOfMemoryError,
    SpaceExhausted,
    UnknownCollectorError,
)
from repro.hardware.platform import make_platform
from repro.jvm.components import Component
from repro.jvm.gc.generational import GenCopy
from repro.jvm.vm import JikesRVM, KaffeVM, make_vm
from repro.units import MB

from tests.conftest import make_tiny_spec


def run_tiny(vm_cls=JikesRVM, collector=None, heap_mb=24, seed=3,
             platform=None, spec=None, **kwargs):
    platform = platform or make_platform("p6")
    vm = vm_cls(platform, collector=collector, heap_mb=heap_mb,
                seed=seed, n_slices=40)
    return vm.run(spec or make_tiny_spec(), **kwargs)


class TestConstruction:
    def test_make_vm(self, p6):
        assert isinstance(make_vm("jikes", p6), JikesRVM)
        assert isinstance(make_vm("KAFFE", p6), KaffeVM)
        with pytest.raises(ConfigurationError):
            make_vm("hotspot", p6)

    def test_jikes_collector_set(self, p6):
        for name in ("SemiSpace", "MarkSweep", "GenCopy", "GenMS"):
            JikesRVM(p6, collector=name)
        with pytest.raises(UnknownCollectorError):
            JikesRVM(p6, collector="KaffeGC")

    def test_kaffe_has_only_its_own_gc(self, p6):
        KaffeVM(p6)
        with pytest.raises(UnknownCollectorError):
            KaffeVM(p6, collector="GenCopy")

    def test_heap_must_cover_vm_reservation(self, p6):
        with pytest.raises(ConfigurationError):
            JikesRVM(p6, heap_mb=6)


class TestJikesRun:
    def test_components_present(self):
        result = run_tiny()
        cycles = result.timeline.component_cycles()
        for comp in (Component.APP, Component.GC, Component.CL,
                     Component.BASE):
            assert cycles.get(int(comp), 0) > 0

    def test_opt_compiler_runs_on_hot_workload(self):
        result = run_tiny()
        assert result.opt_compiles > 0
        assert (
            result.timeline.component_cycles().get(int(Component.OPT),
                                                   0) > 0
        )

    def test_no_jit_component(self):
        result = run_tiny()
        assert int(Component.JIT) not in (
            result.timeline.component_cycles()
        )

    def test_timeline_valid(self):
        result = run_tiny()
        assert result.timeline.validate()

    def test_gc_happened(self):
        result = run_tiny()
        assert result.gc_stats.collections > 0

    def test_deterministic(self):
        a = run_tiny(seed=9)
        b = run_tiny(seed=9)
        assert a.duration_s == pytest.approx(b.duration_s, rel=1e-12)
        assert a.cpu_energy_j() == pytest.approx(b.cpu_energy_j(),
                                                 rel=1e-12)
        assert a.gc_stats.collections == b.gc_stats.collections

    def test_seed_changes_run(self):
        a = run_tiny(seed=9)
        b = run_tiny(seed=10)
        assert a.cpu_energy_j() != b.cpu_energy_j()

    def test_oom_on_hopeless_heap(self):
        spec = make_tiny_spec(live_bytes=12 * MB, alloc_bytes=40 * MB,
                              young_frac=0.6, immortal_frac=0.2)
        with pytest.raises(OutOfMemoryError):
            run_tiny(collector="SemiSpace", heap_mb=16, spec=spec)

    def test_summary_text(self):
        result = run_tiny()
        text = result.summary()
        assert "tiny" in text
        assert "jikes" in text

    def test_repetitions_extend_timeline(self):
        once = run_tiny(seed=4)
        twice = run_tiny(seed=4, repetitions=2)
        assert twice.duration_s > once.duration_s * 1.7

    def test_system_classes_never_dynamically_loaded(self):
        result = run_tiny()
        assert result.classloader.loads <= make_tiny_spec().app_classes


class TestKaffeRun:
    def test_components_present(self):
        result = run_tiny(KaffeVM)
        cycles = result.timeline.component_cycles()
        for comp in (Component.APP, Component.GC, Component.CL,
                     Component.JIT):
            assert cycles.get(int(comp), 0) > 0

    def test_no_adaptive_tiers(self):
        result = run_tiny(KaffeVM)
        assert result.opt_compiles == 0
        assert result.base_compiles == 0
        assert result.jit_compiles > 0

    def test_kaffe_loads_more_classes_than_jikes(self):
        jikes = run_tiny(JikesRVM)
        kaffe = run_tiny(KaffeVM)
        assert kaffe.classloader.loads > jikes.classloader.loads

    def test_kaffe_slower_than_jikes(self):
        # Poor JIT code quality and no adaptive recompilation
        # (Section VI-D: "longer execution times").  A larger bytecode
        # volume keeps VM bootstrap from dominating the comparison.
        spec = make_tiny_spec(bytecodes=3e8)
        jikes = run_tiny(JikesRVM, spec=spec)
        kaffe = run_tiny(KaffeVM, spec=spec)
        assert kaffe.duration_s > jikes.duration_s

    def test_runs_on_pxa255(self):
        result = run_tiny(
            KaffeVM, heap_mb=16, platform=make_platform("pxa255"),
            spec=make_tiny_spec(bytecodes=2e7, alloc_bytes=20 * MB),
        )
        assert result.platform_name == "pxa255"
        assert result.duration_s > 0

    def test_pxa255_slower_than_p6(self):
        spec = make_tiny_spec(bytecodes=2e7, alloc_bytes=20 * MB)
        p6 = run_tiny(KaffeVM, heap_mb=16, spec=spec)
        pxa = run_tiny(KaffeVM, heap_mb=16, spec=spec,
                       platform=make_platform("pxa255"))
        assert pxa.duration_s > p6.duration_s * 2


class TestInstrumentation:
    def test_port_writes_recorded(self):
        result = run_tiny()
        assert result.port_writes > 10
        assert result.perturbation_cycles > 0

    def test_perturbation_small(self):
        result = run_tiny()
        assert (
            result.perturbation_cycles / result.timeline.total_cycles
            < 0.01
        )

    def test_input_scale_shrinks_run(self):
        full = run_tiny(seed=5)
        small = run_tiny(seed=5, input_scale=0.3)
        assert small.duration_s < full.duration_s


class TestAllocationProtocol:
    """``Collector.allocate`` is the VM's one call per allocated object,
    so a collector subclass that overrides it sees every allocation."""

    def test_gencopy_override_sees_every_allocation(self):
        class Recording(GenCopy):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.allocated = []   # (birth, size) of every new object
                self.exhausted = 0

            def allocate(self, size, birth, death):
                try:
                    obj = super().allocate(size, birth, death)
                except SpaceExhausted:
                    self.exhausted += 1
                    raise
                self.allocated.append((birth, obj.size))
                return obj

        class RecordingVM(JikesRVM):
            def _make_collector(self, rng):
                self.collector = Recording(self.heap_bytes, rng)
                return self.collector

        vm = RecordingVM(make_platform("p6"), collector="GenCopy",
                         heap_mb=24, seed=3, n_slices=40)
        recorded = vm.run(make_tiny_spec())
        plain = run_tiny(collector="GenCopy")
        # Births run on the allocation clock: each object is born where
        # the previous one ended, so a bypassed allocation leaves a gap.
        births = [birth for birth, _ in vm.collector.allocated]
        ends = [birth + size for birth, size in vm.collector.allocated]
        assert births[0] == 0.0
        assert births[1:] == ends[:-1]
        assert vm.collector.exhausted == recorded.gc_stats.collections > 0
        assert recorded.timeline.to_columns()["tags"] == (
            plain.timeline.to_columns()["tags"])
        assert recorded.cpu_energy_j() == plain.cpu_energy_j()
