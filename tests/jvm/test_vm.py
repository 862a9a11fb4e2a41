"""Tests for the integrated virtual machines."""

import gc

import numpy as np
import pytest

from repro.errors import (
    ConfigurationError,
    OutOfMemoryError,
    SpaceExhausted,
    UnknownCollectorError,
)
from repro.hardware.platform import make_platform
from repro.jvm.components import Component
from repro.jvm.gc import COLLECTORS, JIKES_COLLECTORS
from repro.jvm.gc.generational import GenCopy
from repro.jvm.objects import MIN_COMPACT_ROWS
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
    """``Collector.allocate`` is the VM's one call per batch of cohorts
    (a stretch between collection points), so a collector subclass that
    overrides it sees every allocation."""

    @pytest.mark.parametrize("collector", JIKES_COLLECTORS)
    def test_override_sees_every_allocation(self, collector):
        base = COLLECTORS[collector]

        class Recording(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.allocated = []   # (birth, size) of every new object
                self.exhausted = 0

            def allocate(self, sizes, births, deaths):
                try:
                    handles = super().allocate(sizes, births, deaths)
                except SpaceExhausted as exc:
                    self.exhausted += 1
                    self._record(exc.allocated, births)
                    raise
                self._record(handles, births)
                return handles

            def _record(self, handles, births):
                self.allocated.extend(zip(
                    births[:len(handles)].tolist(),
                    self.table.size[list(handles)].tolist()))

        class RecordingVM(JikesRVM):
            def _make_collector(self, rng):
                self.collector = Recording(self.heap_bytes, rng)
                return self.collector

        vm = RecordingVM(make_platform("p6"), collector=collector,
                         heap_mb=24, seed=3, n_slices=40)
        recorded = vm.run(make_tiny_spec())
        plain = run_tiny(collector=collector)
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

    @pytest.mark.parametrize("collector", ["GenMS", "MarkSweep"])
    def test_collections_leave_no_reference_cycles(self, collector):
        # Exhaustion travels as an exception; one kept in a local of a
        # frame its traceback holds would leave a cycle (and that
        # frame's arrays) per collection for the cyclic collector.
        found = []
        for heap_mb in (12, 64):
            vm = JikesRVM(make_platform("p6"), collector=collector,
                          heap_mb=heap_mb, seed=3, n_slices=40)
            gc.collect()
            gc.disable()
            try:
                result = vm.run(make_tiny_spec())
                collections = result.gc_stats.collections
                del result
                found.append((collections, gc.collect()))
            finally:
                gc.enable()
        (few, cycles_few), (many, cycles_many) = sorted(found)
        assert many > few + 10
        assert cycles_many == cycles_few

    def test_object_table_stays_bounded(self):
        # Compaction keeps the table near the live set plus one
        # nursery's worth of cohorts, never every cohort allocated.
        vm = JikesRVM(make_platform("p6"), collector="GenCopy", heap_mb=24,
                      seed=3, n_slices=40)
        spec = make_tiny_spec(alloc_bytes=800 * MB)
        result = vm.run(spec)
        table = result.collector.table
        allocated = result.collector.nursery.stats.allocations
        assert allocated > 4 * MIN_COMPACT_ROWS
        assert table.n < 2 * MIN_COMPACT_ROWS
        assert result.gc_stats.collections > 0


class TestCompaction:
    """What ``BaseVM._compact`` keeps when it drops table rows."""

    def _state(self, gc):
        import types

        from repro.jvm.objects import ReferenceFactory, RootSet

        rng = np.random.default_rng(1)
        return types.SimpleNamespace(
            collector=gc, roots=RootSet(gc.table),
            refs=ReferenceFactory(gc.table, rng), mutation_ring=[])

    def _graph(self):
        # filler: dead and held by nothing; target: dead, held by
        # nothing, but reachable from source, which dies first.
        gc = GenCopy(16 * MB, np.random.default_rng(2))
        filler = gc.allocate([4096] * 5, [0.0] * 5, [10.0] * 5)
        target = gc.allocate([4096], [0.0], [60.0])[0]
        source = gc.allocate([4096], [0.0], [40.0])[0]
        gc.table.add_edge(source, target)
        gc.table.compact_at = 0
        return gc, list(filler), target, source

    @pytest.mark.parametrize("holder", ["ring", "remset"])
    def test_keeps_what_a_later_trace_can_reach(self, holder):
        gc, filler, target, source = self._graph()
        state = self._state(gc)
        if holder == "ring":
            state.mutation_ring = [source]
        else:
            mature = gc.allocate([gc.nursery_bytes + 1], [0.0], [1e12])[0]
            gc.record_mutation(source)
            assert gc.remset == [(mature, source)]
        JikesRVM._compact(None, state)
        table = gc.table
        assert table.n == (2 if holder == "ring" else 3)
        kept_source = (state.mutation_ring[0] if holder == "ring"
                       else gc.remset[0][1])
        assert table.death[kept_source] == 40.0
        assert [table.death[t] for t in table.edges(kept_source)] == [60.0]

    def test_drops_what_nothing_can_reach(self):
        gc, filler, target, source = self._graph()
        state = self._state(gc)
        JikesRVM._compact(None, state)
        assert gc.table.n == 0
