"""Tests for the instrumented scheduler."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hardware.activity import Activity, ActivityRows, ExecutionModel
from repro.hardware.cache import MemoryBehavior
from repro.hardware.platform import make_platform
from repro.jvm.classloader import ClassLoader, ClassSpec
from repro.jvm.compiler.baseline import BaselineCompiler
from repro.jvm.compiler.method import JavaMethod, MethodTable
from repro.jvm.components import Component
from repro.jvm.gc.base import CollectionReport
from repro.jvm.gc.cost import GCCostModel
from repro.jvm.scheduler import InstrumentedScheduler
from repro.units import KB, MB


def act(component, instructions=2_000_000, footprint=1 * MB,
        locality=0.8):
    return Activity(
        component=int(component),
        instructions=instructions,
        behavior=MemoryBehavior(
            footprint_bytes=footprint, hot_bytes=128 * KB,
            locality=locality, spatial_factor=0.5,
        ),
        refs_per_instr=0.3,
        l1_miss_rate=0.03,
    )


def rows_of(activities):
    """*activities* as :class:`ActivityRows`, a column per field."""
    behaviors = [a.behavior for a in activities]
    tags = np.empty(len(activities), dtype=object)
    tags[:] = [a.tag for a in activities]

    def column(values, dtype=np.float64):
        return np.array(list(values), dtype=dtype)

    return ActivityRows(
        component=column((a.component for a in activities), np.int64),
        instructions=column((a.instructions for a in activities),
                            np.int64),
        footprint_bytes=column((b.footprint_bytes for b in behaviors),
                               np.int64),
        tags=tags,
        hot_bytes=column((b.hot_bytes for b in behaviors), np.int64),
        locality=column(b.locality for b in behaviors),
        spatial_factor=column(b.spatial_factor for b in behaviors),
        refs_per_instr=column(a.refs_per_instr for a in activities),
        l1_miss_rate=column(a.l1_miss_rate for a in activities),
        mix_factor=column(a.mix_factor for a in activities),
        cpi_scale=column(a.cpi_scale for a in activities),
    )


class TestConstruction:
    def test_rejects_unknown_style(self, p6):
        with pytest.raises(ConfigurationError):
            InstrumentedScheduler(p6, style="windows")


class TestJikesStyle:
    def test_port_written_on_component_switch(self, p6):
        sched = InstrumentedScheduler(p6, style="jikes")
        sched.execute(act(Component.APP))
        sched.execute(act(Component.GC))
        sched.execute(act(Component.APP))
        assert sched.port_writes == 3

    def test_no_write_when_component_unchanged(self, p6):
        sched = InstrumentedScheduler(p6, style="jikes")
        sched.execute(act(Component.APP))
        sched.execute(act(Component.APP))
        assert sched.port_writes == 1

    def test_port_latch_matches_execution(self, p6):
        sched = InstrumentedScheduler(p6, style="jikes")
        sched.execute(act(Component.GC))
        mid_cycle = sched.now_cycle - 100
        assert p6.port.read(mid_cycle) == int(Component.GC)


class TestKaffeStyle:
    def test_entry_and_exit_writes(self, p6):
        sched = InstrumentedScheduler(p6, style="kaffe")
        sched.execute(act(Component.APP))
        sched.execute(act(Component.JIT))  # enter + exit
        assert sched.port_writes == 3


class TestTimeline:
    def test_gap_free(self, p6):
        sched = InstrumentedScheduler(p6)
        for comp in (Component.APP, Component.GC, Component.APP):
            sched.execute(act(comp))
        sched.finish().validate()

    def test_perturbation_segments_emitted(self, p6):
        sched = InstrumentedScheduler(p6)
        sched.execute(act(Component.APP))
        tags = [s.tag for s in sched.timeline]
        assert "port-write" in tags

    def test_perturbation_is_small(self, p6):
        sched = InstrumentedScheduler(p6)
        for comp in (Component.APP, Component.GC) * 10:
            sched.execute(act(comp))
        pert = p6.port.total_perturbation_cycles()
        assert pert / sched.now_cycle < 0.01

    def test_long_activity_chunked(self, p6):
        sched = InstrumentedScheduler(p6, max_chunk_s=0.01)
        sched.execute(act(Component.APP, instructions=200_000_000))
        app_segs = [
            s for s in sched.timeline
            if s.component == int(Component.APP) and s.tag != "port-write"
        ]
        assert len(app_segs) > 3
        total = sum(s.instructions for s in app_segs)
        assert total == 200_000_000

    def test_idle(self, p6):
        sched = InstrumentedScheduler(p6)
        sched.idle(0.25)
        assert sched.timeline.duration_s == pytest.approx(0.25,
                                                          rel=0.01)

    def test_idle_shorter_than_a_cycle_appends_no_segment(self, p6):
        sched = InstrumentedScheduler(p6)
        sched.idle(1e-12)
        assert [seg.tag for seg in sched.timeline] == ["port-write"]

    def test_counters_track_segments(self, p6):
        sched = InstrumentedScheduler(p6)
        sched.execute(act(Component.APP, instructions=5_000_000))
        from repro.hardware.hpm import Event

        snap = p6.counters.snapshot(sched.now_cycle)
        assert snap.values[Event.CYCLES] == sched.now_cycle


class TestBatchedEngine:
    """Multi-chunk activities are costed and committed as batches; the
    simulation golden pins their bytes."""

    def test_long_activity_is_costed_in_one_batch(self, monkeypatch):
        # 2e9 instructions in 20 us chunks: tens of thousands of
        # segments, none of them costed one at a time.
        calls = {"run": 0, "run_batch": 0}
        for name in calls:
            method = getattr(ExecutionModel, name)

            def counting(self, *args, _name=name, _method=method,
                         **kwargs):
                calls[_name] += 1
                return _method(self, *args, **kwargs)

            monkeypatch.setattr(ExecutionModel, name, counting)
        platform = make_platform("p6")
        sched = InstrumentedScheduler(platform, max_chunk_s=2e-5)
        activity = act(Component.APP, instructions=2_000_000_000)
        activity.behavior = MemoryBehavior(
            footprint_bytes=4 * MB, hot_bytes=256 * KB,
            locality=0.8, spatial_factor=0.5,
        )
        sched.execute(activity)
        assert len(sched.timeline) == 60_675  # one port write + chunks
        assert calls == {"run": 0, "run_batch": 1}

    @staticmethod
    def _methods(n=120):
        """A table of distinctly sized methods; one compile is longer
        than a 10 ms chunk on either platform."""
        sizes = [200 + 331 * i for i in range(n)]
        sizes[5 * n // 6] = 3_000_000
        return MethodTable([
            JavaMethod(name=f"m{i}", bytecode_bytes=size, weight=1.0)
            for i, size in enumerate(sizes)
        ])

    @staticmethod
    def _mixed(platform_name):
        """Class loads, then work of mixed components and profiles: a
        collection's phases (its sweep retires no instructions), a JIT
        compile, and an application stretch longer than a 10 ms
        chunk."""
        classes = [ClassSpec(name=f"C{i}", file_bytes=900 + 517 * i)
                   for i in range(6)]
        report = CollectionReport(
            kind="minor", collector="GenCopy", traced_bytes=3 * MB,
            edges=40_000, copied_bytes=1 * MB, swept_bytes=12,
            footprint_bytes=5 * MB,
        )
        work = [
            act(Component.APP, 1_500_000, footprint=9 * MB, locality=0.4),
            *GCCostModel(platform_name).activities(report),
            act(Component.JIT, 700_000, footprint=200 * KB),
            act(Component.APP, 90_000_000, locality=0.9),
            act(Component.CL, 0),
        ]
        return classes, work

    def _run_compiles(self, platform_name, rows, thermal=None,
                      style="jikes"):
        """Baseline-compile a table in three runs split by application
        work, the middle one inside a mixed stream: as precomputed rows
        and activities through ``execute_rows`` (``rows``) or one
        ``execute`` each, on a scheduler of instrumentation *style*."""
        # The PXA255 never gets near its own trip point.
        platform = make_platform(
            platform_name, fan_enabled=thermal != "trip",
            overrides={"trip_c": 50.0} if platform_name == "pxa255"
            else None,
        )
        spec = platform.thermal.spec
        if thermal == "trip":
            platform.thermal.temperature_c = spec.trip_c - 0.0005
        elif thermal == "release":
            platform.thermal.temperature_c = spec.resume_c + (
                0.0001 if platform_name == "pxa255" else 0.001)
            platform.thermal.throttled = platform.cpu.throttled = True
        elif thermal == "release-at-port":
            # The first port write cools the die just past the release
            # point: the work row after it is re-costed unthrottled.
            platform.thermal.temperature_c = spec.resume_c + 1e-9
            platform.thermal.throttled = platform.cpu.throttled = True
        elif thermal == "dvfs":
            platform.cpu.set_dvfs(0.75)
        sched = InstrumentedScheduler(platform, style=style,
                                      max_chunk_s=0.01)
        table = self._methods()
        base = BaselineCompiler(platform.name)
        costs = sched.exec_model.cost_rows(base.activity_rows(table))
        classes, work = self._mixed(platform_name)
        loader = ClassLoader(platform.name, lazy_system_classes=False)
        commit = sched._commit_batch
        sched.cuts = []   # the last row of each run of rows cut short

        def counting_commit(batch, components, tags):
            consumed = commit(batch, components, tags)
            if consumed < len(batch) and len(set(tags)) > 1:
                sched.cuts.append(tags[consumed - 1])
            return consumed

        sched._commit_batch = counting_commit
        for lo, hi in ((0, 40), (40, 41), (41, 120)):
            if lo:
                sched.execute(act(Component.APP, instructions=3_000_000))
            if rows:
                ids = np.arange(lo, hi)
                base.compile_rows(table, ids)
                parts = [costs[ids]]
                if hi == 41:
                    loads = sched.exec_model.cost_rows(
                        loader.activity_rows(classes))
                    assert loader.load_all(classes) == len(classes)
                    mixed = sched.exec_model.cost_rows(rows_of(work[:4]))
                    parts = [loads, *parts, mixed, work[4:]]
                sched.execute_rows(*parts)
            else:
                if hi == 41:
                    for cls in classes:
                        sched.execute(loader.load(cls))
                for m in table.methods[lo:hi]:
                    sched.execute(base.compile(m))
                if hi == 41:
                    for activity in work:
                        sched.execute(activity)
        return sched, table

    @pytest.mark.parametrize("platform_name,thermal,style", [
        pytest.param(platform_name, thermal, style,
                     id=f"{thermal}-{platform_name}"
                     + ("-kaffe" if style == "kaffe" else ""))
        for style in ("jikes", "kaffe")
        for platform_name in ("p6", "pxa255")
        for thermal in (None, "trip", "release", "release-at-port", "dvfs")
    ])
    def test_execute_rows_equals_execute_loop(self, platform_name,
                                              thermal, style):
        loop, loop_table = self._run_compiles(platform_name, False,
                                              thermal, style)
        rows, rows_table = self._run_compiles(platform_name, True,
                                              thermal, style)
        # The throttle latch flips inside the first run of compiles, so
        # a batch is flushed and its rest re-costed mid-run.
        assert rows.platform.cpu.throttled == (thermal == "trip")
        assert len(rows.cuts) == (thermal in ("trip", "release",
                                              "release-at-port"))
        if thermal == "release-at-port":
            assert rows.cuts == ["port-write"]
        a, b = loop.finish(), rows.finish()
        assert list(a) == list(b)
        assert a.to_columns()["tags"] == b.to_columns()["tags"]
        assert loop.sim_now_s == rows.sim_now_s
        assert loop.now_cycle == rows.now_cycle
        assert loop.port_writes == rows.port_writes
        assert (loop.platform.port.history()
                == rows.platform.port.history())
        assert (loop.platform.thermal.temperature_c
                == rows.platform.thermal.temperature_c)
        assert (loop.platform.counters.snapshot(0).values
                == rows.platform.counters.snapshot(0).values)
        assert loop.throttle_episodes == rows.throttle_episodes
        for column in ("quality", "tier", "compile_count"):
            assert (getattr(loop_table.columns, column).tolist()
                    == getattr(rows_table.columns, column).tolist())

    @pytest.mark.parametrize("platform_name", ["p6", "pxa255"])
    def test_execute_rows_returns_the_cursor_around_each_row(
            self, platform_name):
        # The cursor before a row's port write and after its work: what
        # reading sim_now_s around an execute() of the row would give.
        classes, work = self._mixed(platform_name)
        loop = InstrumentedScheduler(make_platform(platform_name),
                                     max_chunk_s=0.01)
        expected = [loop.sim_now_s]
        for activity in work:
            loop.execute(activity)
            expected.append(loop.sim_now_s)
        rows = InstrumentedScheduler(make_platform(platform_name),
                                     max_chunk_s=0.01)
        mixed = rows.exec_model.cost_rows(rows_of(work[:3]))
        assert rows.execute_rows(mixed, work[3:]) == expected

    def test_kaffe_style_rows_bracket_each_component_row(
            self, p6, monkeypatch):
        # Each non-APP row is entered and exited, as an execute() call
        # would run it, but inside the stream: a port write latching its
        # component before it and one latching APP after it.  Twenty
        # compiles of one component would join a Jikes stream whole.
        def execute(self, activity):
            raise AssertionError("a stream row ran through execute()")

        monkeypatch.setattr(InstrumentedScheduler, "execute", execute)
        table = self._methods(20)
        base = BaselineCompiler(p6.name)
        sched = InstrumentedScheduler(p6, style="kaffe")
        cursor = sched.execute_rows(
            sched.exec_model.cost_rows(base.activity_rows(table)),
            [act(Component.APP), act(Component.GC)])
        assert sched.port_writes == 2 * (len(table) + 1)
        app, base_id, gc = (int(c) for c in (Component.APP, Component.BASE,
                                             Component.GC))
        assert [value for _, value in p6.port.history()] == (
            [base_id, app] * len(table) + [gc, app])
        # A row's cursor runs from before its entry write to after its
        # exit write.
        tags = sched.finish().tags
        assert tags[0] == tags[-1] == "port-write"
        assert len(cursor) == len(table) + 3

    def test_batched_timeline_validates(self, p6):
        sched = InstrumentedScheduler(p6, max_chunk_s=0.004)
        sched.execute(act(Component.APP, instructions=150_000_000))
        sched.finish().validate()


class TestThermalCoupling:
    def test_temperature_rises_with_execution(self, p6):
        sched = InstrumentedScheduler(p6)
        t0 = p6.thermal.temperature_c
        sched.execute(act(Component.APP, instructions=400_000_000))
        assert p6.thermal.temperature_c > t0

    def test_throttle_feedback_stretches_wall_time(self):
        hot = make_platform("p6", fan_enabled=False)
        hot.thermal.temperature_c = 99.2  # already past the trip point
        sched = InstrumentedScheduler(hot, max_chunk_s=0.005)
        sched.execute(act(Component.APP, instructions=400_000_000))
        assert hot.cpu.throttled
        # Throttled chunks take twice the wall time for the same cycles.
        throttled_segs = [
            s for s in sched.timeline
            if s.wall_s and s.cycles / s.wall_s < 1.0e9
        ]
        assert throttled_segs
