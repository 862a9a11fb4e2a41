"""One emission pass per slice, on both VMs: the slice's class loads,
first-call compiles, application stretches and GC phases reach the
scheduler as one row stream, never as one ``execute`` call each."""

import math

from repro.core.experiment import Experiment, ExperimentConfig
from repro.hardware.activity import ExecutionModel
from repro.jvm.components import Component
from repro.jvm.scheduler import InstrumentedScheduler


def _simulate_counting(monkeypatch, **config):
    """Simulate *config*; return the run, the ``(component, tag)`` of
    every ``execute`` call, the component of every
    ``ExecutionModel.cost`` call, and per ``execute_rows`` call the rows
    it committed, its commits and the commits cut short."""
    executed = []
    costed = []
    streams = []
    current = [None]   # the stream being committed

    def execute(self, activity):
        executed.append((int(activity.component), activity.tag))
        return original_execute(self, activity)

    def cost(self, activity):
        costed.append(int(activity.component))
        return original_cost(self, activity)

    def execute_rows(self, *parts):
        current[0] = {"rows": 0, "commits": 0, "cuts": 0}
        streams.append(current[0])
        try:
            return original_rows(self, *parts)
        finally:
            current[0] = None

    def commit_batch(self, batch, components, tags):
        consumed = original_commit(self, batch, components, tags)
        stream = current[0]
        if stream is not None:
            stream["rows"] += consumed
            stream["commits"] += 1
            stream["cuts"] += consumed < len(batch)
        return consumed

    original_execute = InstrumentedScheduler.execute
    original_cost = ExecutionModel.cost
    original_rows = InstrumentedScheduler.execute_rows
    original_commit = InstrumentedScheduler._commit_batch
    monkeypatch.setattr(InstrumentedScheduler, "execute", execute)
    monkeypatch.setattr(ExecutionModel, "cost", cost)
    monkeypatch.setattr(InstrumentedScheduler, "execute_rows",
                        execute_rows)
    monkeypatch.setattr(InstrumentedScheduler, "_commit_batch",
                        commit_batch)
    sim = Experiment(ExperimentConfig(**config)).simulate()
    return sim.run, executed, costed, streams


def _assert_batches_bounded(streams):
    for stream in streams:
        assert stream["commits"] <= (
            math.ceil(stream["rows"] / InstrumentedScheduler.RUN_ROWS)
            + stream["cuts"])


def test_jikes_slices_emit_one_stream_each(monkeypatch):
    run, executed, costed, streams = _simulate_counting(
        monkeypatch, benchmark="_213_javac", vm="jikes", platform="p6",
        heap_mb=24, input_scale=0.1, seed=3, n_slices=40,
    )
    assert run.classloader.loads > 0 and run.gc_stats.collections > 0
    # Only the boot, the optimizing compiler and the AOS controller
    # thread run one activity at a time.
    assert {component for component, tag in executed
            if tag != "boot"} == {int(Component.OPT),
                                  int(Component.SCHEDULER)}
    assert sum(tag == "boot" for _, tag in executed) == 1
    assert int(Component.CL) not in costed
    assert len(streams) == 40
    _assert_batches_bounded(streams)


def test_kaffe_slices_emit_one_stream_each(monkeypatch):
    run, executed, costed, streams = _simulate_counting(
        monkeypatch, benchmark="_213_javac", vm="kaffe", platform="pxa255",
        heap_mb=16, input_scale=0.1, seed=3, n_slices=40,
    )
    assert run.classloader.loads > 0 and run.gc_stats.collections > 0
    assert run.jit_compiles == len(run.workload.method_table)
    # Only the boot runs on its own.
    assert [tag for _, tag in executed] == ["boot"]
    assert not {int(Component.CL), int(Component.JIT)} & set(costed)
    assert len(streams) == 40
    _assert_batches_bounded(streams)
