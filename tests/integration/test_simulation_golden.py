"""Simulation golden: the simulate phase's outputs, pinned by sha256.

The simulate phase is the hot loop every optimization touches (object
graph, heap, collectors, compilers, scheduler, thermal feedback), and
its contract is that such work changes *speed*, never *output*.  This
pins, for a matrix of VMs, collectors, platforms and extensions, the
sha256 of every simulation output that involves no energy reduction —
the timeline's column bytes and tags, the component-ID port's latch
history, the GC statistics and the compile counts.  Energy totals are
pinned by ``tests/golden/pre_uncertainty_results.json``.

The pins in ``tests/golden/simulation_golden.json`` were recorded
before the allocation fast path and the batched first-call compiles
existed; the allocation-trace replay, small-nursery (pretenuring),
two-repetition and out-of-memory pins were recorded before the object
table replaced per-cohort objects.  The benchmark x VM x platform
matrix, the fan-off thermal case, the scheduler drives and the governor
decisions were recorded while a per-segment reference engine still
existed, and held under both engines.  The optimizing-compile spans,
the one-chunk-idle and free-port drives and ``execute-loop-splits``
(the answers of ``tests/jvm/test_scheduler.py``'s ``execute`` loop)
were recorded while ``execute`` still committed one segment at a time,
as the boot, the AOS epochs and short idles then ran.  Re-pin only for
a reviewed change that is *meant* to alter the simulation::

    PYTHONPATH=src python -m tests.integration.test_simulation_golden
"""

import hashlib
import json
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from repro.core.experiment import ExperimentConfig
from repro.core.simulation import simulate
from repro.errors import OutOfMemoryError
from repro.extensions.dvfs_governor import MemoryBoundGovernor, governed_vm
from repro.extensions.heap_sizing import AdaptiveHeapVM
from repro.extensions.thermal_policy import ThermalAwareVM
from repro.hardware.ioport import ComponentIDPort
from repro.hardware.platform import make_platform
from repro.jvm import objects
from repro.jvm.components import Component
from repro.jvm.gc.generational import GenCopy, GenMS
from repro.jvm.scheduler import InstrumentedScheduler
from repro.jvm.vm import BaseVM, JikesRVM, KaffeVM
from repro.obs import Observability
from repro.obs.tracer import SIM_CLOCK
from repro.units import KB, MB
from repro.workloads.alloctrace import TraceWorkloadRun, record_trace

from tests.conftest import make_tiny_spec
from tests.jvm.test_scheduler import SPLITS_CASE, act, split_pins

GOLDEN = (
    Path(__file__).resolve().parent.parent / "golden"
    / "simulation_golden.json"
)


def _sha256(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _timeline_digests(timeline, port):
    """Digests of a timeline's columns and tags and of the port latch."""
    cols = timeline.to_columns()
    digest = hashlib.sha256(repr((cols["clock_hz"], cols["n"])).encode())
    for name in sorted(cols["columns"]):
        col = np.ascontiguousarray(cols["columns"][name])
        digest.update(f"{name}:{col.dtype.str}:".encode())
        digest.update(col.tobytes())
    digest.update("\n".join(cols["tags"]).encode())
    cycles, values = port.history_arrays()
    latch = hashlib.sha256(repr(int(port.idle_value)).encode())
    latch.update(np.asarray(cycles, dtype=np.int64).tobytes())
    latch.update(np.asarray(values, dtype=np.int16).tobytes())
    return {
        "segments": int(cols["n"]),
        "timeline": digest.hexdigest(),
        "port": latch.hexdigest(),
    }


def digests(run, port):
    """Per-output sha256 hex digests of one finished simulation."""
    gc_stats = json.dumps(asdict(run.gc_stats), sort_keys=True)
    compiles = json.dumps({
        "base": run.base_compiles, "opt": run.opt_compiles,
        "jit": run.jit_compiles, "port_writes": run.port_writes,
        "perturbation_cycles": run.perturbation_cycles,
    }, sort_keys=True)
    return {
        **_timeline_digests(run.timeline, port),
        "gc_stats": hashlib.sha256(gc_stats.encode()).hexdigest(),
        "compiles": hashlib.sha256(compiles.encode()).hexdigest(),
    }


def _experiment(obs=None, **kwargs):
    sim = simulate(ExperimentConfig(**kwargs), obs=obs)
    return sim.run, sim.platform.port


def _jikes(collector, obs=None):
    return _experiment(obs=obs, benchmark="_213_javac", collector=collector,
                       heap_mb=24, seed=5, input_scale=0.25, n_slices=80)


def _adaptive_heap():
    platform = make_platform("p6")
    vm = AdaptiveHeapVM(platform, collector="SemiSpace", heap_mb=12,
                        seed=3, n_slices=40, overhead_target=0.10)
    run = vm.run(make_tiny_spec(alloc_bytes=160 * MB, live_bytes=2 * MB))
    assert vm.sizing_stats.growths > 0
    return run, platform.port


def _thermal_aware():
    platform = make_platform("p6", fan_enabled=False)
    vm = ThermalAwareVM(platform, heap_mb=24, seed=3, n_slices=40,
                        policy_threshold_c=55.0)
    reset = platform.reset

    def reset_hot():
        reset()
        platform.thermal.fan_enabled = False
        platform.thermal.temperature_c = 70.0

    platform.reset = reset_hot
    run = vm.run(make_tiny_spec())
    assert vm.policy_stats.triggers > 0
    return run, platform.port


def _governed(governor=None, obs=None, vm_class=JikesRVM):
    platform = make_platform("p6")
    governor = governor or MemoryBoundGovernor()
    vm = governed_vm(vm_class, platform, governor, heap_mb=24, seed=6,
                     n_slices=40, obs=obs)
    run = vm.run(make_tiny_spec(
        app_overrides={"l1_miss_rate": 0.09, "locality": 0.5}))
    assert any(scale < 1.0 for scale in governor.residency)
    return run, platform.port


def _throttled(vm_class=JikesRVM):
    """Fan off, started 0.01 C below the P6 trip point and with the
    release point moved up to 0.01 C below it as well: the throttle
    latch flips both ways all through the run, so batches are cut at a
    flip and their rest re-costed under the new duty cycle."""
    platform = make_platform("p6", fan_enabled=False)
    platform.thermal.spec = replace(platform.thermal.spec, resume_c=98.99)
    vm = vm_class(platform, heap_mb=24, seed=99, n_slices=40,
                  initial_temperature_c=98.99)
    return vm.run("_213_javac", input_scale=0.1), platform.port


def _kaffe(obs=None):
    return _experiment(obs=obs, benchmark="_202_jess", vm="kaffe",
                       platform="pxa255", heap_mb=16, seed=7,
                       input_scale=0.1)


def _kaffe_interp():
    platform = make_platform("pxa255")
    vm = KaffeVM(platform, mode="interp", heap_mb=16, seed=7, n_slices=40)
    run = vm.run("_202_jess", input_scale=0.1)
    assert run.jit_compiles == 0
    return run, platform.port


def _trace_replay():
    spec = make_tiny_spec()
    trace = record_trace(spec, seed=11, alloc_bytes=spec.alloc_bytes + MB)
    workload = TraceWorkloadRun(spec, np.random.default_rng(11), trace,
                                n_slices=40)
    platform = make_platform("p6")
    vm = JikesRVM(platform, collector="GenMS", heap_mb=24, seed=3,
                  n_slices=40)
    return vm.run(workload), platform.port


def _small_nursery(cls):
    # A 32 KiB nursery is smaller than the larger cohorts, so those are
    # pretenured straight into the mature space.
    class SmallNurseryVM(JikesRVM):
        def _make_collector(self, rng):
            return cls(self.heap_bytes, rng, nursery_bytes=32 * KB)

    platform = make_platform("p6")
    vm = SmallNurseryVM(platform, collector=cls.name, heap_mb=16, seed=8,
                        n_slices=40)
    run = vm.run(make_tiny_spec(alloc_bytes=12 * MB))
    return run, platform.port


def _repetitions():
    return _experiment(benchmark="_202_jess", collector="GenMS",
                       heap_mb=24, seed=4, input_scale=0.1, n_slices=40,
                       repetitions=2)


def _out_of_memory():
    """What the OOM path reports: GenCopy cannot fit this live set."""
    with pytest.raises(OutOfMemoryError) as caught:
        _experiment(benchmark="_213_javac", collector="GenCopy",
                    heap_mb=12, seed=5, input_scale=0.25)
    err = caught.value
    return {"requested_bytes": int(err.requested_bytes),
            "heap_bytes": int(err.heap_bytes),
            "live_bytes": int(err.live_bytes)}


def _matrix(benchmark, vm, platform, **kwargs):
    return _experiment(benchmark=benchmark, vm=vm, platform=platform,
                       input_scale=0.1, seed=99, heap_mb=24, n_slices=40,
                       **kwargs)


#: 3 benchmarks x 2 VMs x 2 platforms at reduced scale.
MATRIX = {
    f"{vm}-{platform}-{benchmark}": (benchmark, vm, platform)
    for benchmark in ("_202_jess", "_201_compress", "_213_javac")
    for vm in ("jikes", "kaffe")
    for platform in ("p6", "pxa255")
}


CASES = {
    "jikes-p6-SemiSpace": lambda: _jikes("SemiSpace"),
    "jikes-p6-MarkSweep": lambda: _jikes("MarkSweep"),
    "jikes-p6-GenCopy": lambda: _jikes("GenCopy"),
    "jikes-p6-GenMS": lambda: _jikes("GenMS"),
    "jikes-p6-GenCopy-reference": lambda: _experiment(
        benchmark="_213_javac", heap_mb=32, input_scale=0.5),
    "kaffe-pxa255": _kaffe,
    "kaffe-pxa255-interp": _kaffe_interp,
    "AdaptiveHeapVM": _adaptive_heap,
    "ThermalAwareVM": _thermal_aware,
    "GovernedScheduler": _governed,
    "GovernedScheduler-kaffe": lambda: _governed(vm_class=KaffeVM),
    "TraceReplay-GenMS": _trace_replay,
    "jikes-p6-GenCopy-nursery32k": lambda: _small_nursery(GenCopy),
    "jikes-p6-GenMS-nursery32k": lambda: _small_nursery(GenMS),
    "jikes-p6-GenMS-repetitions2": _repetitions,
    **{name: (lambda cell=cell: _matrix(*cell))
       for name, cell in MATRIX.items()},
    # Fan off for three repetitions: thermal coupling without the fan.
    # The die ends near 37 C, far below the 99 C trip point (tau is
    # 165 s), so nothing throttles here; "jikes-p6-throttled" does.
    "jikes-p6-_213_javac-fanless-repetitions3": lambda: _matrix(
        "_213_javac", "jikes", "p6", fan_enabled=False, repetitions=3),
    "jikes-p6-throttled": _throttled,
    "kaffe-p6-throttled": lambda: _throttled(KaffeVM),
}


def _governor_decisions():
    """Every decision the governed case's governor took, and where the
    run spent its time."""
    governor = MemoryBoundGovernor()
    _governed(governor)
    decisions = [(d.cycle, d.ipc, d.freq_scale)
                 for d in governor.decisions]
    return {"n": len(decisions), "decisions": _sha256(decisions),
            "residency": {repr(scale): fraction for scale, fraction
                          in governor.residency.items()}}


def _drive(fan_enabled=True, temperature_c=None, style="jikes",
           idle_s=0.03, free_port=False):
    """Multi-chunk activities of three components and an idle interval
    straight through a scheduler of instrumentation *style*, with no VM
    around it.  With *free_port* the port's writes cost nothing, and a
    row with no instructions and a short collection follow."""
    platform = make_platform("p6", fan_enabled=fan_enabled)
    if temperature_c is not None:
        platform.thermal.temperature_c = temperature_c
    if free_port:
        platform.port = ComponentIDPort("free", width_bits=8,
                                        write_cost_cycles=0)
    sched = InstrumentedScheduler(platform, style=style, max_chunk_s=0.004)
    for comp in (Component.APP, Component.GC, Component.JIT):
        sched.execute(act(comp, instructions=120_000_000))
    sched.idle(idle_s)
    sched.execute(act(Component.APP, instructions=80_000_000))
    if free_port:
        sched.execute(act(Component.CL, instructions=0))
        sched.execute(act(Component.GC, instructions=1_000_000))
    timeline = sched.finish()
    counters = platform.counters.snapshot(0).values
    state = (timeline.duration_s, sched.sim_now_s, sched.now_cycle,
             platform.thermal.temperature_c,
             sorted((event.name, n) for event, n in counters.items()))
    return {**_timeline_digests(timeline, platform.port),
            "state": _sha256(state),
            "throttle_episodes": sched.throttle_episodes}


def _sim_spans(obs, track, name):
    """The *name* spans on the simulated-clock *track* of *obs*."""
    spans = [(span.start_s, span.dur_s, sorted(span.args.items()))
             for span in obs.tracer.spans_on(SIM_CLOCK, track)
             if span.name == name]
    return {"n": len(spans), "spans": _sha256(spans)}


def _gc_cycle_spans(obs=None):
    """The GC pause spans of the traced ``jikes-p6-GenCopy`` run (run
    here unless *obs* recorded it)."""
    if obs is None:
        obs = Observability.create(trace=True, metrics=True)
        _jikes("GenCopy", obs=obs)
    return _sim_spans(obs, "gc", "gc-cycle")


def _opt_compile_spans(obs=None):
    """The optimizing compile spans and count of the traced
    ``jikes-p6-GenCopy`` run (run here unless *obs* recorded it)."""
    if obs is None:
        obs = Observability.create(trace=True, metrics=True)
        _jikes("GenCopy", obs=obs)
    return {
        "opt-compile": _sim_spans(obs, "compiler", "opt-compile"),
        "opt_compiles": obs.metrics.counter("compiler.opt_compiles").value,
    }


def _kaffe_compiler_spans(obs=None):
    """The JIT compile and GC pause spans, and the JIT compile count, of
    the traced ``kaffe-pxa255`` run (run here unless *obs* recorded
    it)."""
    if obs is None:
        obs = Observability.create(trace=True, metrics=True)
        _kaffe(obs=obs)
    return {
        "jit-compile": _sim_spans(obs, "compiler", "jit-compile"),
        "gc-cycle": _sim_spans(obs, "gc", "gc-cycle"),
        "jit_compiles": obs.metrics.counter("compiler.jit_compiles").value,
    }


#: Pins that are not run digests, keyed like :data:`CASES`.
OOM_CASE = "jikes-p6-GenCopy-12MB-oom"
DECISIONS_CASE = "GovernedScheduler-decisions"
GC_SPANS_CASE = "jikes-p6-GenCopy-gc-cycle-spans"
KAFFE_SPANS_CASE = "kaffe-pxa255-compiler-spans"
OPT_SPANS_CASE = "jikes-p6-GenCopy-opt-compile-spans"
DRIVES = {
    "scheduler-drive": {},
    # Starts 0.01 C below the P6 trip point: the latch flips mid-batch.
    "scheduler-drive-throttled": dict(fan_enabled=False,
                                      temperature_c=98.99),
    # An idle interval shorter than one chunk.
    "scheduler-drive-kaffe-short-idle": dict(style="kaffe", idle_s=0.003),
    # Port writes that cost no cycles, and so leave no timeline row.
    "scheduler-drive-free-port": dict(free_port=True),
    "scheduler-drive-free-port-kaffe": dict(free_port=True, style="kaffe"),
}


def _golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_simulation_matches_golden(case):
    assert digests(*CASES[case]()) == _golden()[case]


@pytest.mark.parametrize("case", [
    "jikes-p6-GenCopy", "jikes-p6-GenMS", "jikes-p6-MarkSweep",
    "kaffe-pxa255", "jikes-p6-GenMS-nursery32k",
])
def test_compacting_every_slice_changes_nothing(case, monkeypatch):
    # Object-table compaction renumbers handles and drops rows: run it
    # at every slice's end, and every pin must still hold.
    monkeypatch.setattr(objects, "MIN_COMPACT_ROWS", 0)
    compactions = []
    compact = objects.ObjectTable.compact

    def counting(self, keep):
        compactions.append(self.n)
        mapping = compact(self, keep)
        self.compact_at = 0
        return mapping

    monkeypatch.setattr(objects.ObjectTable, "compact", counting)
    assert digests(*CASES[case]()) == _golden()[case]
    assert len(compactions) >= 30


def test_out_of_memory_matches_golden():
    assert _out_of_memory() == _golden()[OOM_CASE]


def test_governor_decisions_match_golden():
    assert _governor_decisions() == _golden()[DECISIONS_CASE]


@pytest.mark.parametrize("case", sorted(DRIVES))
def test_scheduler_drive_matches_golden(case):
    pin = _drive(**DRIVES[case])
    assert pin == _golden()[case]
    assert (pin["throttle_episodes"] > 0) == ("throttled" in case)


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(
        [*CASES, OOM_CASE, DECISIONS_CASE, GC_SPANS_CASE, KAFFE_SPANS_CASE,
         OPT_SPANS_CASE, SPLITS_CASE, *DRIVES])


def _assert_throttled_cuts_slice_streams(vm_class, monkeypatch):
    # The latch flips inside the slices' row streams: a stream batch is
    # committed short and its rest re-costed under the new duty cycle.
    scheds, cuts = [], []
    commit = InstrumentedScheduler._commit_batch

    def counting(self, batch, components, tags):
        consumed = commit(self, batch, components, tags)
        if consumed < len(batch) and len(set(components.tolist())) > 1:
            cuts.append(tags[consumed - 1])
        return consumed

    make = BaseVM._make_scheduler

    def keeping(self):
        scheds.append(make(self))
        return scheds[-1]

    monkeypatch.setattr(InstrumentedScheduler, "_commit_batch", counting)
    monkeypatch.setattr(BaseVM, "_make_scheduler", keeping)
    case = f"{vm_class.name}-p6-throttled"
    assert digests(*_throttled(vm_class)) == _golden()[case]
    assert scheds[0].throttle_episodes >= 1
    assert len(cuts) >= 1


def test_throttled_case_cuts_slice_streams(monkeypatch):
    _assert_throttled_cuts_slice_streams(JikesRVM, monkeypatch)


def test_throttled_kaffe_case_cuts_slice_streams(monkeypatch):
    _assert_throttled_cuts_slice_streams(KaffeVM, monkeypatch)


def test_traced_run_is_byte_identical():
    # Tracing observes every row of the slices' streams (one component
    # span per run of segments) and writes nothing back.
    obs = Observability.create(trace=True, metrics=True)
    run, port = _jikes("GenCopy", obs=obs)
    assert digests(run, port) == _golden()["jikes-p6-GenCopy"]
    spans = obs.tracer.spans_on(SIM_CLOCK, "components")
    base = Component.BASE.short_name
    assert sum(span.name == base for span in spans) > 10
    writes = obs.tracer.spans_on(SIM_CLOCK, "perturbation")
    assert sum(span.name == "port-write" for span in writes) == (
        run.port_writes)
    assert _gc_cycle_spans(obs) == _golden()[GC_SPANS_CASE]
    pin = _opt_compile_spans(obs)
    assert pin == _golden()[OPT_SPANS_CASE]
    assert pin["opt-compile"]["n"] == pin["opt_compiles"] == (
        run.opt_compiles) > 0


def test_traced_kaffe_run_is_byte_identical():
    # Kaffe's compiles and collections reach the scheduler inside the
    # slices' streams; their spans come from the stream's cursor.
    obs = Observability.create(trace=True, metrics=True)
    run, port = _kaffe(obs=obs)
    assert digests(run, port) == _golden()["kaffe-pxa255"]
    pin = _kaffe_compiler_spans(obs)
    assert pin == _golden()[KAFFE_SPANS_CASE]
    assert pin["jit-compile"]["n"] == pin["jit_compiles"] == (
        run.jit_compiles) > 0
    assert pin["gc-cycle"]["n"] > 0


def test_traced_governed_run_is_byte_identical():
    # Under the governor a batch is cut at every change of operating
    # point; tracing must observe those commits and write nothing back.
    obs = Observability.create(trace=True, metrics=True)
    traced = digests(*_governed(obs=obs))
    assert traced == _golden()["GovernedScheduler"]
    spans = obs.tracer.spans_on(SIM_CLOCK, "components")
    assert len(spans) > 10


if __name__ == "__main__":
    pins = {case: digests(*CASES[case]()) for case in sorted(CASES)}
    pins[OOM_CASE] = _out_of_memory()
    pins[DECISIONS_CASE] = _governor_decisions()
    pins[GC_SPANS_CASE] = _gc_cycle_spans()
    pins[KAFFE_SPANS_CASE] = _kaffe_compiler_spans()
    pins[OPT_SPANS_CASE] = _opt_compile_spans()
    pins[SPLITS_CASE] = split_pins()
    pins.update({case: _drive(**DRIVES[case]) for case in DRIVES})
    GOLDEN.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(pins)} pins to {GOLDEN}")
