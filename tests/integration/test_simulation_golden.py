"""Simulation golden: the simulate phase's outputs, pinned by sha256.

The simulate phase is the hot loop every optimization touches (object
graph, heap, collectors, compilers, scheduler, thermal feedback), and
its contract is that such work changes *speed*, never *output*.  This
pins, for a matrix of VMs, collectors, platforms and extensions, the
sha256 of every simulation output that involves no BLAS reduction —
the timeline's column bytes and tags, the component-ID port's latch
history, the GC statistics and the compile counts — so the pins hold
on any host, unlike energy totals computed with ``np.dot``.

The pins in ``tests/golden/simulation_golden.json`` were recorded
before the allocation fast path and the batched first-call compiles
existed; the allocation-trace replay, small-nursery (pretenuring),
two-repetition and out-of-memory pins were recorded before the object
table replaced per-cohort objects.  Re-pin only for a reviewed change
that is *meant* to alter the simulation::

    PYTHONPATH=src python -m tests.integration.test_simulation_golden
"""

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from repro.core.experiment import ExperimentConfig
from repro.core.simulation import simulate
from repro.errors import OutOfMemoryError
from repro.extensions.dvfs_governor import MemoryBoundGovernor, governed_vm
from repro.extensions.heap_sizing import AdaptiveHeapVM
from repro.extensions.thermal_policy import ThermalAwareVM
from repro.hardware.platform import make_platform
from repro.jvm import objects
from repro.jvm.components import Component
from repro.jvm.gc.generational import GenCopy, GenMS
from repro.jvm.vm import JikesRVM
from repro.obs import Observability
from repro.obs.tracer import SIM_CLOCK
from repro.units import KB, MB
from repro.workloads.alloctrace import TraceWorkloadRun, record_trace

from tests.conftest import make_tiny_spec

GOLDEN = (
    Path(__file__).resolve().parent.parent / "golden"
    / "simulation_golden.json"
)


def digests(run, port):
    """Per-output sha256 hex digests of one finished simulation."""
    cols = run.timeline.to_columns()
    timeline = hashlib.sha256(repr((cols["clock_hz"], cols["n"])).encode())
    for name in sorted(cols["columns"]):
        col = np.ascontiguousarray(cols["columns"][name])
        timeline.update(f"{name}:{col.dtype.str}:".encode())
        timeline.update(col.tobytes())
    timeline.update("\n".join(cols["tags"]).encode())
    cycles, values = port.history_arrays()
    latch = hashlib.sha256(repr(int(port.idle_value)).encode())
    latch.update(np.asarray(cycles, dtype=np.int64).tobytes())
    latch.update(np.asarray(values, dtype=np.int16).tobytes())
    gc_stats = json.dumps(asdict(run.gc_stats), sort_keys=True)
    compiles = json.dumps({
        "base": run.base_compiles, "opt": run.opt_compiles,
        "jit": run.jit_compiles, "port_writes": run.port_writes,
        "perturbation_cycles": run.perturbation_cycles,
    }, sort_keys=True)
    return {
        "segments": int(cols["n"]),
        "timeline": timeline.hexdigest(),
        "port": latch.hexdigest(),
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


def _governed():
    platform = make_platform("p6")
    governor = MemoryBoundGovernor()
    vm = governed_vm(JikesRVM, platform, governor, heap_mb=24, seed=6,
                     n_slices=40)
    run = vm.run(make_tiny_spec(
        app_overrides={"l1_miss_rate": 0.09, "locality": 0.5}))
    assert any(scale < 1.0 for scale in governor.residency)
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


CASES = {
    "jikes-p6-SemiSpace": lambda: _jikes("SemiSpace"),
    "jikes-p6-MarkSweep": lambda: _jikes("MarkSweep"),
    "jikes-p6-GenCopy": lambda: _jikes("GenCopy"),
    "jikes-p6-GenMS": lambda: _jikes("GenMS"),
    "jikes-p6-GenCopy-reference": lambda: _experiment(
        benchmark="_213_javac", heap_mb=32, input_scale=0.5),
    "kaffe-pxa255": lambda: _experiment(
        benchmark="_202_jess", vm="kaffe", platform="pxa255",
        heap_mb=16, seed=7, input_scale=0.1),
    "AdaptiveHeapVM": _adaptive_heap,
    "ThermalAwareVM": _thermal_aware,
    "GovernedScheduler": _governed,
    "TraceReplay-GenMS": _trace_replay,
    "jikes-p6-GenCopy-nursery32k": lambda: _small_nursery(GenCopy),
    "jikes-p6-GenMS-nursery32k": lambda: _small_nursery(GenMS),
    "jikes-p6-GenMS-repetitions2": _repetitions,
}

#: Pins that are not run digests, keyed like :data:`CASES`.
OOM_CASE = "jikes-p6-GenCopy-12MB-oom"


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


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted([*CASES, OOM_CASE])


def test_traced_run_is_byte_identical():
    # Tracing observes every row of the batched first-call compiles
    # (one component span per run of segments) and writes nothing back.
    obs = Observability.create(trace=True, metrics=True)
    traced = digests(*_jikes("GenCopy", obs=obs))
    assert traced == _golden()["jikes-p6-GenCopy"]
    spans = obs.tracer.spans_on(SIM_CLOCK, "components")
    base = Component.BASE.short_name
    assert sum(span.name == base for span in spans) > 10


if __name__ == "__main__":
    pins = {case: digests(*CASES[case]()) for case in sorted(CASES)}
    pins[OOM_CASE] = _out_of_memory()
    GOLDEN.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(pins)} pins to {GOLDEN}")
