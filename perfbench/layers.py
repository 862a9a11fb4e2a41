"""Per-layer self time for the benchmark's traced launch.

The benchmark measures layers from its own files: :class:`LayerTracer`
wraps the public entry points of each ``repro`` layer (the table
:data:`LAYERS`) in place, records inclusive time and call counts per
entry point, and subtracts the time of wrapped child calls to get self
time.  Nothing under ``src/`` knows it is being traced.

Accounting is per thread, so the traced service process (HTTP handler
threads plus a job worker) needs no locking on the hot path.  Every
thread keeps a stack of child-time accumulators; its bottom slot
collects the inclusive time of top-level wrapped calls, so the work the
wrappers do not reach is ``op time - sum(self time)``.

Calls also become spans of a Chrome trace, except those of hot entry
points (more than :data:`HOT_CALLS_PER_OP` calls per op), which are
aggregated only.
"""

import functools
import importlib
import sys
import threading
import types
from time import perf_counter

#: Layer name -> entry points, as ``"module:qualname"``.
#: ``"Class.method"`` is also wrapped on every subclass that overrides
#: it; ``"Class.*"`` means every function and property the class
#: itself defines.
LAYERS = {
    "workloads": ["repro.workloads.generator:WorkloadRun.*",
                  "repro.workloads.generator:WorkloadRun.__init__"],
    "randutil": ["repro.randutil:BufferedUniform.next",
                 "repro.randutil:BufferedUniform.next_index"],
    "jvm.vm": ["repro.jvm.vm:BaseVM.run"],
    "jvm.objects": ["repro.jvm.objects:ReferenceFactory.wire",
                    "repro.jvm.objects:RootSet.add",
                    "repro.jvm.objects:RootSet.expire",
                    "repro.jvm.objects:trace_closure"],
    "jvm.heap": ["repro.jvm.heap:BumpAllocator.allocate",
                 "repro.jvm.heap:FreeListAllocator.allocate",
                 "repro.jvm.heap:FreeListAllocator.free"],
    "jvm.gc": ["repro.jvm.gc.base:Collector.allocate",
               "repro.jvm.gc.base:Collector.collect",
               "repro.jvm.gc.base:Collector.record_mutation",
               "repro.jvm.gc.cost:GCCostModel.activities"],
    "jvm.compiler": [
        "repro.jvm.compiler.baseline:BaselineCompiler.compile",
        "repro.jvm.compiler.optimizing:OptimizingCompiler.compile",
        "repro.jvm.compiler.kaffe_jit:KaffeJIT.compile",
        "repro.jvm.compiler.adaptive:AdaptiveOptimizationSystem.*",
    ],
    "jvm.classloader": ["repro.jvm.classloader:ClassLoader.load",
                        "repro.jvm.classloader:ClassLoader.preload_system"],
    "jvm.scheduler": ["repro.jvm.scheduler:InstrumentedScheduler.execute",
                      "repro.jvm.scheduler:InstrumentedScheduler.idle",
                      "repro.jvm.scheduler:InstrumentedScheduler.finish"],
    "hardware": ["repro.hardware.activity:ExecutionModel.cost",
                 "repro.hardware.activity:ExecutionModel.cost_batch",
                 "repro.hardware.activity:ExecutionModel.run",
                 "repro.hardware.activity:ExecutionModel.run_batch",
                 "repro.hardware.activity:ExecutionModel.idle",
                 "repro.hardware.thermal:ThermalModel.step",
                 "repro.hardware.thermal:ThermalModel.step_batch",
                 "repro.hardware.hpm:PerformanceCounters.record_segment",
                 "repro.hardware.hpm:PerformanceCounters.record_batch"],
    "timeline": ["repro.timeline:ExecutionTimeline.append",
                 "repro.timeline:ExecutionTimeline.append_batch",
                 "repro.timeline:ExecutionTimeline.to_columns",
                 "repro.timeline:ExecutionTimeline.from_columns",
                 "repro.timeline:ExecutionTimeline.duration_s",
                 "repro.timeline:ExecutionTimeline.cpu_energy_j",
                 "repro.timeline:ExecutionTimeline.mem_energy_j",
                 "repro.timeline:ExecutionTimeline.component_cpu_energy_j",
                 "repro.timeline:ExecutionTimeline._component_sums"],
    "core.simulation": [
        "repro.core.simulation:simulate",
        "repro.core.simulation:SimulationResult.artifact",
        "repro.core.simulation:SimulationArtifact.run_result",
        "repro.core.simulation:SimulationArtifact.timeline",
        "repro.core.simulation:SimulationArtifact.measurement_target",
    ],
    "measurement.daq": ["repro.measurement.daq:DAQ.__init__",
                        "repro.measurement.daq:DAQ.acquire"],
    "measurement.sense": ["repro.measurement.sense:SenseChannel.measure",
                          "repro.measurement.sense:channels_for"],
    "measurement.noise": ["repro.measurement.noise:NoiseModel.for_seed",
                          "repro.measurement.noise:NoiseModel.quantizer",
                          "repro.measurement.noise:NoiseModel.daq_sample_times",
                          "repro.measurement.noise:NoiseModel.hpm_tick_times",
                          "repro.measurement.noise:ADCQuantizer.quantize"],
    "measurement.hpm_sampler": [
        "repro.measurement.hpm_sampler:HPMSampler.sample"],
    "measurement.multiplexing": [
        "repro.measurement.multiplexing:MultiplexedHPMSampler.sample"],
    "measurement.traces": ["repro.measurement.traces:PowerTrace.*",
                           "repro.measurement.traces:PerfTrace.*"],
    "core.decomposition": ["repro.core.decomposition:decompose",
                           "repro.core.decomposition:component_profiles"],
    "analysis.uncertainty": [
        "repro.analysis.uncertainty.bootstrap:bootstrap_uncertainty",
        "repro.analysis.uncertainty.bootstrap:BootstrapEngine.run",
        "repro.analysis.uncertainty.distribution:OnlineStats.add",
        "repro.analysis.uncertainty.distribution:EnergyDistribution.from_stats",
    ],
    "export": ["repro.export:result_to_dict",
               "repro.export:result_to_cell_dict"],
    "campaign.runner": ["repro.campaign.runner:CampaignRunner.run",
                        "repro.campaign.runner:_execute_group"],
    "campaign.artifacts": ["repro.campaign.artifacts:sim_key",
                           "repro.campaign.artifacts:ArtifactStore.get",
                           "repro.campaign.artifacts:ArtifactStore.get_key",
                           "repro.campaign.artifacts:ArtifactStore.put"],
    "campaign.cache": ["repro.campaign.cache:config_key",
                       "repro.campaign.cache:ResultCache.get",
                       "repro.campaign.cache:ResultCache.put"],
    "provenance": ["repro.provenance:code_digest",
                   "repro.provenance:build_envelope",
                   "repro.provenance:write_envelope",
                   "repro.provenance:read_envelope"],
    "serve": ["repro.serve.server:_Handler.do_GET",
              "repro.serve.server:_Handler.do_POST",
              "repro.serve.server:ExperimentService._execute_job",
              "repro.serve.store:ResultStore.get_bytes",
              "repro.serve.store:ResultStore.put_bytes"],
}

#: An entry point called more often than this per op is hot: it is
#: aggregated only and gets no per-call spans in the Chrome trace.
HOT_CALLS_PER_OP = 1000
#: Spans kept per entry point and thread; past this the entry point
#: counts as hot whatever the op count (bounds memory).
SPAN_LIMIT = 20_000

#: Count metrics: name -> (entry point, count taken from its return value).
COUNTS = {
    "jvm.gc.collections": ("repro.jvm.gc.base:Collector.collect", len),
    "jvm.scheduler.segments": (
        "repro.jvm.scheduler:InstrumentedScheduler.finish", len),
    "measurement.daq.samples": (
        "repro.measurement.daq:DAQ.acquire",
        lambda trace: len(trace.times_s)),
    "campaign.runner.simulations": (
        "repro.campaign.runner:CampaignRunner.run",
        lambda result: result.summary.n_simulations),
}

#: Ratio metrics: name -> (lookup entry point, hits counted from its
#: return value); the ratio is hits over lookups, 0 without lookups.
RATIOS = {
    "campaign.artifacts.hit_ratio": (
        "repro.campaign.artifacts:ArtifactStore.get_key",
        lambda found: int(found is not None)),
    "campaign.cache.hit_ratio": (
        "repro.campaign.cache:ResultCache.get",
        lambda found: int(found is not None)),
}

_NUMERIC = ("self_s", "calls", "counts")


def combine(a, b, sign=1):
    """``a + sign * b`` over two :meth:`LayerTracer.totals` snapshots."""
    return dict(a, **{key: [x + sign * y for x, y in zip(a[key], b[key])]
                      for key in _NUMERIC})


def layer_metrics(spent, n_ops, op_s):
    """Per-op layer metrics from the counters *spent* over *n_ops* ops.

    *spent* is a snapshot difference (see :func:`combine`); ``op_s`` is
    the mean time of one op, and the part of it no wrapped call covers
    is reported as ``unattributed.self_s``.
    """
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.calls"] = 0.0
    for i, (layer, _) in enumerate(spent["entries"]):
        out[f"{layer}.self_s"] += spent["self_s"][i] / n_ops
        out[f"{layer}.calls"] += spent["calls"][i] / n_ops
    out["unattributed.self_s"] = op_s - sum(
        out[f"{layer}.self_s"] for layer in LAYERS)
    counts = dict(zip(spent["counters"], spent["counts"]))
    for name in COUNTS:
        out[name] = counts[name] / n_ops
    keys = [key for _, key in spent["entries"]]
    for name, (key, _) in RATIOS.items():
        lookups = spent["calls"][keys.index(key)]
        out[name] = counts[name] / lookups if lookups else 0.0
    return out


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def _is_wrappable(value):
    return isinstance(value, (property, staticmethod, classmethod,
                              types.FunctionType))


class _ThreadState:
    __slots__ = ("stack", "self_s", "calls", "counts", "spans", "tid")

    def __init__(self, n_entries, n_counts):
        self.stack = [0.0]
        self.self_s = [0.0] * n_entries
        self.calls = [0] * n_entries
        self.counts = [0] * n_counts
        self.spans = []
        self.tid = threading.get_ident()


class LayerTracer:
    """Wraps every entry point of :data:`LAYERS`; see the module doc."""

    def __init__(self):
        self.entries = []      # (layer, key), index = entry id
        self.missing = []      # entry points the program no longer has
        self._counters = []    # metric name, index = counter id
        self._local = threading.local()
        self._states = []
        # Re-entrant: a signal handler on the main thread may read the
        # totals while that thread is registering its own state.
        self._lock = threading.RLock()
        self._patches = []     # (owner, attribute, original)
        self.epoch = perf_counter()

    # -- accounting -----------------------------------------------------

    def _state(self):
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState(len(self.entries), len(self._counters))
            with self._lock:
                self._states.append(state)
            self._local.state = state
            return state

    def _wrap(self, fn, index, counters):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = tracer._state()
            stack = state.stack
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                state.self_s[index] += elapsed - stack.pop()
                state.calls[index] += 1
                stack[-1] += elapsed
                if state.calls[index] <= SPAN_LIMIT:
                    state.spans.append((index, start, elapsed))
            for counter, take in counters:
                state.counts[counter] += take(result)
            return result

        return wrapper

    # -- install / uninstall ------------------------------------------------

    def install(self):
        """Wrap every entry point; returns ``self``."""
        counters_by_key = {}
        for name, (key, take) in {**COUNTS, **RATIOS}.items():
            self._counters.append(name)
            counters_by_key.setdefault(key, []).append(
                (len(self._counters) - 1, take))
        for layer, keys in LAYERS.items():
            for key in keys:
                self.entries.append((layer, key))
                self._install_entry(key, len(self.entries) - 1,
                                    counters_by_key.get(key, ()))
        return self

    def _install_entry(self, key, index, counters):
        module_name, qualname = key.split(":")
        owner_name, _, attr = qualname.rpartition(".")
        try:
            module = importlib.import_module(module_name)
            original = getattr(module, owner_name or attr)
        except (ImportError, AttributeError):
            # Renamed or removed by a change to the program: its layer
            # reports what the remaining entry points see.
            self.missing.append(key)
            return
        if not owner_name:
            wrapper = self._wrap(original, index, counters)
            # Rebind every module-level reference, including
            # ``from x import f`` copies and aliases.
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("repro"):
                    continue
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)
            return
        cls = original
        if attr == "*":
            names = [n for n, v in vars(cls).items()
                     if not n.startswith("__") and _is_wrappable(v)]
        else:
            names = [attr]
        wrapped = False
        for klass in [cls] + _subclasses(cls):
            for name in names:
                value = vars(klass).get(name)
                if value is None or not _is_wrappable(value):
                    continue
                self._patch(klass, name, self._wrap_descriptor(
                    value, index, counters))
                wrapped = True
        if not wrapped:
            self.missing.append(key)

    def _wrap_descriptor(self, value, index, counters):
        if isinstance(value, property):
            return property(self._wrap(value.fget, index, counters),
                            value.fset, value.fdel, value.__doc__)
        if isinstance(value, (staticmethod, classmethod)):
            return type(value)(self._wrap(value.__func__, index, counters))
        return self._wrap(value, index, counters)

    def _patch(self, owner, name, replacement):
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, replacement)

    def uninstall(self):
        """Restore every wrapped attribute."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- reading ------------------------------------------------------------

    def totals(self):
        """Cumulative counters over all threads, as a plain-data
        snapshot (JSON-ready, so a traced process can hand it over)."""
        n, m = len(self.entries), len(self._counters)
        out = {"entries": self.entries, "counters": self._counters,
               "at_us": (perf_counter() - self.epoch) * 1e6,
               "self_s": [0.0] * n, "calls": [0] * n, "counts": [0] * m}
        with self._lock:
            states = list(self._states)
        for state in states:
            for i in range(n):
                out["self_s"][i] += state.self_s[i]
                out["calls"][i] += state.calls[i]
            for i in range(m):
                out["counts"][i] += state.counts[i]
        return out

    def spans(self):
        """Recorded calls as ``[tid, entry, start_us, dur_us]``."""
        with self._lock:
            states = list(self._states)
        return [[state.tid, index, (start - self.epoch) * 1e6, elapsed * 1e6]
                for state in states
                for index, start, elapsed in state.spans]


def chrome_events(spans, before, after, n_ops, pid):
    """Chrome trace events of a process's :meth:`LayerTracer.spans`
    that start between the *before* and *after* snapshots.

    Entry points called more than :data:`HOT_CALLS_PER_OP` times per op
    between the snapshots are hot and left out.
    """
    spent = combine(after, before, -1)
    shown = [calls <= HOT_CALLS_PER_OP * n_ops for calls in spent["calls"]]
    events = [{"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
               "args": {"name": f"repro pid {pid}"}}]
    for tid, index, start_us, dur_us in spans:
        if shown[index] and before["at_us"] <= start_us <= after["at_us"]:
            layer, key = spent["entries"][index]
            events.append({"name": key.split(":")[1], "cat": layer,
                           "ph": "X", "ts": round(start_us, 3),
                           "dur": round(dur_us, 3), "pid": pid, "tid": tid})
    return events
