"""The integrated virtual machines.

:class:`JikesRVM` models the IBM Jikes RVM 2.4.1 (Section IV-A): system
classes merged into the boot image, a fast baseline compiler on first
invocation, an adaptive optimization system recompiling hot methods with
the optimizing compiler on its own thread, and a choice of four garbage
collectors.  Component IDs are written by the thread scheduler.

:class:`KaffeVM` models Kaffe 1.1.4: a clean-room portable VM configured
with JIT compilation and Unix threads, lazy class loading of both user
*and* system classes, and an incremental conservative mark-sweep
collector.  Component IDs are written at component entry and exit.

A VM executes a :class:`~repro.workloads.generator.WorkloadRun` slice by
slice; everything it does — class loads, compilations, application
execution, allocation, and the collections allocation forces — flows
through the instrumented scheduler into a ground-truth timeline that the
measurement infrastructure then samples.  Both VMs share one slice loop:
a slice's class loads, first-call compiles, application stretches and
GC phases join one queue of work that commits as one row stream.
"""

import bisect
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.errors import (
    ConfigurationError,
    OutOfMemoryError,
    SpaceExhausted,
    UnknownCollectorError,
)
from repro.hardware.activity import Activity
from repro.hardware.cache import MemoryBehavior
from repro.jvm.classloader import KAFFE_LOADER_FACTOR, ClassLoader
from repro.jvm.compiler import (
    AdaptiveOptimizationSystem,
    BaselineCompiler,
    KaffeJIT,
    OptimizingCompiler,
)
from repro.jvm.compiler.method import QUALITY_INTERPRETER
from repro.jvm.components import Component
from repro.jvm.gc import JIKES_COLLECTORS, make_collector
from repro.jvm.gc.cost import GCBurstProfile, GCCostModel
from repro.jvm.objects import ReferenceFactory, RootSet
from repro.jvm.profiles import profile_for
from repro.jvm.scheduler import InstrumentedScheduler
from repro.obs import NULL_OBS
from repro.registry import VMS as VM_REGISTRY
from repro.registry import register_vm
from repro.units import MB
from repro.workloads import get_benchmark
from repro.workloads.generator import WorkloadRun

#: How many just-allocated objects are candidates for tracked mutations.
MUTATION_RING = 16

#: Application data footprint relative to the live set (fragmentation,
#: stacks, code).
APP_FOOTPRINT_FACTOR = 1.3


@dataclass
class RunResult:
    """Everything a completed VM run produced (ground truth side)."""

    benchmark: str
    vm_name: str
    platform_name: str
    collector_name: str
    heap_mb: int
    seed: int
    timeline: object
    gc_stats: object
    collector: object
    classloader: object
    workload: object
    port_writes: int
    perturbation_cycles: int
    repetitions: int = 1
    opt_compiles: int = 0
    base_compiles: int = 0
    jit_compiles: int = 0

    @property
    def duration_s(self):
        """Ground-truth wall-clock duration of the run."""
        return self.timeline.duration_s

    def component_seconds(self):
        return self.timeline.component_seconds()

    def cpu_energy_j(self):
        return self.timeline.cpu_energy_j()

    def mem_energy_j(self):
        return self.timeline.mem_energy_j()

    def summary(self):
        """One-paragraph human-readable description."""
        comp_s = self.component_seconds()
        total_s = self.duration_s
        parts = []
        for cid in sorted(comp_s, key=lambda c: -comp_s[c]):
            name = Component.from_port_value(cid).short_name
            parts.append(f"{name} {100 * comp_s[cid] / total_s:.1f}%")
        return (
            f"{self.benchmark} on {self.vm_name}/{self.platform_name} "
            f"({self.collector_name}, {self.heap_mb} MB): "
            f"{total_s:.2f} s, {self.cpu_energy_j():.1f} J CPU, "
            f"{self.mem_energy_j():.2f} J memory; time share "
            + ", ".join(parts)
        )


class BaseVM:
    """Shared machinery of both virtual machines."""

    name = "base"
    style = "jikes"
    lazy_system_classes = False
    loader_factor = 1.0
    supported_collectors = ()
    default_collector = None
    #: Heap bytes reserved for the VM's own data (boot image, compiled
    #: code, VM structures) and unavailable to the application.
    vm_reserved_bytes = 6 * MB
    #: Instruction cost of VM bootstrap, and its memory footprint.
    boot_instructions = 350_000_000
    boot_footprint_bytes = 8 * MB

    def __init__(self, platform, collector=None, heap_mb=64, seed=42,
                 n_slices=160, dvfs_freq_scale=None,
                 initial_temperature_c=None, obs=None):
        collector = collector or self.default_collector
        if collector not in self.supported_collectors:
            raise UnknownCollectorError(
                f"{self.name} supports {self.supported_collectors}, "
                f"got {collector!r}"
            )
        heap_bytes = int(heap_mb * MB) - self.vm_reserved_bytes
        if heap_bytes < 2 * MB:
            raise ConfigurationError(
                f"heap of {heap_mb} MB leaves no room after the VM's "
                f"{self.vm_reserved_bytes // MB} MB reservation"
            )
        self.platform = platform
        self.collector_name = collector
        self.heap_mb = int(heap_mb)
        self.heap_bytes = heap_bytes
        self.seed = seed
        self.n_slices = n_slices
        #: Optional fixed DVFS operating point (paper Section VII lists
        #: DVFS as future work; the platform supports it natively).
        self.dvfs_freq_scale = dvfs_freq_scale
        #: Optional warm-start die temperature (long-running servers
        #: operate at steady temperature, not at ambient).
        self.initial_temperature_c = initial_temperature_c
        #: Observability bundle (null by default; see :mod:`repro.obs`).
        #: Strictly write-only — spans and metrics never feed back into
        #: the simulation, so a traced run is byte-identical to an
        #: untraced one.
        self.obs = obs if obs is not None else NULL_OBS

    # -- public API ----------------------------------------------------

    def run(self, benchmark, input_scale=1.0, warm=True, repetitions=1,
            idle_between_s=0.5):
        """Execute *benchmark* to completion; return a :class:`RunResult`.

        ``input_scale`` shrinks the input (e.g. 0.1 for SpecJVM98 -s10);
        ``warm`` models the paper's warm-up run (OS file caches hot);
        ``repetitions`` re-runs the workload back-to-back with idle gaps
        (used by the Figure 1 thermal experiment).
        """
        rng = np.random.default_rng(self.seed)
        self.platform.reset()
        if self.dvfs_freq_scale is not None:
            self.platform.cpu.set_dvfs(self.dvfs_freq_scale)
        if self.initial_temperature_c is not None:
            self.platform.thermal.reset(self.initial_temperature_c)
        if isinstance(benchmark, WorkloadRun):
            # Pre-built workload (e.g. an allocation-trace replay).
            workload = benchmark
            spec = workload.spec
        else:
            spec = (
                get_benchmark(benchmark) if isinstance(benchmark, str)
                else benchmark
            )
            workload = WorkloadRun(spec, rng, input_scale=input_scale,
                                   n_slices=self.n_slices)
        collector = self._make_collector(rng)
        sched = self._make_scheduler()
        roots = RootSet(collector.table)
        refs = ReferenceFactory(collector.table, rng)
        classloader = ClassLoader(
            self.platform.name,
            lazy_system_classes=self.lazy_system_classes,
            loader_factor=self.loader_factor,
        )
        gc_cost = GCCostModel(
            self.platform.name,
            burst=GCBurstProfile(
                fraction=spec.gc_burst.fraction,
                cpi_scale=spec.gc_burst.cpi_scale,
                mix=spec.gc_burst.mix,
            ),
        )
        state = _RunState(
            spec=workload.spec,
            workload=workload,
            collector=collector,
            sched=sched,
            roots=roots,
            refs=refs,
            classloader=classloader,
            gc_cost=gc_cost,
            warm=warm,
            app_profile=profile_for(
                self.platform.name, "app", **workload.spec.app_overrides
            ),
        )
        tracer = self.obs.tracer
        log = self.obs.log
        log.info("vm.run.start", vm=self.name,
                 benchmark=workload.spec.name,
                 collector=self.collector_name, heap_mb=self.heap_mb,
                 seed=self.seed)
        self._setup_compilers(state)
        boot_from = sched.sim_now_s
        self._boot(state)
        self._commit_stream(state)
        if tracer.enabled:
            tracer.add_sim_span("boot", "vm", boot_from,
                                sched.sim_now_s, vm=self.name)
        for rep in range(repetitions):
            if rep > 0 and idle_between_s > 0:
                sched.idle(idle_between_s)
            rep_from = sched.sim_now_s
            for sl in workload.slices:
                self._run_slice(state, sl)
            self._commit_stream(state)
            if tracer.enabled and repetitions > 1:
                tracer.add_sim_span(f"repetition {rep}", "vm",
                                    rep_from, sched.sim_now_s)
        log.info("vm.run.finish", vm=self.name,
                 benchmark=workload.spec.name,
                 sim_duration_s=round(sched.sim_now_s, 6),
                 collections=collector.stats.collections,
                 port_writes=sched.port_writes)
        return RunResult(
            benchmark=workload.spec.name,
            vm_name=self.name,
            platform_name=self.platform.name,
            collector_name=self.collector_name,
            heap_mb=self.heap_mb,
            seed=self.seed,
            timeline=sched.finish(),
            gc_stats=collector.stats,
            collector=collector,
            classloader=classloader,
            workload=workload,
            port_writes=sched.port_writes,
            perturbation_cycles=(
                self.platform.port.total_perturbation_cycles()
            ),
            repetitions=repetitions,
            opt_compiles=getattr(state.opt, "methods_compiled", 0),
            base_compiles=getattr(state.base, "methods_compiled", 0),
            jit_compiles=getattr(state.jit, "methods_compiled", 0),
        )

    # -- hooks implemented by subclasses ----------------------------

    def _make_collector(self, rng):
        """Build the run's collector.  Overridable for ablation
        studies (e.g. custom nursery sizes)."""
        return make_collector(self.collector_name, self.heap_bytes, rng)

    def _make_scheduler(self):
        """Build the run's instrumented scheduler.  Overridable for
        extensions that interpose on execution (e.g. DVFS governors)."""
        return InstrumentedScheduler(self.platform, style=self.style,
                                     obs=self.obs)

    def _setup_compilers(self, state):
        """Cost the compile of every method by ``state.compiler`` (set
        by the subclass first; ``None`` interprets): a compile costs
        the same whenever it runs, so all of them are costed here in
        one pass."""
        if state.compiler is not None:
            state.compile_costs = state.sched.exec_model.cost_rows(
                state.compiler.activity_rows(state.workload.method_table)
            )

    def _boot(self, state):
        # The slices fix the order of the dynamic loads, and so each
        # load's footprint: all of them are costed here in one pass.
        state.class_costs = state.sched.exec_model.cost_rows(
            state.classloader.activity_rows(
                [cls for sl in state.workload.slices
                 for cls in sl.class_loads],
                warm=state.warm,
            )
        )
        profile = profile_for(self.platform.name, "boot")
        state.stream.add([
            Activity(
                component=Component.APP,
                instructions=self.boot_instructions,
                behavior=MemoryBehavior(
                    footprint_bytes=self.boot_footprint_bytes,
                    hot_bytes=profile.hot_bytes,
                    locality=profile.locality,
                    spatial_factor=profile.spatial,
                ),
                refs_per_instr=profile.refs_per_instr,
                l1_miss_rate=profile.l1_miss_rate,
                mix_factor=profile.mix,
                cpi_scale=profile.cpi_scale,
                tag="boot",
            )
        ])

    def _post_slice(self, state, sl):
        """Subclass hook after each slice's commit (Jikes runs the AOS
        here); what it queues commits with the next slice's stream."""

    # -- slice execution -------------------------------------------------

    def _run_slice(self, state, sl):
        """One emission pass: the slice's class loads, first-call
        compiles, application stretches and GC phases join the queue in
        order and commit with it before :meth:`_post_slice`."""
        loads = state.classloader.load_all(sl.class_loads)
        if loads:
            done = state.classes_loaded
            state.stream.add(state.class_costs[done:done + loads])
            state.classes_loaded = done + loads
        self._compile_first_calls(state, sl)
        state.roots.expire(state.now)
        self._run_app_phase(state, sl)
        self._commit_stream(state)
        self._post_slice(state, sl)

    def _compile_first_calls(self, state, sl):
        """Compile the methods of slice *sl*'s first invocations that
        are not compiled yet, in table order: one column write, and
        their precosted rows join the slice's stream."""
        table = state.workload.method_table
        rows = sl.method_ids[table.columns.quality[sl.method_ids] <= 0.0]
        if not len(rows):
            return
        compiler = state.compiler
        if compiler is None:
            # The interpreter executes bytecodes directly: no compile
            # activity, but dreadful code quality from then on.
            table.columns.set_quality(rows, QUALITY_INTERPRETER, "interp")
            return
        compiler.compile_rows(table, rows)
        first = state.stream.add(state.compile_costs[rows])
        if compiler.traced:
            state.stream.compiles.append((first, compiler, rows, None))

    def _commit_stream(self, state):
        """Commit the queued work, if any, and start a new queue.

        ``state.app_seconds`` gains, per stretch, the cursor after its
        rows minus the cursor before its port write; each GC pause spans
        its collections' rows, and each traced compile its row: exactly
        what reading ``sched.sim_now_s`` around an ``execute`` of each
        would give.
        """
        stream = state.stream
        if not stream.parts:
            return
        state.stream = _SliceStream()
        cursor = state.sched.execute_rows(*stream.parts)
        for row in stream.stretches:
            state.app_seconds += cursor[row + 1] - cursor[row]
        for compiles in stream.compiles:
            self._observe_compiles(state, cursor, *compiles)
        for first, stop, reports in stream.collections:
            self._observe_gc(reports, cursor[first], cursor[stop])

    def _observe_compiles(self, state, cursor, first, compiler, rows,
                          levels):
        """Record *compiler*'s compiles of method table rows *rows*,
        stream rows from *first* on: a count, and a span each, with its
        optimization level if *levels* names one."""
        self.obs.metrics.counter(
            f"compiler.{compiler.tier}_compiles").inc(len(rows))
        tracer = self.obs.tracer
        if tracer.enabled:
            methods = state.workload.method_table.methods
            for k, row in enumerate(rows, first):
                level = {} if levels is None else {"level": levels[k - first]}
                tracer.add_sim_span(
                    compiler.tag, "compiler", cursor[k], cursor[k + 1],
                    method=methods[row].name, **level,
                )

    def _run_app_phase(self, state, sl):
        """Allocate, root and wire the slice's cohorts, collecting as the
        heap fills, and emit the slice's application work around the
        collections.

        The cohorts between two collection points form a *stretch*, and
        each stretch is allocated (:meth:`Collector.allocate`) and rooted
        in whole-array steps.  Wiring runs ahead of allocation, from one
        uniform-block refill to the next (cohort ``i`` of the slice gets
        row ``table.n + i``), so the workload's and the collector's
        draws on the shared generator keep their places between the
        refills.
        """
        sizes, deaths = state.workload.draw_cohort_batch(
            state.now, sl.alloc_bytes
        )
        n = len(sizes)
        if not n:
            self._emit_app(state, sl, sl.bytecodes)
            return
        sizes = np.asarray(sizes, dtype=np.int64)
        # The allocation clock at each cohort's birth and after the
        # last: float64 adds in cohort order, as ``now += size`` would.
        clock = np.cumsum(np.concatenate(([state.now], sizes)),
                          dtype=np.float64)
        births = clock[:-1]
        # A cohort lives at least one byte of allocation.
        deaths = np.maximum(np.asarray(deaths, dtype=np.float64),
                            births + 1.0)
        ends = np.cumsum(sizes)
        total_alloc = int(ends[-1])
        # A tracked mutation follows every ``stride``-th cohort.
        stride = max(1, n // (sl.mutations + 1))
        slice_ = _SliceCohorts(
            handles=range(state.collector.table.n,
                          state.collector.table.n + n),
            deaths=deaths,
            mutation_points=range(stride - 1,
                                  min(n, sl.mutations * stride), stride),
        )
        state.collector.table.reserve(slice_.handles.stop)
        allocate = state.collector.allocate
        emitted_frac = 0.0
        retry = False
        i = 0
        while i < n:
            try:
                handles = allocate(sizes[i:], births[i:], deaths[i:])
                exhausted = False
            except SpaceExhausted as exc:
                if retry and not exc.allocated:
                    raise OutOfMemoryError(
                        int(sizes[i]), self.heap_bytes,
                        state.roots.live_bytes()
                    ) from None
                handles, exhausted = exc.allocated, True
            if handles:
                if handles[0] != slice_.handles[i]:
                    raise RuntimeError(
                        "object-table rows out of allocation order")
                self._admit(state, slice_, i, i + len(handles))
                i += len(handles)
            retry = exhausted
            if exhausted:
                frac = (int(ends[i - 1]) if i else 0) / total_alloc
                self._emit_app(
                    state, sl, sl.bytecodes * (frac - emitted_frac)
                )
                emitted_frac = frac
                state.now = float(births[i])
                self._collect(state, int(sizes[i]))
        state.now = float(clock[-1])
        self._emit_app(state, sl, sl.bytecodes * (1.0 - emitted_frac))
        self._compact(state)

    def _admit(self, state, slice_, start, stop):
        """Root the allocated cohorts ``start:stop`` of the slice, wire
        them (wiring may run ahead), and make the tracked mutations that
        follow them, in cohort order."""
        handles = slice_.handles
        deaths = slice_.deaths
        own = deaths[start:stop].tolist()
        state.roots.add(handles[start:stop], own)
        points = slice_.mutation_points
        points = points[bisect.bisect_left(points, start):
                        bisect.bisect_left(points, stop)]
        wire = state.refs.wire
        ring = state.mutation_ring
        if points:
            # A mutation stores into one of the last MUTATION_RING
            # cohorts: the ring so far, then this stretch's.
            chain = ring + list(handles[start:stop])
            chain_deaths = (state.collector.table.death[ring].tolist()
                            + own)
            target_of = state.workload.mutation_target
            record = state.collector.record_mutation
            for point in points:
                # Wiring stops short of a uniform-block refill, so the
                # refill comes after the mutations that preceded it one
                # cohort at a time, and before those that followed it.
                while slice_.wired <= point:
                    slice_.wired += wire(handles[slice_.wired:],
                                         deaths[slice_.wired:])
                end = len(ring) + point - start + 1
                begin = max(0, end - MUTATION_RING)
                target = target_of(chain[begin:end], chain_deaths[begin:end])
                if target is not None:
                    record(target)
        while slice_.wired < stop:
            slice_.wired += wire(handles[slice_.wired:],
                                 deaths[slice_.wired:])
        state.mutation_ring = (
            ring + list(handles[max(start, stop - MUTATION_RING):stop])
        )[-MUTATION_RING:]

    def _collect(self, state, request):
        """Collect because a *request*-byte cohort did not fit."""
        state.roots.expire(state.now)
        try:
            reports = state.collector.collect(state.roots, state.now)
        except SpaceExhausted:
            self.obs.log.warning(
                "gc.out_of_memory", heap_bytes=self.heap_bytes,
                live_bytes=state.roots.live_bytes(), request=request,
            )
            raise OutOfMemoryError(
                request, self.heap_bytes, state.roots.live_bytes()
            ) from None
        self._emit_gc(state, reports)

    def _emit_gc(self, state, reports):
        """Queue the phases of a cycle's collections."""
        stream = state.stream
        acts = [act for report in reports
                for act in state.gc_cost.activities(report)]
        first = stream.add(acts)
        stream.collections.append((first, first + len(acts), reports))

    def _compact(self, state):
        """At a slice's end, drop object-table rows nothing can reach any
        more, once the table has grown past its bound.

        Kept: every handle someone holds (roots, the reference window,
        the mutation ring, the collector's lists) and every object
        dying no earlier than the earliest-dying ring cohort or
        remembered-set target.  Those can be traced after they died (a
        ring cohort by becoming a remembered-set target: nepotism), and
        everything their edges reach dies no earlier than they do, by
        the edge rule.
        """
        table = state.collector.table
        if table.n < table.compact_at:
            return
        ring = state.mutation_ring
        keep = np.zeros(table.n, dtype=bool)
        for held in (state.roots.live_objects(), state.refs.held_handles(),
                     ring, *state.collector.held_handles()):
            keep[np.asarray(held, dtype=np.int64)] = True
        seeds = ring + list(state.collector.remembered_handles())
        if seeds:
            keep |= table.death[:table.n] >= table.death[seeds].min()
        mapping = table.compact(keep)
        state.roots.remap(mapping)
        state.refs.remap(mapping)
        state.mutation_ring = mapping[ring].tolist()
        state.collector.remap(mapping)

    def _observe_gc(self, reports, pause_from, pause_to):
        """Record one GC cycle (span + pause histogram + log) whose
        phases ran from simulated time *pause_from* to *pause_to*."""
        obs = self.obs
        if not (obs.tracer.enabled or obs.metrics.enabled
                or obs.log.enabled) or not reports:
            return
        pause_s = pause_to - pause_from
        kind = reports[-1].kind
        freed = sum(r.freed_bytes for r in reports)
        if obs.tracer.enabled:
            obs.tracer.add_sim_span(
                "gc-cycle", "gc", pause_from, pause_from + pause_s,
                kind=kind, collections=len(reports), freed_bytes=freed,
            )
        metrics = obs.metrics
        metrics.counter("gc.cycles").inc()
        metrics.histogram("gc.pause_s").observe(pause_s)
        obs.log.debug("gc.cycle", kind=kind, pause_s=round(pause_s, 6),
                      freed_bytes=freed)

    def _emit_app(self, state, sl, bytecodes):
        """Queue an application stretch of *bytecodes* bytecodes."""
        act = self._app_activity(state, sl, bytecodes)
        if act is not None:
            state.stream.stretches.append(state.stream.add([act]))

    def _app_activity(self, state, sl, bytecodes):
        """The activity of an application stretch of *bytecodes*
        bytecodes, or ``None`` when it retires nothing."""
        if bytecodes <= 0:
            return None
        profile = state.app_profile
        collector = state.collector
        ipb = state.workload.method_table.effective_instr_per_bytecode()
        instr = int(bytecodes * ipb * (1.0 + collector.barrier_overhead))
        if instr <= 0:
            return None
        locality = min(
            max(profile.locality + collector.mutator_locality_delta, 0.0),
            1.0,
        )
        return Activity(
            component=Component.APP,
            instructions=instr,
            behavior=MemoryBehavior(
                footprint_bytes=int(
                    state.spec.live_bytes * APP_FOOTPRINT_FACTOR
                ),
                hot_bytes=profile.hot_bytes,
                locality=locality,
                spatial_factor=profile.spatial,
            ),
            refs_per_instr=profile.refs_per_instr,
            l1_miss_rate=profile.l1_miss_rate,
            mix_factor=profile.mix * sl.mix_jitter,
            cpi_scale=profile.cpi_scale * sl.cpi_jitter,
            tag=f"app:slice{sl.index}",
        )


@dataclass
class _SliceCohorts:
    """A slice's cohorts while its app phase runs: their table rows,
    death times, the cohorts tracked mutations follow, and how many are
    wired."""

    handles: range
    deaths: object
    mutation_points: range
    wired: int = 0


@dataclass
class _SliceStream:
    """The VM's uncommitted work, in execution order: parts that are
    :class:`~repro.hardware.activity.CostedRows` or activity lists, with
    the row of each application stretch, the rows of each collection
    cycle and, per traced run of compiles, its first row, compiler,
    method table rows and optimization levels."""

    parts: list = field(default_factory=list)
    n_rows: int = 0
    stretches: list = field(default_factory=list)
    collections: list = field(default_factory=list)
    compiles: list = field(default_factory=list)

    def add(self, part):
        """Queue *part*; return the row of its first."""
        first = self.n_rows
        self.parts.append(part)
        self.n_rows += len(part)
        return first


@dataclass
class _RunState:
    """Mutable per-run state threaded through the slice loop."""

    spec: object
    workload: object
    collector: object
    sched: object
    roots: object
    refs: object
    classloader: object
    gc_cost: object
    warm: bool
    app_profile: object
    now: float = 0.0
    app_seconds: float = 0.0
    aos_mark_s: float = 0.0
    #: The first-call compiler (``None`` interprets) and the costed
    #: compile of every method by it.
    compiler: Optional[object] = None
    compile_costs: Optional[object] = None
    base: Optional[object] = None
    class_costs: Optional[object] = None
    classes_loaded: int = 0
    stream: _SliceStream = field(default_factory=_SliceStream)
    opt: Optional[object] = None
    jit: Optional[object] = None
    aos: Optional[object] = None
    mutation_ring: list = field(default_factory=list)


class JikesRVM(BaseVM):
    """The high-performance adaptive VM (Jikes RVM 2.4.1 model)."""

    name = "jikes"
    style = "jikes"
    lazy_system_classes = False
    loader_factor = 1.0
    supported_collectors = JIKES_COLLECTORS
    default_collector = "GenCopy"
    vm_reserved_bytes = 6 * MB
    boot_instructions = 350_000_000

    def _setup_compilers(self, state):
        state.base = state.compiler = BaselineCompiler(self.platform.name)
        super()._setup_compilers(state)
        state.opt = OptimizingCompiler(self.platform.name)
        state.aos = AdaptiveOptimizationSystem(
            state.workload.method_table,
            rng=state.workload.rng,
            app_instr_per_second=self.platform.clock_hz * 0.7,
        )

    def _boot(self, state):
        # System classes ship in the boot image: no dynamic loads.
        state.classloader.preload_system(state.workload.classes)
        super()._boot(state)

    #: Controller-thread work per processed sample (bookkeeping) and
    #: per epoch (organizer wakeup).  Sized so the controller stays
    #: under 1 % of execution, matching the paper's side measurement
    #: ("its execution time accounted for less than 1 % of the total
    #: benchmark execution time", Section VI).
    CONTROLLER_INSTR_PER_SAMPLE = 900
    CONTROLLER_FIXED_INSTR = 40_000

    def _post_slice(self, state, sl):
        """The adaptive optimization system's epoch: sample, decide and
        drain the compile queue on the optimizing-compiler thread now,
        and queue the compiles and the controller thread's own work,
        which commit at the head of the next slice's stream or at the
        end of the repetition."""
        elapsed = state.app_seconds - state.aos_mark_s
        state.aos_mark_s = state.app_seconds
        n_samples = state.aos.take_samples(elapsed)
        state.aos.consider_recompilation()
        rows, levels, activities = [], [], []
        job = state.aos.next_job()
        while job is not None:
            if job.level.quality > job.method.quality:
                rows.append(job.method.row)
                levels.append(job.level.name)
                activities.append(state.opt.compile(job.method, job.level))
            job = state.aos.next_job()
        activities.append(self._controller_activity(n_samples))
        first = state.stream.add(activities)
        if rows:
            state.stream.compiles.append((first, state.opt, rows, levels))

    def _controller_activity(self, n_samples):
        """The AOS controller thread's work in an epoch: it wakes,
        processes the sample buffer, and runs the cost/benefit
        organizer."""
        profile = profile_for(self.platform.name, "boot")
        instr = (
            self.CONTROLLER_FIXED_INSTR
            + n_samples * self.CONTROLLER_INSTR_PER_SAMPLE
        )
        return Activity(
            component=Component.SCHEDULER,
            instructions=instr,
            behavior=MemoryBehavior(
                footprint_bytes=512 * 1024,
                hot_bytes=profile.hot_bytes,
                locality=profile.locality,
                spatial_factor=profile.spatial,
            ),
            refs_per_instr=profile.refs_per_instr,
            l1_miss_rate=profile.l1_miss_rate,
            mix_factor=profile.mix,
            cpi_scale=profile.cpi_scale,
            tag="aos-controller",
        )


class KaffeVM(BaseVM):
    """The portable embedded-friendly VM (Kaffe 1.1.4 model).

    "Kaffe can be configured as an interpreter machine, or with
    Just-In-Time (JIT) compiler support.  ...  For this work we use the
    JIT version of Kaffe" (Section IV-A).  Both configurations are
    available here via ``mode``: ``"jit"`` (the paper's setting) or
    ``"interp"`` (pure bytecode interpretation — no JIT component, far
    lower code quality; the configuration Farkas et al., the paper's
    reference [20], compared against JIT mode on a pocket computer).
    """

    name = "kaffe"
    style = "kaffe"
    lazy_system_classes = True
    loader_factor = KAFFE_LOADER_FACTOR
    supported_collectors = ("KaffeGC",)
    default_collector = "KaffeGC"
    vm_reserved_bytes = 2 * MB
    boot_instructions = 60_000_000
    boot_footprint_bytes = 2 * MB

    def __init__(self, platform, mode="jit", **kwargs):
        if mode not in ("jit", "interp"):
            raise ConfigurationError(
                f"Kaffe mode must be 'jit' or 'interp', got {mode!r}"
            )
        super().__init__(platform, **kwargs)
        self.mode = mode

    def _setup_compilers(self, state):
        if self.mode == "jit":
            state.jit = state.compiler = KaffeJIT(self.platform.name)
        super()._setup_compilers(state)


register_vm(
    "jikes",
    JikesRVM,
    description="IBM Jikes RVM 2.4.1 (adaptive optimization, 4 GCs)",
    style="jikes",
    collectors=JIKES_COLLECTORS,
    default_collector=JikesRVM.default_collector,
    platforms=("p6", "pxa255"),
)
register_vm(
    "kaffe",
    KaffeVM,
    description="Kaffe 1.1.4 (JIT, incremental mark-sweep GC)",
    style="kaffe",
    collectors=KaffeVM.supported_collectors,
    default_collector=KaffeVM.default_collector,
    platforms=("p6", "pxa255"),
)


def make_vm(vm_name, platform, collector=None, heap_mb=64, seed=42,
            n_slices=160, dvfs_freq_scale=None, obs=None):
    """Instantiate a VM by registered name (e.g. ``"jikes"``).

    ``collector=None`` picks the registry's default for that VM (which
    matches the VM class default for the built-in VMs but lets
    registered extension VMs declare their own).
    """
    entry = VM_REGISTRY.get(vm_name)
    if collector is None:
        collector = entry.metadata.get("default_collector")
    return entry.obj(
        platform, collector=collector, heap_mb=heap_mb, seed=seed,
        n_slices=n_slices, dvfs_freq_scale=dvfs_freq_scale, obs=obs,
    )
