"""Component-ID instrumentation and execution scheduling.

This is the software half of the paper's Section IV-C: the VM must make
the identity of the running component visible at the I/O port so the DAQ
can attribute power samples.  The two VMs are instrumented differently:

* **Kaffe** brackets each component with *entry and exit* port writes:
  the entry write latches the component, and the exit write latches the
  application again, whatever is already on the port;
* **Jikes RVM** runs services such as the optimizing compiler on separate
  threads, so the identification call lives in the *thread scheduler*: one
  port write per context switch.

The model never nests one component inside another: every activity runs
from the application, so a Kaffe exit always restores
:attr:`~repro.jvm.components.Component.APP`, and the two styles differ
only in that exit write after each non-application activity.

Every port write costs real cycles (about a microsecond per parallel-port
OUT on the P6 platform); the scheduler charges that cost to the entered
component as an explicit "perturbation" segment, making the methodology's
own overhead a measurable quantity.

The scheduler is also where execution meets the thermal model: each
emitted segment advances die temperature, and the CPU's throttle latch is
refreshed so that a thermal emergency (Figure 1) halves the duty cycle of
everything that follows.
"""

from functools import reduce
from itertools import accumulate
from operator import add

import numpy as np

from repro.errors import ConfigurationError
from repro.hardware.activity import (
    COSTED_COLUMNS,
    CostedRows,
    SegmentBatch,
    instr_round,
)
from repro.jvm.components import Component
from repro.obs import NULL_OBS
from repro.obs.tracer import SimSpanOpen
from repro.timeline import ExecutionTimeline, Segment

#: Instructions attributed to one port write (the OUT plus marshalling).
PORT_WRITE_INSTR = 30

#: Relative power during a legacy-I/O write (bus wait, core mostly idle).
PORT_WRITE_POWER_FACTOR = 1.15


class InstrumentedScheduler:
    """Runs activities on a platform, emitting an instrumented timeline."""

    #: Default chunking bound: long activities are split so that thermal
    #: coupling and measurement see at most ~50 ms of uniform behavior.
    DEFAULT_CHUNK_S = 0.05

    #: Most rows :meth:`execute_rows` commits in one batch.  Any split
    #: commits the same rows.  Each batch has a fixed cost, and at 256
    #: all but the first-call compile bursts early in a Jikes run
    #: commit a slice's whole stream in one batch.
    RUN_ROWS = 256

    def __init__(self, platform, style="jikes", max_chunk_s=None,
                 obs=None):
        if style not in ("jikes", "kaffe"):
            raise ConfigurationError(
                "instrumentation style must be 'jikes' or 'kaffe', "
                f"got {style!r}"
            )
        self.platform = platform
        self.exec_model = platform.execution_model
        self.timeline = ExecutionTimeline(platform.clock_hz)
        self._cycle = 0
        #: Whether a port write latches APP again after every other
        #: component's activity (Kaffe's exit stubs).
        self._exit_writes = style == "kaffe"
        self._latched = None
        self.max_chunk_cycles = int(
            (max_chunk_s or self.DEFAULT_CHUNK_S) * platform.clock_hz
        )
        self.port_writes = 0
        # -- observability (write-only; never feeds back into the sim) --
        self.obs = obs if obs is not None else NULL_OBS
        self._tracer = self.obs.tracer
        #: Cheap running wall-time sum (one add per segment).  Tracing
        #: and the VM's span hooks read simulated "now" from here instead
        #: of ``timeline.duration_s``, whose exactly rounded fsum is
        #: O(n) per call; the simulation itself never reads this value.
        self._sim_now_s = 0.0
        self._open_component = None   # SimSpanOpen for the current run
        self._throttle_from = None    # sim time the throttle latched
        self.throttle_episodes = 0
        self._port_rows = {}

    @property
    def now_cycle(self):
        return self._cycle

    @property
    def sim_now_s(self):
        """Cheap running simulated-time cursor (for tracing hooks)."""
        return self._sim_now_s

    # -- component identification ------------------------------------

    def _write_port(self, component):
        """Latch *component* on the port and charge the write cost; a
        write of the component already latched is elided."""
        if self._latched == component:
            return
        port = self.platform.port
        port.write(self._cycle, component)
        self._latched = component
        self.port_writes += 1
        cost = port.write_cost_cycles
        if cost > 0:
            duration_s = cost / self.platform.cpu.effective_clock_hz
            seg = Segment(
                start_cycle=self._cycle,
                end_cycle=self._cycle + cost,
                component=component,
                instructions=PORT_WRITE_INSTR,
                cpu_power_w=(
                    self.platform.power_model.idle_power_w()
                    * PORT_WRITE_POWER_FACTOR
                ),
                mem_power_w=self.platform.memory.power_w(0, duration_s),
                wall_s=duration_s,
                tag="port-write",
            )
            self._append(seg)

    def _port_row(self, component):
        """A port write latching *component*, as a one-row stream piece
        (cached; pieces are never written)."""
        piece = self._port_rows.get(component)
        if piece is None:
            piece = self._port_rows[component] = CostedRows(
                np.array([component]), np.array([PORT_WRITE_INSTR]),
                np.array(["port-write"], dtype=object), np.ones(1),
                np.array([self.platform.port.write_cost_cycles]),
                np.zeros(1), np.zeros(1), np.zeros(1), np.zeros(1),
            )
        return piece

    # -- execution ------------------------------------------------------

    def execute(self, activity):
        """Run *activity*: latch its component, account its chunks, and
        in Kaffe style latch APP again after any other component."""
        component = int(activity.component)
        self._write_port(component)
        self._emit_chunks(activity)
        if self._exit_writes and component != Component.APP:
            self._write_port(int(Component.APP))

    def execute_rows(self, *parts):
        """Run *parts* in order as one stream, exactly as calling
        :meth:`execute` on each row's activity in turn would; return the
        simulated-time cursor before the first row and after each row.

        A part is :class:`~repro.hardware.activity.CostedRows` or a
        sequence of :class:`~repro.hardware.activity.Activity` records,
        which are costed here as :meth:`execute` costs them.  Rows may
        mix components: a port-write row goes in wherever the latched
        component changes, with :meth:`_write_port`'s elision and cost,
        and a row with no instructions still latches its component.  A
        row longer than one chunk is split into its chunks.  The stream
        is committed :attr:`RUN_ROWS` rows at a time through
        :meth:`_commit_batch`: each batch's wall time and power come
        from :meth:`~repro.hardware.activity.ExecutionModel.run_rows`
        under the CPU state in force when it starts, and the rows after
        a throttle flip are re-costed.  A port whose writes cost nothing
        leaves no row to write at, so its streams loop over
        :meth:`execute`.
        """
        cursor = [self._sim_now_s]
        port = self.platform.port
        if port.write_cost_cycles == 0:
            for part in parts:
                for row in range(len(part)):
                    self.execute(part.activity(row)
                                 if isinstance(part, CostedRows)
                                 else part[row])
                    cursor.append(self._sim_now_s)
            return cursor
        builder = _StreamBuilder(self)
        for part in parts:
            if isinstance(part, CostedRows):
                builder.add_rows(part)
            else:
                builder.add_activities(part)
        stream, stops, writes = builder.finish()
        ends = cursor[:]   # the cursor after each stream row
        port_power = (self.platform.power_model.idle_power_w()
                      * PORT_WRITE_POWER_FACTOR)
        pos, m = 0, 0 if stream is None else len(stream)
        while pos < m:
            end = min(m, pos + self.RUN_ROWS)
            rows = stream if end - pos == m else stream[pos:end]
            batch = self.exec_model.run_rows(rows, self._cycle)
            here = [(row - pos, component) for row, component in writes
                    if pos <= row < end]
            # A port write draws the same power in any CPU state.
            batch.cpu_power_w[[row for row, _ in here]] = port_power
            consumed = self._commit_batch(batch, rows.component, rows.tags)
            starts = batch.start_cycles[:consumed].tolist()
            for row, component in here:
                if row < consumed:
                    port.write(starts[row], component)
            ends.extend(accumulate(batch.durations_s[:consumed].tolist(),
                                   initial=ends.pop()))
            pos += consumed
        return cursor + [ends[k] for k in stops]

    def _chunk_split(self, activity):
        """Split an activity's instructions into chunk counts.

        Returns ``(counts, cost)`` where *cost* is the whole-activity
        cost tuple — reusable verbatim for single-chunk activities, which
        would otherwise pay the cost computation twice.
        """
        total = activity.instructions
        # Estimate cycles to pick a chunk count, then split instructions.
        cost = self.exec_model.cost(activity)
        n_chunks = max(1, -(-cost[0] // self.max_chunk_cycles))
        if n_chunks == 1:
            return [total], cost
        base, remainder = divmod(total, n_chunks)
        counts = [base + 1] * remainder + [base] * (n_chunks - remainder)
        if base == 0:
            counts = counts[:remainder]
        return counts, cost

    def _emit_chunks(self, activity):
        if activity.instructions <= 0:
            return
        counts, cost = self._chunk_split(activity)
        if len(counts) == 1:
            # Single-chunk activities (the common case at default chunk
            # size) gain nothing from vectorization; reuse the cost the
            # split already computed.
            seg = self.exec_model.run(activity, self._cycle, cost=cost)
            seg.wall_s = seg.cycles / self.platform.cpu.effective_clock_hz
            self._append(seg)
            return
        self._emit_chunks_batched(activity, counts)

    def _emit_chunks_batched(self, activity, counts):
        """Vectorized chunk emission: cost every chunk of the activity in
        one call, flush early whenever the throttle latch flips.

        All chunks of a batch are costed under the CPU state in force
        when the batch starts.  The thermal integration
        (:meth:`~repro.hardware.thermal.ThermalModel.step_batch`) stops
        after the first latch flip, the consumed prefix is committed,
        and the remaining chunks are re-costed under the new duty cycle —
        so duty-cycle feedback stays cycle-exact with one segment at a
        time.
        """
        counts = np.asarray(counts, dtype=np.int64)
        components = np.full(len(counts), activity.component,
                             dtype=np.int64)
        tags = [activity.tag] * len(counts)
        pos = 0
        while pos < len(counts):
            batch = self.exec_model.run_batch(
                activity, counts[pos:], self._cycle
            )
            pos += self._commit_batch(batch, components[pos:], tags[pos:])

    def idle(self, seconds, component=Component.IDLE):
        """Account an idle interval (e.g. between repetitive runs)."""
        if seconds <= 0:
            return
        component = int(component)
        self._write_port(component)
        cycles = self.platform.cpu.seconds_to_cycles(seconds)
        if cycles > self.max_chunk_cycles:
            self._idle_batched(component, cycles)
        elif cycles > 0:
            seg = self.exec_model.idle(component, self._cycle, cycles)
            seg.wall_s = cycles / self.platform.cpu.effective_clock_hz
            self._append(seg)

    def _idle_batched(self, component, remaining):
        chunk = self.max_chunk_cycles
        idle_power = self.platform.power_model.idle_power_w()
        while remaining > 0:
            n_full, tail = divmod(remaining, chunk)
            k = int(n_full) + (1 if tail else 0)
            cycles = np.full(k, chunk, dtype=np.int64)
            if tail:
                cycles[-1] = tail
            end_cycles = self._cycle + np.cumsum(cycles)
            durations = cycles / self.platform.cpu.effective_clock_hz
            zeros = np.zeros(k, dtype=np.int64)
            batch = SegmentBatch(
                start_cycles=end_cycles - cycles,
                end_cycles=end_cycles,
                instructions=zeros,
                l2_accesses=zeros,
                l2_misses=zeros,
                mem_accesses=zeros,
                cpu_power_w=np.full(k, idle_power, dtype=np.float64),
                mem_power_w=self.platform.memory.power_w_batch(
                    zeros, durations
                ),
                durations_s=durations,
            )
            consumed = self._commit_batch(
                batch, np.full(k, component, dtype=np.int64), ["idle"] * k
            )
            remaining -= int(cycles[:consumed].sum())

    def _append(self, seg):
        self.timeline.append(seg)
        if seg.cycles > 0:
            self._cycle = seg.end_cycle
            self.platform.counters.record_segment(seg)
            duration_s = seg.duration_s(self.timeline.clock_hz)
            # Thermal coupling: temperature integrates the power the
            # segment actually drew; the throttle latch feeds back into
            # the CPU's duty cycle for subsequent segments.
            thermal = self.platform.thermal
            thermal.step(seg.cpu_power_w, duration_s, record=False)
            was_throttled = self.platform.cpu.throttled
            self.platform.cpu.throttled = thermal.throttled
            start_s = self._sim_now_s
            self._sim_now_s = start_s + duration_s
            self._observe(seg.component, seg.tag, start_s, self._sim_now_s,
                          thermal.throttled, was_throttled)

    def _commit_batch(self, batch, components, tags):
        """Integrate, commit, and observe a batch prefix; return the
        number of segments consumed (``>= 1``).

        ``components`` (an array) and ``tags`` have one entry per batch
        row.  The thermal model consumes segments until the throttle
        latch flips (or the batch ends); only that prefix — costed under
        the correct duty cycle — reaches the timeline and the counters.
        """
        thermal = self.platform.thermal
        consumed = thermal.step_batch(
            batch.cpu_power_w, batch.durations_s, record=False
        )
        if consumed < len(batch):
            batch = batch[:consumed]
        components = components[:consumed]
        tags = tags[:consumed]
        cycles = batch.cycles
        self.timeline.append_batch(
            batch.start_cycles, batch.end_cycles, components,
            batch.instructions, batch.l2_accesses, batch.l2_misses,
            batch.mem_accesses, batch.cpu_power_w, batch.mem_power_w,
            batch.durations_s, tags=tags,
        )
        self._cycle = int(batch.end_cycles[-1])
        self.platform.counters.record_batch(
            cycles, batch.instructions, batch.l2_accesses,
            batch.l2_misses, batch.mem_accesses,
        )
        was_throttled = self.platform.cpu.throttled
        self.platform.cpu.throttled = thermal.throttled
        durations = batch.durations_s.tolist()
        if self._tracer.enabled:
            # The latch can only flip on the *last* consumed segment
            # (step_batch stops there), so every earlier segment ran
            # under the previous throttle state.
            components = components.tolist()
            for i, dt in enumerate(durations):
                start_s = self._sim_now_s
                end_s = start_s + dt
                self._sim_now_s = end_s
                throttled = (
                    thermal.throttled if i == consumed - 1
                    else was_throttled
                )
                self._observe(
                    components[i], tags[i], start_s, end_s, throttled,
                    was_throttled,
                )
        else:
            # Fast path: sequential adds keep the simulated-time cursor
            # bit-identical to the traced branch above.
            now = self._sim_now_s = reduce(add, durations, self._sim_now_s)
            throttled = thermal.throttled
            if throttled and not was_throttled:
                self._throttle_from = now
                self.throttle_episodes += 1
            elif was_throttled and not throttled:
                self._throttle_from = None
        return consumed

    def _observe(self, component, tag, start_s, end_s, throttled,
                 was_throttled):
        """Throttle-episode bookkeeping and tracing for one segment."""
        if throttled and not was_throttled:
            self._throttle_from = end_s
            self.throttle_episodes += 1
        elif was_throttled and not throttled:
            if self._tracer.enabled and self._throttle_from is not None:
                self._tracer.add_sim_span(
                    "thermal-throttle", "thermal",
                    self._throttle_from, end_s,
                )
            self._throttle_from = None
        if not self._tracer.enabled:
            return
        if tag == "port-write":
            self._tracer.add_sim_span(
                "port-write", "perturbation", start_s, end_s,
                component=Component.from_port_value(
                    component).short_name,
            )
        # Coalesce contiguous same-component segments (port-write
        # perturbation is charged to the entered component, so it never
        # breaks a run) into one span on the "components" track.
        name = Component.from_port_value(component).short_name
        open_ = self._open_component
        if open_ is None:
            self._open_component = SimSpanOpen(
                name=name, track="components", start_s=start_s,
            )
        elif open_.name != name:
            open_.close(self._tracer, start_s)
            self._open_component = SimSpanOpen(
                name=name, track="components", start_s=start_s,
            )

    def finish(self):
        """Final bookkeeping; returns the completed timeline."""
        if self._tracer.enabled:
            if self._open_component is not None:
                self._open_component.close(self._tracer, self._sim_now_s)
                self._open_component = None
            if self._throttle_from is not None:
                self._tracer.add_sim_span(
                    "thermal-throttle", "thermal",
                    self._throttle_from, self._sim_now_s,
                )
                self._throttle_from = None
        metrics = self.obs.metrics
        if metrics.enabled:
            metrics.counter("scheduler.segments_emitted").inc(
                len(self.timeline)
            )
            metrics.counter("scheduler.port_writes").inc(
                self.port_writes
            )
            metrics.counter(
                "scheduler.perturbation_instructions"
            ).inc(self.port_writes * PORT_WRITE_INSTR)
            metrics.counter(
                "scheduler.perturbation_cycles"
            ).inc(self.port_writes * self.platform.port.write_cost_cycles)
            metrics.counter("scheduler.throttle_episodes").inc(
                self.throttle_episodes
            )
        return self.timeline


class _StreamBuilder:
    """Assembles the rows :meth:`InstrumentedScheduler.execute_rows`
    commits, in order, from its parts.

    A part of at least :attr:`WHOLE_ROWS` rows of one component that all
    fit a chunk, and that need no exit writes, joins the stream whole,
    after a port-write row if it changes the latched component.  Every
    other row goes through Python, as :meth:`execute` would run it: a
    port-write row if its component differs from the latched one, then
    its chunks (none without instructions), then in Kaffe style a
    port-write row latching APP if its component is another.
    """

    #: Fewest rows a part needs to join whole.  Joining costs a few
    #: fixed NumPy calls and a share of the stream's concatenation;
    #: below this, taking the rows one at a time in Python is cheaper.
    WHOLE_ROWS = 16

    def __init__(self, sched):
        self.sched = sched
        self.exit_writes = sched._exit_writes
        self.latched = sched._latched
        self.writes = []   # (stream row, component) of each port write
        self.pieces = []   # CostedRows, in order
        self.rows = []     # Python rows not yet made into a piece
        self.stops = []    # stream rows made up to each input row
        self.made = 0      # stream rows made so far

    def add_rows(self, costed):
        """Queue :class:`~repro.hardware.activity.CostedRows`."""
        n = len(costed)
        if n >= self.WHOLE_ROWS:
            component = int(costed.component[0])
            if ((component == Component.APP or not self.exit_writes)
                    and (costed.component == component).all()
                    and costed.instructions.all()
                    and costed.cycles.max() <= self.sched.max_chunk_cycles):
                self._latch(component)
                self._flush()
                self.pieces.append(costed)
                self.stops.extend(range(self.made + 1, self.made + n + 1))
                self.made += n
                return
        columns = [costed.__dict__[name].tolist() for name in COSTED_COLUMNS]
        for row, values in enumerate(zip(*columns)):
            self._latch(values[0])
            if values[1] > 0:
                if values[4] > self.sched.max_chunk_cycles:
                    self._add_chunks(costed.activity(row))
                else:
                    self._add(values)
            self._end_row(values[0])

    def add_activities(self, activities):
        """Queue :class:`~repro.hardware.activity.Activity` records,
        costed as :meth:`InstrumentedScheduler.execute` costs them."""
        power_model = self.sched.platform.power_model
        gamma = power_model.spec.power_exponent
        for act in activities:
            self._latch(int(act.component))
            if act.instructions > 0:
                counts, cost = self.sched._chunk_split(act)
                if len(counts) > 1:
                    self._add_chunks(act, counts)
                else:
                    cycles, l2_acc, l2_miss, mem_acc, ipc = cost
                    self._add((
                        int(act.component), instr_round(act.instructions),
                        act.tag, act.mix_factor, cycles, l2_acc, l2_miss,
                        mem_acc, power_model.utilization(ipc) ** gamma,
                    ))
            self._end_row(int(act.component))

    def _latch(self, component):
        if component != self.latched:
            self.writes.append((self.made, component))
            self._add((
                component, PORT_WRITE_INSTR, "port-write", 1.0,
                self.sched.platform.port.write_cost_cycles,
                0.0, 0.0, 0.0, 0.0,
            ))
            self.latched = component

    def _end_row(self, component):
        """Close an input row of *component*: in Kaffe style its exit
        write latches APP again."""
        if self.exit_writes and component != Component.APP:
            self._latch(int(Component.APP))
        self.stops.append(self.made)

    def _add(self, values):
        self.rows.append(values)
        self.made += 1

    def _add_chunks(self, activity, counts=None):
        """The chunks of *activity*, costed as
        :meth:`InstrumentedScheduler._emit_chunks_batched` costs them."""
        if counts is None:
            counts, _ = self.sched._chunk_split(activity)
        model = self.sched.exec_model
        cycles, l2_acc, l2_miss, mem_acc, ipc = model.cost_batch(
            activity, counts)
        terms = model.power_model.utilization_terms(ipc)
        for n, *values in zip(counts, cycles.tolist(), l2_acc.tolist(),
                              l2_miss.tolist(), mem_acc.tolist(),
                              terms.tolist()):
            self._add((int(activity.component), instr_round(n),
                       activity.tag, activity.mix_factor, *values))

    def _flush(self):
        rows = self.rows
        if not rows:
            return
        self.rows = []
        if len(rows) == 1 and self.writes[-1:] == [(self.made - 1,
                                                     rows[0][0])]:
            # A lone port write: its cached piece.
            self.pieces.append(self.sched._port_row(rows[0][0]))
            return
        component, instructions, tags, *numbers = zip(*rows)
        mix, cycles, l2_acc, l2_miss, mem_acc, terms = np.array(
            numbers, dtype=np.float64)
        tag_column = np.empty(len(tags), dtype=object)
        tag_column[:] = tags
        self.pieces.append(CostedRows(
            np.array(component, dtype=np.int64),
            np.array(instructions, dtype=np.int64), tag_column, mix,
            cycles.astype(np.int64), l2_acc, l2_miss, mem_acc, terms,
        ))

    def finish(self):
        """The stream, the stream rows made up to each input row, and
        the stream row and component of each port write.  The
        scheduler's latch and write count move on here; the port itself
        is written as the port-write rows commit."""
        self._flush()
        sched = self.sched
        sched._latched = self.latched
        sched.port_writes += len(self.writes)
        pieces = self.pieces
        if not pieces:
            stream = None
        elif len(pieces) == 1:
            stream = pieces[0]
        else:
            stream = CostedRows.concat(pieces)
        return stream, self.stops, self.writes
