"""Event-driven DVFS governing (paper references [34]-[36]).

"Process Cruise Control" (Weissel & Bellosa, CASES'02 — the paper's
reference [36]) scales the XScale's clock based on counter-derived
memory-boundness: memory-bound phases lose little performance at a
lower clock (the DRAM, not the core, is the bottleneck), so the
governor trades frequency for energy precisely when it is cheap to do
so.

:class:`MemoryBoundGovernor` reproduces that policy over the simulated
platforms: it watches a sliding window of per-segment IPC and memory
intensity and picks an operating point from a discrete ladder.
:class:`GovernedScheduler` plugs it into the instrumented scheduler so
the decision happens on line, affecting every subsequent segment.

Caveat faithfully modeled: in this simulator a *memory-bound* segment's
stall cycles are core cycles, so lowering the clock stretches them in
wall time like any other cycle.  The governor's win therefore comes
from the V^2*f energy reduction being larger than the slowdown on
low-IPC phases — the energy-delay trade the papers actually measured —
rather than from hiding DRAM latency entirely.
"""

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.jvm.scheduler import InstrumentedScheduler

#: Default operating-point ladder (frequency scales).
DEFAULT_LADDER = (1.0, 0.85, 0.7, 0.55)


@dataclass
class GovernorDecision:
    """One governor actuation, kept for post-run analysis."""

    cycle: int
    ipc: float
    freq_scale: float


class MemoryBoundGovernor:
    """Pick a frequency from IPC: low IPC -> memory-bound -> slow down.

    The mapping is a simple staircase over the window-averaged IPC:
    the core runs at full speed above ``ipc_high`` and at the ladder's
    floor below ``ipc_low``, interpolating across ladder steps in
    between.
    """

    def __init__(self, ladder=DEFAULT_LADDER, ipc_low=0.45,
                 ipc_high=0.85, window=8):
        if ipc_low >= ipc_high:
            raise ConfigurationError("ipc_low must be below ipc_high")
        if sorted(ladder, reverse=True) != list(ladder):
            raise ConfigurationError(
                "ladder must be sorted fastest-first"
            )
        self.ladder = tuple(ladder)
        self.ipc_low = ipc_low
        self.ipc_high = ipc_high
        self.window = window
        self._recent = []
        self.decisions = []

    def observe_row(self, instructions, cycles, end_cycle):
        """Feed one retired segment, given as its counts; return the
        chosen freq scale."""
        ipc = self._push(self._recent, instructions, cycles)
        scale = self._scale_for(ipc)
        self.decisions.append(
            GovernorDecision(cycle=end_cycle, ipc=ipc, freq_scale=scale)
        )
        return scale

    def first_change(self, instructions, cycles, scale):
        """Index of the first of a run of segments whose decision would
        differ from *scale*, or ``None``; records nothing."""
        recent = list(self._recent)
        for i, (n, c) in enumerate(zip(instructions, cycles)):
            if self._scale_for(self._push(recent, n, c)) != scale:
                return i
        return None

    def _push(self, recent, instructions, cycles):
        """Slide one segment into the window *recent*; return the
        window's IPC.

        The average is *cycle-weighted*: a long memory-bound
        application phase must not be outvoted by a burst of short
        compiler activations (exactly the aliasing a real OS-timer
        governor avoids by sampling on time, not on events).
        """
        if instructions > 0 and cycles > 0:
            recent.append((instructions / cycles, cycles))
            if len(recent) > self.window:
                recent.pop(0)
        if not recent:
            return self.ipc_high
        total = sum(c for _, c in recent)
        return sum(ipc * c for ipc, c in recent) / total

    def _scale_for(self, ipc):
        if ipc >= self.ipc_high:
            return self.ladder[0]
        if ipc <= self.ipc_low:
            return self.ladder[-1]
        span = self.ipc_high - self.ipc_low
        position = (self.ipc_high - ipc) / span  # 0 fast .. 1 slow
        index = min(
            int(position * len(self.ladder)), len(self.ladder) - 1
        )
        return self.ladder[index]

    @property
    def residency(self):
        """Fraction of decisions spent at each operating point."""
        if not self.decisions:
            return {}
        counts = {}
        for d in self.decisions:
            counts[d.freq_scale] = counts.get(d.freq_scale, 0) + 1
        total = len(self.decisions)
        return {k: v / total for k, v in sorted(counts.items())}


class GovernedScheduler(InstrumentedScheduler):
    """Instrumented scheduler with an on-line DVFS governor.

    After every retired segment the governor picks the operating point
    for what follows — the same actuation granularity an OS-timer-driven
    governor achieves on real hardware.  A batch is cut after the first
    segment that changes the operating point, as after a throttle flip.
    """

    def __init__(self, platform, governor, style="jikes",
                 max_chunk_s=None, obs=None):
        super().__init__(platform, style=style, max_chunk_s=max_chunk_s,
                         obs=obs)
        self.governor = governor

    def _commit_batch(self, batch, components, tags):
        # Port-write rows are not observed: they neither feed the
        # governor's window nor cut the batch.
        instructions = batch.instructions.tolist()
        cycles = batch.cycles.tolist()
        observed = [i for i, tag in enumerate(tags[:len(batch)])
                    if tag != "port-write"]
        change = self.governor.first_change(
            [instructions[i] for i in observed],
            [cycles[i] for i in observed],
            self.platform.cpu.dvfs.freq_scale,
        )
        if change is not None:
            batch = batch[:observed[change] + 1]
        consumed = super()._commit_batch(batch, components, tags)
        end_cycles = batch.end_cycles[:consumed].tolist()
        scale = self.platform.cpu.dvfs.freq_scale
        for i in observed:
            if i >= consumed:
                break
            scale = self.governor.observe_row(
                instructions[i], cycles[i], end_cycles[i])
        if scale != self.platform.cpu.dvfs.freq_scale:
            self.platform.cpu.set_dvfs(scale)
        return consumed


def governed_vm(vm_class, platform, governor, **vm_kwargs):
    """Instantiate *vm_class* with *governor* installed.

    Uses the VM's scheduler-construction hook, so the governor sees
    every retired segment of every run the returned VM performs.
    """

    class _GovernedVM(vm_class):
        def _make_scheduler(self):
            return GovernedScheduler(
                self.platform, governor, style=self.style, obs=self.obs
            )

    _GovernedVM.__name__ = f"Governed{vm_class.__name__}"
    return _GovernedVM(platform, **vm_kwargs)
