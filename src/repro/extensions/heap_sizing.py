"""Adaptive heap sizing (the paper's reference [1] direction).

Brecht et al. ("Controlling Garbage Collection and Heap Growth to
Reduce the Execution Time of Java Applications") showed that growing
the heap when collection overhead is high recovers most of a large
fixed heap's performance without committing its memory up front.

:class:`AdaptiveHeapVM` implements the classic controller: after each
slice it computes the GC share of recent execution time; above
``overhead_target`` it grows the heap by ``growth_factor`` (up to
``max_heap_mb``).  Only collectors with ``supports_growth`` (SemiSpace,
MarkSweep) participate — generational spaces would need re-carving.

The energy angle — the reason this belongs in a reproduction of *this*
paper — is Section VI-A's observation that "increasing the heap size
has considerable energy benefits since the garbage collector is invoked
less often": adaptive sizing buys those benefits only where a workload
actually needs them.
"""

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.jvm.components import Component
from repro.jvm.vm import JikesRVM
from repro.units import MB


@dataclass
class HeapSizingStats:
    """Controller bookkeeping."""

    growths: int = 0
    grown_bytes: int = 0
    decisions: list = field(default_factory=list)  # (gc_share, heap)


class AdaptiveHeapVM(JikesRVM):
    """Jikes RVM with a GC-overhead-driven heap-growth controller."""

    def __init__(self, platform, overhead_target=0.20,
                 growth_factor=0.25, max_heap_mb=256, **kwargs):
        super().__init__(platform, **kwargs)
        if not (0.0 < overhead_target < 1.0):
            raise ConfigurationError(
                "overhead_target must be in (0, 1)"
            )
        if growth_factor <= 0:
            raise ConfigurationError("growth_factor must be positive")
        if max_heap_mb * MB < self.heap_bytes:
            raise ConfigurationError(
                "max_heap_mb below the starting heap"
            )
        self.overhead_target = overhead_target
        self.growth_factor = growth_factor
        self.max_heap_bytes = int(max_heap_mb * MB)
        self.sizing_stats = HeapSizingStats()
        self._window_mark = {"gc": 0.0, "total": 0.0}

    def _make_collector(self, rng):
        collector = super()._make_collector(rng)
        if not collector.supports_growth:
            raise ConfigurationError(
                "adaptive sizing needs a growable collector "
                f"({collector.name} is not; use SemiSpace or "
                "MarkSweep)"
            )
        return collector

    def _post_slice(self, state, sl):
        super()._post_slice(state, sl)
        self._commit_stream(state)
        seconds = state.sched.timeline.component_seconds()
        gc_s = seconds.get(int(Component.GC), 0.0)
        total_s = sum(seconds.values())
        window_gc = gc_s - self._window_mark["gc"]
        window_total = total_s - self._window_mark["total"]
        if window_total < 0.2:
            return  # let the window accumulate
        self._window_mark = {"gc": gc_s, "total": total_s}
        gc_share = window_gc / window_total if window_total else 0.0
        self.sizing_stats.decisions.append(
            (gc_share, state.collector.heap_bytes)
        )
        if gc_share <= self.overhead_target:
            return
        grant = int(state.collector.heap_bytes * self.growth_factor)
        room = self.max_heap_bytes - state.collector.heap_bytes
        grant = min(grant, room)
        if grant <= 0:
            return
        state.collector.grow(grant)
        self.sizing_stats.growths += 1
        self.sizing_stats.grown_bytes += grant

    @property
    def final_heap_mb(self):
        """Heap size after the controller's growths (start + grants)."""
        return (
            self.heap_bytes + self.sizing_stats.grown_bytes
        ) / MB
