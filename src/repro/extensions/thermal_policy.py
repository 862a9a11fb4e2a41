"""Thermal-aware garbage-collection scheduling (Section VI-C idea).

"By triggering garbage collection at points when the temperature of the
processor has exceeded a safety threshold level, the processor executes
a component with less power requirements, potentially giving it time to
cool down to a safe level."

:class:`ThermalAwareVM` implements that policy: before each execution
slice it checks the die temperature, and above the *policy* threshold
(set safely below the hardware's 99 C emergency trip point) it forces a
collection immediately instead of waiting for the allocator to run out
of space.  A forced collection both (a) runs the low-power component
for a while and (b) front-loads work the VM would do anyway, so the
cost is mostly the extra collections' work on a less-full heap.

The policy keeps simple statistics so experiments can report how often
it fired and what it bought (see
``benchmarks/test_ext_thermal_policy.py``).
"""

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.jvm.vm import JikesRVM, _SliceStream


@dataclass
class ThermalPolicyStats:
    """Bookkeeping for the thermal-GC policy."""

    checks: int = 0
    triggers: int = 0
    trigger_temps_c: list = field(default_factory=list)


class ThermalAwareVM(JikesRVM):
    """Jikes RVM that schedules GC as a cooling action.

    ``policy_threshold_c`` should sit below the hardware trip point:
    the idea is to spend low-power GC time *before* the emergency
    response would halve the duty cycle.
    """

    def __init__(self, platform, policy_threshold_c=95.0,
                 min_garbage_bytes=1 << 20, **kwargs):
        super().__init__(platform, **kwargs)
        if policy_threshold_c >= platform.thermal.spec.trip_c:
            raise ConfigurationError(
                "the policy threshold must sit below the hardware "
                "trip point to be of any use"
            )
        self.policy_threshold_c = policy_threshold_c
        self.min_garbage_bytes = min_garbage_bytes
        self.policy_stats = ThermalPolicyStats()

    def _run_slice(self, state, sl):
        self._maybe_cool(state)
        super()._run_slice(state, sl)

    def _maybe_cool(self, state):
        stats = self.policy_stats
        stats.checks += 1
        thermal = self.platform.thermal
        if thermal.temperature_c < self.policy_threshold_c:
            return
        # Only collect if there is enough garbage to make the dwell
        # worthwhile (a no-op collection would spin at higher power).
        occupied = state.collector.used_bytes()
        live = state.roots.live_bytes()
        if occupied - live < self.min_garbage_bytes:
            return
        stats.triggers += 1
        stats.trigger_temps_c.append(thermal.temperature_c)
        # The cooling collection runs as a stream of its own, before
        # the slice's, through the VM's one GC path (no cohort is
        # waiting for room, so it requests 0 bytes).
        state.stream = stream = _SliceStream()
        self._collect(state, 0)
        self._commit_stream(state, stream)
