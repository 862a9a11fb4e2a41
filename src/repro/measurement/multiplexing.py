"""PMU counter multiplexing (the XScale's two-counter constraint).

The PXA255's performance monitoring unit exposes only **two**
programmable event counters besides the clock counter.  Measuring the
four rates the paper's analysis needs (instructions, memory accesses —
and, on the P6, L2 accesses and misses) therefore requires
*time-multiplexing*: the sampler rotates the programmed event set
between timer ticks and scales each event's observed count by the
inverse of the fraction of time it was programmed.

Multiplexing introduces a characteristic sampling error — an event that
correlates with a particular program phase is over- or under-estimated
when its monitoring windows happen to align with that phase — which is
why the real measurements were taken two events at a time per run.
:class:`MultiplexedHPMSampler` reproduces both the technique and its
error, and the tests quantify the error against the single-pass
sampler's values.
"""

import numpy as np

from repro.errors import MeasurementError
from repro.measurement.hpm_sampler import HPMSampler
from repro.measurement.traces import PerfTrace
from repro.obs import NULL_OBS

#: Event-name groups rotated through the programmable counters.
DEFAULT_ROTATION = (
    ("instructions", "l2_accesses"),
    ("instructions", "l2_misses"),
)

#: Named rotation schedules a spec/CLI can refer to by string.  Each
#: value is a tuple of event-name groups; a group must fit the target
#: PMU's programmable width (validated at sampler construction).
ROTATIONS = {
    # The paper's two-at-a-time XScale protocol: instructions stay
    # resident, the L2 events alternate.
    "xscale-pairs": DEFAULT_ROTATION,
    # Every event in its own window — maximal rotation, worst
    # undersampling, fits even a single-counter PMU.
    "round-robin": (
        ("instructions",),
        ("l2_accesses",),
        ("l2_misses",),
    ),
    # All three events resident at once — no multiplexing error, needs
    # a PMU at least three counters wide (the P6 qualifies).
    "resident": (("instructions", "l2_accesses", "l2_misses"),),
}


def resolve_rotation(value):
    """Canonicalize a rotation schedule.

    Accepts ``None`` (no multiplexing — the single-pass sampler), a
    preset name from :data:`ROTATIONS`, or an explicit sequence of
    event-name groups.  Returns ``None`` or a tuple of tuples of str.
    Bare strings inside the schedule are rejected — ``("instructions",
    "l2_misses")`` is ambiguous between one two-event group and two
    one-event groups, so each group must itself be a sequence.
    """
    if value is None:
        return None
    if isinstance(value, str):
        try:
            return ROTATIONS[value]
        except KeyError:
            raise MeasurementError(
                f"unknown rotation preset {value!r}; known: "
                f"{', '.join(sorted(ROTATIONS))}"
            ) from None
    groups = []
    for group in value:
        if isinstance(group, str) or not hasattr(group, "__iter__"):
            raise MeasurementError(
                f"rotation group {group!r} must be a sequence of "
                "event names (a bare string is ambiguous)"
            )
        events = tuple(str(e) for e in group)
        if not events:
            raise MeasurementError("rotation group cannot be empty")
        groups.append(events)
    if not groups:
        raise MeasurementError("rotation cannot be empty")
    return tuple(groups)


def _pmu_width(platform):
    """Programmable-counter width of *platform*.

    A live platform carries its PMU model; a replayed
    :class:`~repro.core.simulation.MeasurementTarget` carries only the
    platform *name*, so the width comes from the registry's trait
    metadata instead (the same number, declared once per platform).
    """
    counters = getattr(platform, "counters", None)
    if counters is not None:
        return counters.max_programmable
    from repro.registry import platform_traits

    width = platform_traits(platform.name).get("hpm_counters")
    if width is None:
        raise MeasurementError(
            f"platform {platform.name!r} declares no hpm_counters "
            "trait; cannot validate a rotation schedule against it"
        )
    return int(width)


class MultiplexedHPMSampler:
    """Timer-driven sampler that rotates event groups between ticks.

    ``rotation`` is a sequence of event-name tuples; each inter-tick
    interval observes one group (round robin).  Counts are extrapolated
    by the reciprocal of each event's duty fraction, the standard
    multiplexing estimator (as in ``perf``'s event multiplexing).
    """

    def __init__(self, platform, rotation=DEFAULT_ROTATION,
                 period_s=None, obs=None, rng=None, noise=None):
        if not rotation:
            raise MeasurementError("rotation cannot be empty")
        width = _pmu_width(platform)
        for group in rotation:
            if len(group) > width:
                raise MeasurementError(
                    f"group {group} exceeds the PMU's {width} "
                    "programmable counters"
                )
        self.platform = platform
        self.rotation = tuple(tuple(g) for g in rotation)
        self.period_s = period_s or platform.hpm_period_s
        self.obs = obs if obs is not None else NULL_OBS
        # ``rng`` drives the phase-alignment noise of the duty-cycle
        # extrapolation.  When None, it is derived from the timeline
        # length at sample time — deterministic for a given recording,
        # matching the historical behavior.  The uncertainty subsystem
        # injects a per-replicate stream instead, so replicates see
        # independent alignment realizations.  ``noise`` is forwarded
        # to the underlying single-pass sampler.
        self.rng = rng
        self.noise = noise

    def base_sampler(self):
        """The single-pass sampler whose timer pass :meth:`extrapolate`
        reads.  It carries the observability handle, so a multiplexed
        run emits the same sampler counters a single-pass run does."""
        return HPMSampler(self.platform, period_s=self.period_s,
                          obs=self.obs, noise=self.noise)

    def sample(self, timeline, port=None):
        """Sample *timeline*, rotating event groups between ticks."""
        return self.extrapolate(
            self.base_sampler().sample(timeline, port), timeline
        )

    def extrapolate(self, full, timeline):
        """Scale the base pass *full* over *timeline* to what rotating
        the event groups observes.

        The duty-cycle extrapolation does not re-sample: each
        component's counts are spread across ticks, so observing 1/n of
        ticks observes ~1/n of each component's activity plus
        phase-alignment noise.  Without an injected ``rng`` the noise
        is drawn from a stream seeded by the timeline's length, so one
        recording always extrapolates the same way.
        """
        n_groups = len(self.rotation)
        duty = {}
        for group in self.rotation:
            for event in group:
                duty[event] = duty.get(event, 0) + 1

        scaled = {
            "instructions": {},
            "l2_accesses": {},
            "l2_misses": {},
        }
        rng = (
            self.rng
            if self.rng is not None
            else np.random.default_rng(len(timeline))
        )
        for event, per_comp in (
            ("instructions", full.component_instructions),
            ("l2_accesses", full.component_l2_accesses),
            ("l2_misses", full.component_l2_misses),
        ):
            fraction = duty.get(event, 0) / n_groups
            if fraction == 0:
                continue
            if fraction >= 1.0:
                # Always monitored: no extrapolation, no error.
                scaled[event] = dict(per_comp)
                continue
            # Phase-alignment noise shrinks with the number of ticks
            # each component occupied: one draw per component, in the
            # trace's component order.  ``sigma * standard_normal(n)``
            # gives ``normal(0.0, sigma)``'s numbers from the same draws
            # without its broadcasting cost.
            observed_ticks = [
                max(int(round(
                    max(full.component_samples.get(cid, 1), 1) * fraction
                )), 1)
                for cid in per_comp
            ]
            noise = (1.0 / np.sqrt(observed_ticks)) * \
                rng.standard_normal(len(observed_ticks))
            values = np.fromiter(per_comp.values(), dtype=np.float64,
                                 count=len(per_comp))
            observed = values * fraction * np.maximum(1.0 + noise, 0.0)
            scaled[event] = dict(zip(per_comp, (observed / fraction).tolist()))
        return PerfTrace(
            sample_period_s=self.period_s,
            n_samples=full.n_samples,
            component_samples=dict(full.component_samples),
            component_cycles=dict(full.component_cycles),
            component_instructions=scaled["instructions"],
            component_l2_accesses=scaled["l2_accesses"],
            component_l2_misses=scaled["l2_misses"],
        )

    def duty_fraction(self, event):
        """Fraction of ticks during which *event* was programmed."""
        hits = sum(1 for group in self.rotation if event in group)
        return hits / len(self.rotation)
