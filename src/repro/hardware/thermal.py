"""Lumped-RC thermal model with emergency throttling.

Reproduces the behavior shown in the paper's Figure 1: a 1.6 GHz Pentium M
running repetitive `_222_mpegaudio` holds roughly 60 degrees C with the fan
enabled; with the fan disabled the die climbs to 99 degrees C after about
240 seconds, at which point the processor's thermal emergency response
reduces the clock duty cycle to 50 %, proportionally decreasing
performance.

The die + package + heatsink are modeled as a single thermal capacitance
``C`` coupled to ambient through a thermal resistance ``R`` whose value
depends on whether the fan is running:

    C * dT/dt = P(t) - (T - T_ambient) / R
"""

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ThermalSpec:
    """Thermal parameters of a processor package + cooling solution."""

    ambient_c: float
    capacitance_j_per_c: float
    resistance_fan_on: float   # degC per watt with fan running
    resistance_fan_off: float  # degC per watt with fan disabled
    trip_c: float              # emergency throttle trip point
    resume_c: float            # temperature at which throttling releases

    def __post_init__(self):
        if self.resistance_fan_off <= self.resistance_fan_on:
            raise ConfigurationError(
                "disabling the fan must increase thermal resistance"
            )
        if self.resume_c >= self.trip_c:
            raise ConfigurationError("resume point must be below trip point")


#: Pentium M package calibrated against Figure 1: ~60 degC steady state at
#: mpegaudio's ~13.5 W with the fan on, and a ~240 s climb to the 99 degC
#: trip point with the fan off.
PENTIUM_M_THERMAL = ThermalSpec(
    ambient_c=35.0,
    capacitance_j_per_c=30.0,
    resistance_fan_on=1.9,
    resistance_fan_off=5.5,
    trip_c=99.0,
    resume_c=97.0,
)

#: The PXA255 dissipates well under a watt and is passively cooled; its
#: trip point is never reached in the studied workloads.
PXA255_THERMAL = ThermalSpec(
    ambient_c=35.0,
    capacitance_j_per_c=2.0,
    resistance_fan_on=40.0,
    resistance_fan_off=60.0,
    trip_c=110.0,
    resume_c=105.0,
)


class ThermalModel:
    """Integrates die temperature over time and drives throttling.

    The model exposes hysteresis: throttling engages at ``trip_c`` and only
    releases when the die cools below ``resume_c``.
    """

    def __init__(self, spec, fan_enabled=True):
        self.spec = spec
        self.fan_enabled = fan_enabled
        self.temperature_c = spec.ambient_c
        self.throttled = False
        self._history = []

    @property
    def resistance(self):
        if self.fan_enabled:
            return self.spec.resistance_fan_on
        return self.spec.resistance_fan_off

    @property
    def time_constant_s(self):
        """RC time constant of the package under current cooling."""
        return self.resistance * self.spec.capacitance_j_per_c

    def steady_state_c(self, power_w):
        """Equilibrium temperature under constant ``power_w``."""
        return self.spec.ambient_c + power_w * self.resistance

    def step(self, power_w, dt_s, record=True):
        """Advance the die temperature by ``dt_s`` seconds at ``power_w``.

        Uses the exact exponential solution of the RC equation over the
        step (stable for any ``dt_s``).  Returns the new temperature and
        updates the throttle latch.
        """
        if dt_s < 0:
            raise ConfigurationError("dt must be non-negative")
        t_inf = self.steady_state_c(power_w)
        tau = self.time_constant_s
        decay = math.exp(-dt_s / tau)
        self.temperature_c = t_inf + (self.temperature_c - t_inf) * decay

        if self.temperature_c >= self.spec.trip_c:
            self.throttled = True
        elif self.throttled and self.temperature_c < self.spec.resume_c:
            self.throttled = False
        if record:
            self._history.append((dt_s, self.temperature_c, self.throttled))
        return self.temperature_c

    def step_batch(self, power_w, dt_s, record=True):
        """Integrate a run of consecutive segments in one call.

        ``power_w`` and ``dt_s`` are equal-length sequences describing
        segments retired back to back.  Integration stops *after* the
        first step that flips the throttle latch (in either direction):
        every segment past a flip was costed by the execution engine
        under the wrong duty cycle and must be re-emitted, so the
        batched scheduler flushes there and restarts.

        Returns the number of steps consumed (``>= 1`` when the input is
        non-empty).  Each consumed step performs exactly the arithmetic
        of :meth:`step`, in the same order, so a batched integration is
        bit-identical to the equivalent sequence of scalar steps.
        """
        n = len(power_w)
        if n == 0:
            return 0
        spec = self.spec
        resistance = self.resistance
        tau = resistance * spec.capacitance_j_per_c
        ambient = spec.ambient_c
        trip = spec.trip_c
        resume = spec.resume_c
        temperature = self.temperature_c
        throttled = self.throttled
        history = self._history
        consumed = 0
        for power, dt in zip(np.asarray(power_w, dtype=np.float64).tolist(),
                             np.asarray(dt_s, dtype=np.float64).tolist()):
            if dt < 0:
                raise ConfigurationError("dt must be non-negative")
            t_inf = ambient + power * resistance
            decay = math.exp(-dt / tau)
            temperature = t_inf + (temperature - t_inf) * decay
            consumed += 1
            flipped = False
            if temperature >= trip:
                flipped = not throttled
                throttled = True
            elif throttled and temperature < resume:
                throttled = False
                flipped = True
            if record:
                history.append((dt, temperature, throttled))
            if flipped:
                break
        self.temperature_c = temperature
        self.throttled = throttled
        return consumed

    def reset(self, temperature_c=None):
        """Reset to ambient (or a given temperature) and clear the latch."""
        self.temperature_c = (
            self.spec.ambient_c if temperature_c is None else temperature_c
        )
        self.throttled = False
        self._history = []

    @property
    def history(self):
        """List of ``(dt_s, temperature_c, throttled)`` tuples recorded by
        :meth:`step`."""
        return self._history
