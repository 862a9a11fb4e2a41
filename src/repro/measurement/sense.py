"""Sense-resistor power measurement channels.

"Current consumption of our P6 platform is measurable via two precision
resistors placed in series between the voltage supply of the processor and
its voltage pins ... These precision resistors allow us to measure the
voltage drop across the resistors and thus indirectly measure the current
being drawn" (Section IV-D).

A :class:`SenseChannel` converts a *true* instantaneous power draw into
what the DAQ would read back: the rail voltage times the current inferred
from a noisy differential voltage measurement across the resistor.  Noise
enters as additive Gaussian error on the voltage-drop reading (the
dominant error term of a real differential front end), plus a small gain
error from resistor tolerance.
"""

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class SenseResistor:
    """A precision series resistor."""

    resistance_ohm: float
    tolerance: float = 0.001  # 0.1 % precision part

    def __post_init__(self):
        if self.resistance_ohm <= 0:
            raise ConfigurationError("resistance must be positive")
        if not (0.0 <= self.tolerance < 0.1):
            raise ConfigurationError("tolerance must be a small fraction")


class SenseChannel:
    """One instrumented supply rail (CPU core or memory).

    ``adc`` is the uncertainty subsystem's quantization hook (an
    :class:`~repro.measurement.noise.ADCQuantizer` or ``None``): when
    set, the digitized voltage drop saturates at the converter's full
    scale and snaps to its LSB grid before power is reconstructed.
    ``None`` (the default) leaves the measurement path byte-identical
    to the hook-free code.
    """

    def __init__(self, name, rail_voltage_v, resistor, vdrop_noise_v,
                 rng, adc=None):
        if rail_voltage_v <= 0:
            raise ConfigurationError("rail voltage must be positive")
        self.name = name
        self.rail_voltage_v = rail_voltage_v
        self.resistor = resistor
        self.vdrop_noise_v = vdrop_noise_v
        self.rng = rng
        self.adc = adc
        # Fixed per-channel gain error drawn once, within tolerance —
        # a real resistor's actual value is constant but unknown.
        self._actual_r = resistor.resistance_ohm * (
            1.0
            + float(rng.uniform(-resistor.tolerance, resistor.tolerance))
        )

    def measure(self, true_power_w, at=None):
        """Read back the power for an array of true power draws.

        The physical chain: true current I = P/V flows through the actual
        resistance, producing a voltage drop; the DAQ digitizes that drop
        with additive noise; power is reconstructed using the *nominal*
        resistance (the experimenter doesn't know the actual one).

        ``at`` optionally indexes *true_power_w*: the readings are then
        those of ``true_power_w[at]``, while the noise-free front of the
        chain runs once per entry of *true_power_w* (the DAQ passes
        per-segment powers and each sample's segment).  Elementwise
        arithmetic commutes with the gather bit for bit, so both forms
        return the same bytes.

        Readings are deliberately *not* clamped at zero: the additive
        voltage noise is symmetric, so on a near-idle rail (where the
        true drop is comparable to the noise floor) discarding the
        negative excursions would turn zero-mean noise into a positive
        energy bias.  Clamping is a presentation concern, applied only
        when a trace is exported (see
        :attr:`~repro.measurement.traces.PowerTrace.cpu_power_export_w`).
        """
        true_power_w = np.asarray(true_power_w, dtype=np.float64)
        vdrop = true_power_w / self.rail_voltage_v * self._actual_r
        if at is not None:
            vdrop = vdrop[at]
        reading = self.rng.normal(0.0, self.vdrop_noise_v,
                                  size=vdrop.shape)
        reading += vdrop
        del vdrop
        if self.adc is not None:
            self.adc.quantize(reading, out=reading)
        reading /= self.resistor.resistance_ohm
        reading *= self.rail_voltage_v
        return reading

    @property
    def noise_floor_w(self):
        """One-sigma power-equivalent of the voltage-drop noise."""
        return (
            self.rail_voltage_v * self.vdrop_noise_v
            / self.resistor.resistance_ohm
        )

    @property
    def gain_error(self):
        """The channel's (hidden) systematic gain error."""
        return self._actual_r / self.resistor.resistance_ohm - 1.0


def p6_cpu_channel(rng, adc=None):
    """CPU-rail channel of the P6 platform (two parallel 2 mOhm shunts on
    the core supply, read differentially)."""
    return SenseChannel(
        name="p6-cpu",
        rail_voltage_v=1.35,
        resistor=SenseResistor(resistance_ohm=0.002),
        vdrop_noise_v=0.00009,
        rng=rng,
        adc=adc,
    )


def p6_mem_channel(rng, adc=None):
    """Memory-rail channel of the P6 platform."""
    return SenseChannel(
        name="p6-mem",
        rail_voltage_v=2.5,
        resistor=SenseResistor(resistance_ohm=0.010),
        vdrop_noise_v=0.00006,
        rng=rng,
        adc=adc,
    )


def pxa255_cpu_channel(rng, adc=None):
    """CPU channel of the DBPXA255 board ("system voltages, including the
    processor's power lines, are exposed" — direct measurement, larger
    shunt because currents are tiny)."""
    return SenseChannel(
        name="pxa255-cpu",
        rail_voltage_v=1.3,
        resistor=SenseResistor(resistance_ohm=0.100),
        vdrop_noise_v=0.00012,
        rng=rng,
        adc=adc,
    )


def pxa255_mem_channel(rng, adc=None):
    """Memory channel of the DBPXA255 board."""
    return SenseChannel(
        name="pxa255-mem",
        rail_voltage_v=2.5,
        resistor=SenseResistor(resistance_ohm=0.250),
        vdrop_noise_v=0.00010,
        rng=rng,
        adc=adc,
    )


def channels_for(platform_name, rng, adc=None):
    """(cpu_channel, mem_channel) for a platform name."""
    if platform_name == "p6":
        return p6_cpu_channel(rng, adc=adc), p6_mem_channel(rng, adc=adc)
    if platform_name == "pxa255":
        return (
            pxa255_cpu_channel(rng, adc=adc),
            pxa255_mem_channel(rng, adc=adc),
        )
    raise ConfigurationError(f"no sense channels for {platform_name!r}")
