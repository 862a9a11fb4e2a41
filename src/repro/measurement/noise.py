"""Seeded noise models for the measurement chain.

The paper's Section IV-C perturbation analysis concedes that the
apparatus itself injects error it cannot bound: the DAQ's sample clock
drifts and jitters, the sense-resistor front end digitizes through an
ADC of finite resolution, and the OS timer that drives HPM sampling
fires late by an interrupt latency that depends on what the processor
happened to be doing.  None of those error sources are observable from
a single measurement — which is exactly why the uncertainty subsystem
(:mod:`repro.analysis.uncertainty`) re-measures one recorded execution
many times under *seeded draws* of these models and reports the spread.

Every model here is opt-in and injected behind an explicit hook:

* :class:`ADCQuantizer` — the DAQ front end's finite resolution.  The
  differential voltage drop across the sense resistor saturates at the
  converter's full-scale range and snaps to the nearest LSB
  (:class:`~repro.measurement.sense.SenseChannel` applies it between
  digitization and power reconstruction).
* DAQ sample-clock jitter — each nominal 40 us sample instant is
  displaced by zero-mean Gaussian clock error before the sample reads
  the timeline (:class:`~repro.measurement.daq.DAQ`); the instrument
  still *reports* nominal timestamps, as the real DAQ does.
* HPM timer-interrupt latency — every timer tick lands late by a
  one-sided half-normal delay (an interrupt can be deferred, never
  delivered early), which shifts which component each inter-tick delta
  is charged to (:class:`~repro.measurement.hpm_sampler.HPMSampler`).

With no :class:`NoiseModel` attached, the measurement path executes the
exact pre-existing code — the noise-free path is byte-identical by
construction, and the test suite pins it against recorded goldens.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class NoiseConfig:
    """Declarative description of the measurement-chain error model.

    Hashable and canonically serializable so a bootstrap report can
    carry the exact model that produced its distributions.  Each knob
    disables its error source at ``None``/``0``; the defaults describe
    the modeled apparatus (a 12-bit differential front end, a sample
    clock good to a few percent of the period, timer latency around a
    tenth of a tick).
    """

    #: ADC resolution in bits (``None`` disables quantization).
    adc_bits: Optional[int] = 12
    #: Full-scale differential input range of the front end, in volts.
    adc_range_v: float = 0.25
    #: DAQ sample-clock jitter, one sigma, as a fraction of the period.
    daq_jitter_frac: float = 0.05
    #: HPM timer-interrupt latency, one sigma of the half-normal delay,
    #: as a fraction of the timer period.
    hpm_jitter_frac: float = 0.10

    def __post_init__(self):
        if self.adc_bits is not None and not (
            2 <= int(self.adc_bits) <= 32
        ):
            raise ConfigurationError(
                f"adc_bits must be in [2, 32], got {self.adc_bits!r}"
            )
        if self.adc_range_v <= 0:
            raise ConfigurationError("adc_range_v must be positive")
        if not (0.0 <= self.daq_jitter_frac < 1.0):
            raise ConfigurationError(
                "daq_jitter_frac must be in [0, 1)"
            )
        if not (0.0 <= self.hpm_jitter_frac < 1.0):
            raise ConfigurationError(
                "hpm_jitter_frac must be in [0, 1)"
            )

    @property
    def enabled(self):
        """Whether any error source is active at all."""
        return (
            self.adc_bits is not None
            or self.daq_jitter_frac > 0
            or self.hpm_jitter_frac > 0
        )

    def as_dict(self):
        return {
            "adc_bits": self.adc_bits,
            "adc_range_v": self.adc_range_v,
            "daq_jitter_frac": self.daq_jitter_frac,
            "hpm_jitter_frac": self.hpm_jitter_frac,
        }


#: The modeled apparatus under its defaults.
DEFAULT_NOISE = NoiseConfig()

#: Seed offset separating the noise RNG stream from the measurement
#: RNG stream derived from the same base seed (both are
#: ``default_rng(base + offset)``; distinct offsets keep the streams
#: uncorrelated the same way the existing ``seed + 7919`` does).
NOISE_SEED_OFFSET = 104729


@dataclass(frozen=True)
class ADCQuantizer:
    """Finite-resolution digitization of a differential voltage."""

    bits: int
    range_v: float

    def __post_init__(self):
        if not (2 <= self.bits <= 32):
            raise ConfigurationError("bits must be in [2, 32]")
        if self.range_v <= 0:
            raise ConfigurationError("range_v must be positive")

    @property
    def lsb_v(self):
        """One least-significant-bit step over the ±range_v span."""
        return 2.0 * self.range_v / (2 ** self.bits)

    def quantize(self, vdrop_v, out=None):
        """Saturate at full scale, snap to the nearest code.

        ``out`` (an array shaped like *vdrop_v*, possibly *vdrop_v*
        itself) receives the codes in place; the arithmetic is the same
        either way.
        """
        lsb = self.lsb_v
        codes = np.clip(vdrop_v, -self.range_v, self.range_v, out=out)
        codes = np.round(np.divide(codes, lsb, out=out), out=out)
        return np.multiply(codes, lsb, out=out)


class NoiseModel:
    """One seeded instantiation of a :class:`NoiseConfig`.

    Holds the RNG whose draws are this replicate's realization of the
    error model; the bootstrap engine builds one per replicate from a
    derived seed, so the realizations are independent yet exactly
    reproducible.
    """

    def __init__(self, config, rng):
        if not isinstance(config, NoiseConfig):
            raise ConfigurationError(
                f"config must be a NoiseConfig, got "
                f"{type(config).__name__}"
            )
        self.config = config
        self.rng = rng

    @classmethod
    def for_seed(cls, config, seed):
        """The model under a fresh ``default_rng(seed)`` stream."""
        return cls(config, np.random.default_rng(seed))

    # -- sense-resistor front end --------------------------------------

    def quantizer(self):
        """The ADC hook for the sense channels (``None`` = disabled)."""
        if self.config.adc_bits is None:
            return None
        return ADCQuantizer(
            bits=int(self.config.adc_bits),
            range_v=self.config.adc_range_v,
        )

    # -- DAQ sample clock ----------------------------------------------

    def daq_sample_times(self, times_s, period_s, duration_s):
        """Displace nominal sample instants by clock jitter.

        Returns the instants the DAQ *actually* reads the timeline at;
        the trace keeps nominal timestamps (the instrument believes its
        own clock).  Jittered instants are clipped to the run so no
        sample falls off either end.
        """
        frac = self.config.daq_jitter_frac
        if frac <= 0:
            return times_s
        read_s = self.rng.normal(0.0, frac * period_s, size=times_s.shape)
        read_s += times_s
        return np.clip(read_s, 0.0, duration_s, out=read_s)

    # -- HPM timer ------------------------------------------------------

    def hpm_tick_times(self, ticks_s, period_s, duration_s):
        """Delay timer ticks by interrupt latency.

        The delay is one-sided (half-normal): an interrupt can be
        deferred by whatever was running with interrupts masked, never
        delivered early.  Tick 0 is the sampling start, not a timer
        fire, so it stays put; delayed ticks are kept monotonic (a
        later tick cannot be handled before an earlier one) and clamped
        to the end of the run.
        """
        frac = self.config.hpm_jitter_frac
        if frac <= 0:
            return ticks_s
        delayed = ticks_s.copy()
        delay = np.abs(self.rng.normal(
            0.0, frac * period_s, size=len(ticks_s) - 1
        ))
        delayed[1:] = delayed[1:] + delay
        delayed = np.maximum.accumulate(delayed)
        return np.minimum(delayed, duration_s)


__all__ = [
    "ADCQuantizer",
    "DEFAULT_NOISE",
    "NOISE_SEED_OFFSET",
    "NoiseConfig",
    "NoiseModel",
]
