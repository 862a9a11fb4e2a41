"""Utilization-based CPU power model.

The paper's Section VI-C observes that "power consumption is highly
correlated with processor utilization" (citing event-driven energy
accounting work).  We model instantaneous CPU power as

    P = duty * scale_v^2 * scale_f * (P_idle + (P_max - P_idle) * u^gamma * mix)

where ``u`` is utilization (achieved IPC relative to the core's reference
IPC), ``gamma`` < 1 captures the fact that structural and clock activity
persists during stalls (power falls off slower than IPC), ``mix`` is an
instruction-mix weighting (stores and ALU-dense code draw slightly more
than average), and the voltage/frequency scales implement DVFS.  During
throttling, the 50 % duty cycle gates the clock half the time,
proportionally reducing both delivered performance and dynamic power.
"""

import numpy as np

from repro.errors import ConfigurationError


class CPUPowerModel:
    """Maps utilization to CPU power draw for a given :class:`CPUSpec`."""

    def __init__(self, spec):
        self.spec = spec

    def utilization(self, ipc):
        """Utilization in [0, 1] from achieved IPC."""
        if ipc < 0:
            raise ConfigurationError("IPC cannot be negative")
        return min(1.0, ipc / self.spec.ipc_ref)

    def power_w(self, ipc, mix_factor=1.0, dvfs=None, duty_cycle=1.0):
        """Instantaneous CPU power at a given achieved IPC.

        ``mix_factor`` perturbs the dynamic term for instruction-mix
        effects (about 0.9-1.2 in practice); ``dvfs`` is an optional
        :class:`~repro.hardware.cpu.DVFSState`.
        """
        u = self.utilization(ipc)
        dynamic = (self.spec.max_power_w - self.spec.idle_power_w)
        dynamic *= (u ** self.spec.power_exponent) * mix_factor
        power = self.spec.idle_power_w + dynamic
        if dvfs is not None:
            # Dynamic power scales with V^2 * f; the idle floor scales with
            # voltage too (leakage roughly follows V).
            vf = dvfs.voltage_scale ** 2 * dvfs.freq_scale
            idle_scaled = self.spec.idle_power_w * dvfs.voltage_scale
            power = idle_scaled + dynamic * vf
        # Duty-cycle modulation (thermal throttling): the clock is gated
        # half the time, so average power interpolates between the gated
        # floor and full power.
        if duty_cycle < 1.0:
            gated_floor = 0.6 * self.spec.idle_power_w
            power = duty_cycle * power + (1.0 - duty_cycle) * gated_floor
        return power

    def power_w_batch(self, ipc, mix_factor=1.0, dvfs=None,
                      duty_cycle=1.0):
        """Vectorized :meth:`power_w` over an array of achieved IPCs.

        ``mix_factor``, ``dvfs`` and ``duty_cycle`` are scalars shared by
        the whole batch (they only change between batches).  Every
        element performs exactly the scalar method's arithmetic.
        """
        return self.power_w_from_terms(
            self.utilization_terms(ipc), mix_factor=mix_factor, dvfs=dvfs,
            duty_cycle=duty_cycle,
        )

    def utilization_terms(self, ipc):
        """``u ** gamma`` per element of an array of achieved IPCs: the
        part of :meth:`power_w` that does not depend on the CPU state.

        The exponential is evaluated with scalar ``**`` per element
        because NumPy's SIMD ``power`` kernel differs from libm in the
        last ulp, and batched execution must be bit-identical to the
        per-segment path.
        """
        spec = self.spec
        if (np.asarray(ipc) < 0).any():
            raise ConfigurationError("IPC cannot be negative")
        u = np.minimum(1.0, np.asarray(ipc, dtype=np.float64)
                       / spec.ipc_ref)
        gamma = spec.power_exponent
        return np.array([v ** gamma for v in u.tolist()], dtype=np.float64)

    def power_w_from_terms(self, terms, mix_factor=1.0, dvfs=None,
                           duty_cycle=1.0):
        """:meth:`power_w_batch` from precomputed
        :meth:`utilization_terms`, under the given CPU state."""
        spec = self.spec
        dynamic = (spec.max_power_w - spec.idle_power_w) * (
            terms * mix_factor
        )
        power = spec.idle_power_w + dynamic
        if dvfs is not None:
            vf = dvfs.voltage_scale ** 2 * dvfs.freq_scale
            idle_scaled = spec.idle_power_w * dvfs.voltage_scale
            power = idle_scaled + dynamic * vf
        if duty_cycle < 1.0:
            gated_floor = 0.6 * spec.idle_power_w
            power = duty_cycle * power + (1.0 - duty_cycle) * gated_floor
        return power

    def idle_power_w(self):
        """Power of the processor idle loop."""
        return self.spec.idle_power_w

    def max_sustained_power_w(self, mix_factor=1.2):
        """Upper bound of the model (full utilization, hot mix)."""
        return self.power_w(self.spec.ipc_ref, mix_factor=mix_factor)
