"""Measurement-vs-ground-truth validation (beyond the paper).

On real hardware the paper could only argue that 40 us sampling "captures
all important behavior" because typical component durations are hundreds
of microseconds.  In the simulator the ground truth is available, so the
claim is testable: :func:`attribution_error` quantifies how much energy
the DAQ attributes to the wrong component, and how the error grows with
the sampling period.
"""

from dataclasses import dataclass

import numpy as np

from repro.measurement.daq import DAQ


@dataclass
class AttributionReport:
    """Per-component measured-vs-true energy comparison."""

    sample_period_s: float
    true_energy_j: dict       # component id -> ground truth joules
    measured_energy_j: dict   # component id -> DAQ-attributed joules

    def absolute_error_j(self, component):
        cid = int(component)
        return abs(
            self.measured_energy_j.get(cid, 0.0)
            - self.true_energy_j.get(cid, 0.0)
        )

    def relative_error(self, component):
        cid = int(component)
        true = self.true_energy_j.get(cid, 0.0)
        if true <= 0:
            return 0.0 if self.measured_energy_j.get(cid, 0.0) == 0 else 1.0
        return self.absolute_error_j(component) / true

    def total_misattribution_fraction(self):
        """Half the L1 distance between the distributions: the fraction
        of total energy credited to the wrong component."""
        total = sum(self.true_energy_j.values())
        if total <= 0:
            return 0.0
        keys = set(self.true_energy_j) | set(self.measured_energy_j)
        l1 = sum(
            abs(
                self.measured_energy_j.get(k, 0.0)
                - self.true_energy_j.get(k, 0.0)
            )
            for k in keys
        )
        return l1 / (2.0 * total)


def attribution_error(run_result, platform, rng=None,
                      sample_period_s=40e-6):
    """Acquire a power trace at ``sample_period_s`` and compare the
    per-component energy attribution against the timeline's ground truth.
    """
    if rng is None:
        rng = np.random.default_rng(12345)
    daq = DAQ(platform, rng, sample_period_s=sample_period_s)
    trace = daq.acquire(run_result.timeline, port=platform.port)
    measured = trace.component_cpu_energy_j()
    true = run_result.timeline.component_cpu_energy_j()
    return AttributionReport(
        sample_period_s=sample_period_s,
        true_energy_j={int(k): v for k, v in true.items()},
        measured_energy_j=measured,
    )
