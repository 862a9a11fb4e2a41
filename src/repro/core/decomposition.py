"""Offline per-component decomposition of acquired traces.

"Per-component energy and power behavior is analyzed offline, where it is
matched with performance traces" (Figure 4).  This module is that offline
stage: it folds a :class:`~repro.measurement.traces.PowerTrace` into an
:class:`~repro.core.metrics.EnergyBreakdown` and merges per-component
microarchitectural rates from the matching
:class:`~repro.measurement.traces.PerfTrace`.
"""

from dataclasses import dataclass

from repro.core.metrics import EnergyBreakdown
from repro.jvm.components import (
    Component,
    JIKES_COMPONENTS,
    KAFFE_COMPONENTS,
)


def jvm_components_for(vm_name):
    """Which component set counts as "the JVM" for a given VM."""
    return JIKES_COMPONENTS if vm_name == "jikes" else KAFFE_COMPONENTS


def decompose(power_trace, vm_name):
    """Build an :class:`EnergyBreakdown` from an acquired power trace."""
    return EnergyBreakdown(
        cpu_energy_j=power_trace.component_cpu_energy_j(),
        mem_energy_j=power_trace.component_mem_energy_j(),
        seconds=power_trace.component_seconds(),
        jvm_components=jvm_components_for(vm_name),
    )


@dataclass
class ComponentProfile:
    """Measured per-component behavior merged across trace types."""

    component: Component
    energy_j: float
    energy_fraction: float
    seconds: float
    avg_power_w: float
    peak_power_w: float
    ipc: float
    l2_miss_rate: float


def component_profiles(power_trace, perf_trace, vm_name, breakdown=None):
    """Merge power and performance traces into per-component profiles.

    This is the joined view behind the paper's Section VI-C discussion
    (GC: low IPC, huge L2 miss rate, low power; application: the
    opposite).  ``breakdown`` is ``decompose(power_trace, vm_name)``
    when the caller already has it.
    """
    if breakdown is None:
        breakdown = decompose(power_trace, vm_name)
    avg = power_trace.component_avg_power_w()
    peak = power_trace.component_peak_power_w()
    secs = breakdown.seconds
    ipc = perf_trace.component_ipc()
    miss = perf_trace.component_l2_miss_rate()
    profiles = {}
    for cid in power_trace.components_present():
        comp = Component.from_port_value(cid)
        profiles[comp] = ComponentProfile(
            component=comp,
            energy_j=breakdown.cpu_energy_j.get(cid, 0.0),
            energy_fraction=breakdown.fraction(cid),
            seconds=secs.get(cid, 0.0),
            avg_power_w=avg.get(cid, 0.0),
            peak_power_w=peak.get(cid, 0.0),
            ipc=ipc.get(cid, 0.0),
            l2_miss_rate=miss.get(cid, 0.0),
        )
    return profiles
