"""Energy/power/performance metrics (paper Section III-A).

* **Energy** (joules) — the integral of power over the run.
* **Power** (watts) — average and peak matter for different reasons:
  energy budgets vs thermal/reliability envelopes.
* **Energy-delay product** (EDP, joule-seconds) — the combined
  energy-performance figure of merit the paper adopts from Gonzalez &
  Horowitz: low energy *and* low execution time are rewarded.
"""

from dataclasses import dataclass
from functools import cached_property

from repro.errors import ConfigurationError
from repro.jvm.components import Component


def edp(energy_j, time_s):
    """Energy-delay product in joule-seconds."""
    if energy_j < 0 or time_s < 0:
        raise ConfigurationError("energy and time must be non-negative")
    return energy_j * time_s


@dataclass(frozen=True)
class PerturbationReport:
    """The methodology's own cost: port-write instrumentation overhead.

    The paper charges every component-ID port write to the entered
    component (Section IV-C), making the perturbation of the measurement
    itself a measurable quantity.  This report surfaces that number as a
    first-class result instead of leaving it buried in timeline
    segments: how many writes, what they cost in instructions, cycles,
    time, and energy, and what fraction of the whole run that is.
    """

    port_writes: int
    instructions: int
    cycles: int
    seconds: float
    cpu_energy_j: float
    mem_energy_j: float
    total_seconds: float
    total_energy_j: float

    @property
    def energy_j(self):
        return self.cpu_energy_j + self.mem_energy_j

    @property
    def energy_fraction(self):
        """Share of the run's total (CPU + memory) energy."""
        if self.total_energy_j <= 0:
            return 0.0
        return self.energy_j / self.total_energy_j

    @property
    def time_fraction(self):
        """Share of the run's wall-clock duration."""
        if self.total_seconds <= 0:
            return 0.0
        return self.seconds / self.total_seconds

    def describe(self):
        """One-line human-readable summary."""
        return (
            f"{self.port_writes} port writes: "
            f"{self.instructions} instructions, "
            f"{1e3 * self.seconds:.3f} ms "
            f"({100.0 * self.time_fraction:.3f}% of time), "
            f"{1e3 * self.energy_j:.3f} mJ "
            f"({100.0 * self.energy_fraction:.3f}% of energy)"
        )

    def as_dict(self):
        return {
            "port_writes": self.port_writes,
            "instructions": self.instructions,
            "cycles": self.cycles,
            "seconds": self.seconds,
            "cpu_energy_j": self.cpu_energy_j,
            "mem_energy_j": self.mem_energy_j,
            "energy_j": self.energy_j,
            "energy_fraction": self.energy_fraction,
            "time_fraction": self.time_fraction,
        }


def perturbation_report(timeline, port_writes):
    """Fold a ground-truth timeline's port-write segments into a
    :class:`PerturbationReport`.

    ``port_writes`` is the scheduler's latch-update count; it can exceed
    the number of perturbation *segments* on platforms whose port writes
    cost zero cycles (none of the modeled boards, but the accounting
    stays honest).
    """
    instructions = 0
    cycles = 0
    seconds = 0.0
    cpu_j = 0.0
    mem_j = 0.0
    rows = [i for i, tag in enumerate(timeline.tags) if tag == "port-write"]
    if rows:
        # Only the tagged rows, read from the column buffers; the sums
        # run in timeline order with the per-segment arithmetic.
        arrays = timeline.to_arrays()
        columns = zip(
            arrays.instructions[rows].tolist(),
            (arrays.end_cycles[rows] - arrays.start_cycles[rows]).tolist(),
            arrays.cpu_power[rows].tolist(),
            arrays.mem_power[rows].tolist(),
            arrays.durations_s[rows].tolist(),
        )
        for instr, cyc, cpu_w, mem_w, wall_s in columns:
            instructions += instr
            cycles += cyc
            seconds += wall_s
            cpu_j += cpu_w * wall_s
            mem_j += mem_w * wall_s
    return PerturbationReport(
        port_writes=port_writes,
        instructions=instructions,
        cycles=cycles,
        seconds=seconds,
        cpu_energy_j=cpu_j,
        mem_energy_j=mem_j,
        total_seconds=timeline.duration_s,
        total_energy_j=timeline.cpu_energy_j() + timeline.mem_energy_j(),
    )


@dataclass
class EnergyBreakdown:
    """Per-component energy decomposition of one run.

    ``cpu_energy_j`` maps :class:`~repro.jvm.components.Component` IDs to
    measured CPU energy; anything not positively identified as a JVM
    service counts as application energy, following the paper's
    convention ("the rest of the energy consumed by the benchmark is
    classified as application energy" — Section VI).
    """

    cpu_energy_j: dict
    mem_energy_j: dict
    seconds: dict
    jvm_components: tuple

    @cached_property
    def total_cpu_j(self):
        """Total measured CPU energy, summed once per breakdown (its
        dicts are never written after construction)."""
        return sum(self.cpu_energy_j.values())

    @property
    def total_mem_j(self):
        return sum(self.mem_energy_j.values())

    @property
    def total_seconds(self):
        return sum(self.seconds.values())

    def fraction(self, component):
        """Share of total CPU energy attributed to *component*."""
        total = self.total_cpu_j
        if total <= 0:
            return 0.0
        return self.cpu_energy_j.get(int(component), 0.0) / total

    def jvm_energy_j(self):
        """Energy of the monitored JVM services combined."""
        return sum(
            self.cpu_energy_j.get(int(c), 0.0) for c in self.jvm_components
        )

    def jvm_fraction(self):
        """JVM services' share of total CPU energy (paper: up to 60 %)."""
        total = self.total_cpu_j
        if total <= 0:
            return 0.0
        return self.jvm_energy_j() / total

    def app_fraction(self):
        return 1.0 - self.jvm_fraction() - self._other_fraction()

    def _other_fraction(self):
        """Idle/scheduler residue not classed as JVM or App."""
        total = self.total_cpu_j
        if total <= 0:
            return 0.0
        other = sum(
            e
            for cid, e in self.cpu_energy_j.items()
            if cid not in (int(Component.APP),)
            and cid not in {int(c) for c in self.jvm_components}
        )
        return other / total

    def mem_to_cpu_ratio(self):
        """Memory energy relative to CPU energy (paper: 5-8 %)."""
        total = self.total_cpu_j
        if total <= 0:
            return 0.0
        return self.total_mem_j / total

    def as_fractions(self):
        """``{component_name: fraction}`` over all observed components."""
        total = self.total_cpu_j
        out = {}
        for cid, energy in sorted(self.cpu_energy_j.items()):
            name = Component.from_port_value(cid).short_name
            out[name] = energy / total if total > 0 else 0.0
        return out
