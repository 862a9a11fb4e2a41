"""Result and trace serialization.

Long measurement campaigns want their raw data on disk: this module
exports acquired traces to CSV (one row per sample) and experiment
results to JSON summaries, and loads them back.  The JSON schema is a
plain dictionary so downstream tooling (pandas, gnuplot pipelines,
spreadsheets) needs nothing from this package.  A campaign cell's
payload (:func:`result_to_cell_dict`) decodes into a :class:`CellRecord`
(:func:`record_from_payload`), the one form in which the analyses and
the figure harness read a grid.
"""

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import MeasurementError
from repro.jvm.components import Component
from repro.measurement.traces import PowerTrace


def power_trace_to_csv(trace, path):
    """Write a power trace as CSV: time_s, cpu_w, mem_w, component,
    window_s (the sample's integration window; only the final row may
    differ from the sample period).

    Reported powers are clamped at zero here, at the export boundary —
    the in-memory trace keeps the sense channels' symmetric noise so
    energy integrals stay unbiased on near-idle rails."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time_s", "cpu_power_w", "mem_power_w",
                         "component", "window_s"])
        for t, cpu, mem, comp, win in zip(
            trace.times_s, trace.cpu_power_export_w,
            trace.mem_power_export_w, trace.component, trace.window_s,
        ):
            writer.writerow([
                f"{t:.9f}", f"{cpu:.6f}", f"{mem:.6f}",
                Component.from_port_value(int(comp)).short_name,
                f"{win:.9f}",
            ])
    return path


def power_trace_from_csv(path):
    """Load a power trace written by :func:`power_trace_to_csv`."""
    path = Path(path)
    times, cpu, mem, comp, wins = [], [], [], [], []
    name_to_id = {c.short_name: int(c) for c in Component}
    with path.open() as handle:
        reader = csv.DictReader(handle)
        for row in reader:
            times.append(float(row["time_s"]))
            cpu.append(float(row["cpu_power_w"]))
            mem.append(float(row["mem_power_w"]))
            comp.append(name_to_id.get(row["component"], 0))
            if "window_s" in row:
                wins.append(float(row["window_s"]))
    if not times:
        raise MeasurementError(f"no samples in {path}")
    times = np.asarray(times)
    period = float(times[1] - times[0]) if len(times) > 1 else 40e-6
    return PowerTrace(
        times_s=times,
        cpu_power_w=np.asarray(cpu),
        mem_power_w=np.asarray(mem),
        component=np.asarray(comp, dtype=np.int16),
        sample_period_s=period,
        window_s=np.asarray(wins) if wins else None,
    )


def format_with_ci(value, distribution, unit="J"):
    """``value ± half-width unit`` when a distribution is known,
    ``value unit`` otherwise — the shared rendering for reports that
    may or may not carry an uncertainty section."""
    if distribution is None:
        return f"{value:.6g} {unit}"
    return (
        f"{value:.6g} ± {distribution.ci_half_width:.3g} {unit}"
    )


def result_to_dict(result):
    """JSON-serializable summary of an ExperimentResult.

    When the bootstrap engine attached an uncertainty report
    (``result.uncertainty``), its distributions are exported under an
    ``uncertainty`` key; a plain single-measurement result produces
    exactly the historical schema, byte for byte.
    """
    cfg = result.config
    profiles = result.profiles()
    out = {
        "schema": "repro-experiment-v1",
        "config": {
            "benchmark": cfg.benchmark,
            "vm": cfg.vm,
            "platform": cfg.platform,
            "collector": result.run.collector_name,
            "heap_mb": cfg.heap_mb,
            "seed": cfg.seed,
            "input_scale": cfg.input_scale,
        },
        "totals": {
            "duration_s": result.duration_s,
            "cpu_energy_j": result.cpu_energy_j,
            "mem_energy_j": result.mem_energy_j,
            "edp_js": result.edp,
        },
        "components": {
            comp.short_name: {
                "energy_j": p.energy_j,
                "energy_fraction": p.energy_fraction,
                "seconds": p.seconds,
                "avg_power_w": p.avg_power_w,
                "peak_power_w": p.peak_power_w,
                "ipc": p.ipc,
                "l2_miss_rate": p.l2_miss_rate,
            }
            for comp, p in profiles.items()
        },
        "gc": {
            "collections": result.run.gc_stats.collections,
            "minor": result.run.gc_stats.minor_collections,
            "full": result.run.gc_stats.full_collections,
            "copied_bytes": result.run.gc_stats.copied_bytes,
            "freed_bytes": result.run.gc_stats.freed_bytes,
        },
        "instrumentation": {
            "port_writes": result.run.port_writes,
            "perturbation_cycles": result.run.perturbation_cycles,
            # The paper's own "cost of the methodology" number
            # (Section IV-C), surfaced first-class: what the port-write
            # instrumentation cost this run in time and energy.
            "perturbation": result.perturbation.as_dict(),
        },
    }
    uncertainty = getattr(result, "uncertainty", None)
    if uncertainty is not None:
        out["uncertainty"] = uncertainty.as_dict()
    return out


def result_to_cell_dict(result):
    """Campaign-cell summary: :func:`result_to_dict` plus the breakdown.

    This is the payload the campaign runner returns from workers and
    memoizes on disk — everything the figure/benchmark drivers read from
    an :class:`ExperimentResult`, at a tiny fraction of its size.
    """
    data = result_to_dict(result)
    data["schema"] = "repro-cell-v1"
    data["breakdown"] = {
        "fractions": {
            comp.short_name: result.breakdown.fraction(comp)
            for comp in Component
        },
        "jvm_fraction": result.breakdown.jvm_fraction(),
        "mem_to_cpu_ratio": result.breakdown.mem_to_cpu_ratio(),
    }
    return data


#: Short-name -> Component, for decoding cell payloads.
_NAME_TO_COMPONENT = {c.short_name: c for c in Component}


@dataclass
class CellRecord:
    """One campaign cell's numbers, decoded from its payload."""

    benchmark: str
    vm: str
    platform: str
    collector: str
    heap_mb: int
    oom: bool = False
    duration_s: float = 0.0
    edp: float = float("inf")
    fractions: dict = field(default_factory=dict)   # Component -> frac
    jvm_fraction: float = 0.0
    mem_ratio: float = 0.0
    avg_power: dict = field(default_factory=dict)   # Component -> W
    peak_power: dict = field(default_factory=dict)
    ipc: dict = field(default_factory=dict)
    l2_miss: dict = field(default_factory=dict)
    error: str = ""     # the out-of-memory message, when ``oom``

    def frac(self, component):
        return self.fractions.get(Component(component), 0.0)


def record_from_payload(payload):
    """Rebuild a :class:`CellRecord` from a campaign cell payload.

    An out-of-memory payload carries only its config and the error:
    the record has ``oom`` set, the message and an infinite EDP."""
    cfg = payload["config"]
    if payload.get("oom"):
        return CellRecord(
            benchmark=cfg["benchmark"], vm=cfg["vm"],
            platform=cfg["platform"],
            collector=cfg["collector"] or "?",
            heap_mb=cfg["heap_mb"], oom=True, error=payload["error"],
        )
    totals = payload["totals"]
    breakdown = payload["breakdown"]
    comps = {
        _NAME_TO_COMPONENT[name]: stats
        for name, stats in payload["components"].items()
    }
    return CellRecord(
        benchmark=cfg["benchmark"],
        vm=cfg["vm"],
        platform=cfg["platform"],
        collector=cfg["collector"],
        heap_mb=cfg["heap_mb"],
        duration_s=totals["duration_s"],
        edp=totals["edp_js"],
        fractions={
            _NAME_TO_COMPONENT[name]: frac
            for name, frac in breakdown["fractions"].items()
        },
        jvm_fraction=breakdown["jvm_fraction"],
        mem_ratio=breakdown["mem_to_cpu_ratio"],
        avg_power={c: s["avg_power_w"] for c, s in comps.items()},
        peak_power={c: s["peak_power_w"] for c, s in comps.items()},
        ipc={c: s["ipc"] for c, s in comps.items()},
        l2_miss={c: s["l2_miss_rate"] for c, s in comps.items()},
    )


def result_to_json(result, path):
    """Write an experiment summary to *path* as JSON."""
    path = Path(path)
    path.write_text(
        json.dumps(result_to_dict(result), indent=2, sort_keys=True)
    )
    return path


def result_from_json(path):
    """Load an experiment summary written by :func:`result_to_json`."""
    data = json.loads(Path(path).read_text())
    if data.get("schema") != "repro-experiment-v1":
        raise MeasurementError(
            f"{path} is not a repro experiment summary"
        )
    return data
