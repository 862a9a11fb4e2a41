"""Sweep-grid expansion: a scenario spec into experiment cells.

A :class:`~repro.spec.ScenarioSpec` names the axes of a result matrix
the way the paper's experimental section does ("all benchmarks, on
both VMs, at every heap size on the ladder"); :func:`expand_grid` turns
it into the concrete, deterministic list of
:class:`~repro.core.experiment.ExperimentConfig` cells.  Expansion
skips combinations the VMs cannot run (a Jikes-only collector under
Kaffe and vice versa), mirroring how the original study simply had no
such column in its tables.  Which VM supports which collector is a
registry query (:func:`repro.registry.collector_supported`), so
registered extension VMs and collectors participate automatically.

Beyond the paper's axes, specs can sweep input scale, DAQ sampling
period, DVFS operating point and the HPM period and rotation.
"""

import hashlib
from itertools import product

from repro.core.experiment import ExperimentConfig
from repro.errors import ConfigurationError
from repro.registry import collector_supported
from repro.units import DAQ_SAMPLE_PERIOD_S

#: Newest seed-derivation schema :func:`derive_cell_seed` implements.
#: Version 1 hashes the legacy axes only; version 2 (the scenario-spec
#: default) extends the identity with input scale, DAQ period, DVFS
#: point, and hardware overrides.  Recorded in provenance envelopes
#: (:mod:`repro.provenance`) so a stored result remembers which
#: derivation rules produced its cells.
SEED_DERIVATION_VERSION = 2

__all__ = [
    "SEED_DERIVATION_VERSION",
    "collector_supported",
    "derive_cell_seed",
    "expand_grid",
]


def derive_cell_seed(base_seed, benchmark, vm, platform, collector,
                     heap_mb, input_scale=1.0,
                     daq_period_s=DAQ_SAMPLE_PERIOD_S,
                     dvfs_freq_scale=None, overrides=(),
                     hpm_period_s=None, hpm_rotation=None,
                     spec_version=1):
    """Stable per-cell seed derived from the cell's identity.

    Unlike seeding by grid position, adding or removing axis values
    never shifts the seed of an unrelated cell, so previously cached
    results stay valid as a campaign grows.

    ``spec_version`` gates the identity: version 1 reproduces the
    historical hash over (seed, benchmark, vm, platform, collector,
    heap) so existing cache entries keep their keys; version 2 (the
    scenario-spec default) extends it with the newly sweepable axes —
    input scale, DAQ period, DVFS point, hardware overrides — so cells
    differing only in those never share a derived seed.  The HPM
    measurement axes (``hpm_period_s``/``hpm_rotation``) joined v2
    later, so their parts are appended only away from their ``None``
    defaults — cells that don't sweep them keep their existing derived
    seeds.
    """
    parts = [
        str(base_seed), benchmark, vm, platform, str(collector),
        str(heap_mb),
    ]
    if spec_version >= 2:
        parts += [
            repr(float(input_scale)),
            repr(float(daq_period_s)),
            repr(None if dvfs_freq_scale is None
                 else float(dvfs_freq_scale)),
            repr(tuple(overrides)),
        ]
        if hpm_period_s is not None:
            parts.append("hpm_period_s=" + repr(float(hpm_period_s)))
        if hpm_rotation is not None:
            parts.append(
                "hpm_rotation="
                + repr(tuple(tuple(g) for g in hpm_rotation))
            )
    digest = hashlib.sha256("|".join(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


def expand_grid(spec):
    """Expand *spec* (a :class:`~repro.spec.ScenarioSpec`) into a list
    of :class:`ExperimentConfig` cells.

    Iteration order is the deterministic cross product
    (benchmark, vm, platform, collector, heap, seed, input scale, DAQ
    period, DVFS point, HPM period, HPM rotation); unsupported
    VM/collector pairs are skipped.
    """
    cells = []
    for (bench, vm, platform, collector, heap, seed, input_scale,
         daq_period, dvfs, hpm_period, hpm_rotation) in product(
        spec.benchmarks, spec.vms, spec.platforms,
        spec.collectors, spec.heap_mbs, spec.seeds,
        spec.input_scales, spec.daq_periods_s,
        spec.dvfs_freq_scales, spec.hpm_periods_s,
        spec.hpm_rotations,
    ):
        if not collector_supported(vm, collector):
            continue
        if spec.derive_seeds:
            seed = derive_cell_seed(
                seed, bench, vm, platform, collector, heap,
                input_scale=input_scale, daq_period_s=daq_period,
                dvfs_freq_scale=dvfs, overrides=spec.overrides,
                hpm_period_s=hpm_period, hpm_rotation=hpm_rotation,
                spec_version=spec.version,
            )
        cells.append(ExperimentConfig(
            benchmark=bench,
            vm=vm,
            platform=platform,
            collector=collector,
            heap_mb=heap,
            seed=seed,
            input_scale=input_scale,
            warmup=spec.warmup,
            repetitions=spec.repetitions,
            fan_enabled=spec.fan_enabled,
            n_slices=spec.n_slices,
            daq_period_s=daq_period,
            dvfs_freq_scale=dvfs,
            overrides=spec.overrides,
            hpm_period_s=hpm_period,
            hpm_rotation=hpm_rotation,
        ))
    if not cells:
        raise ConfigurationError(
            "campaign expands to zero runnable cells (every "
            "VM/collector combination was unsupported)"
        )
    return cells
