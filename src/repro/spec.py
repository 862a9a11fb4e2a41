"""Declarative, hashable scenario descriptions.

A :class:`ScenarioSpec` is the single source of truth for *what to
simulate*: experiment axes (benchmarks, VMs, platforms, collectors,
heaps, seeds, input scales, DAQ periods, DVFS points), run parameters
(warm-up, repetitions, fan, slices, seed derivation), and hardware
constant overrides.  Every layer builds from it:

* the CLI loads specs from TOML/JSON files (``repro run --spec``,
  ``repro campaign --spec``, ``repro spec validate|show|hash``) and the
  flag-based path is a thin adapter that builds the same spec
  (:meth:`ScenarioSpec.for_experiment`), so both paths are provably
  identical;
* :meth:`ScenarioSpec.cells` / :meth:`experiment_config` expand it
  into :class:`~repro.core.experiment.ExperimentConfig` cells, and
  :class:`~repro.campaign.CampaignRunner` runs it directly;
* :func:`build_platform` / :func:`build_vm` construct the simulated
  hardware and VM for a cell through the component registries.

Specs are validated against the registries
(:meth:`ScenarioSpec.validate`), canonically serialized
(:meth:`canonical_json`), and SHA-256 hashed (:meth:`spec_hash`).  The
same canonicalization underlies the campaign cache key
(:func:`canonical_experiment_dict`), so the spec hash and the on-disk
cell keys are two views of one identity.

TOML schema (every key optional except one benchmark axis)::

    version = 2
    name = "heap-ladder"
    description = "GenCopy vs SemiSpace over the P6 heap ladder"

    [axes]
    benchmarks = ["_202_jess", "_209_db"]
    vms = ["jikes"]
    platforms = ["p6"]
    collectors = ["SemiSpace", "GenCopy"]   # "default" = VM default
    heap_mbs = [32, 48, 64]
    seeds = [42]
    input_scales = [1.0]
    daq_periods_s = [40e-6]
    dvfs_freq_scales = ["default"]          # "default" = no DVFS pin
    hpm_periods_s = ["default"]             # "default" = platform period
    hpm_rotations = ["default"]             # or presets: "xscale-pairs",
                                            # "round-robin", "resident"

    [run]
    warmup = true
    repetitions = 1
    fan_enabled = true
    n_slices = 160
    derive_seeds = false

    [overrides]                 # hardware constants, applied per cell
    clock_scale = 0.8
    hpm_period_s = 2e-3

Singular spellings (``benchmark = "_202_jess"``, ``heap_mb = 64``) are
accepted for every axis and normalized to one-element tuples.
"""

import hashlib
import json
from dataclasses import dataclass, fields
from pathlib import Path

from repro import registry
from repro.campaign.grid import expand_grid
from repro.errors import ConfigurationError, SpecValidationError
from repro.hardware.platform import (
    make_platform,
    override_problems,
    validate_overrides,
)
from repro.jvm.vm import make_vm
from repro.measurement.multiplexing import resolve_rotation
from repro.units import DAQ_SAMPLE_PERIOD_S

#: Current scenario schema version.  Version 1 keeps the legacy
#: derived-seed identity (see
#: :func:`repro.campaign.grid.derive_cell_seed`); version 2 hashes the
#: full cell identity.
SPEC_VERSION = 2

def _coerce_rotation(value):
    """Canonicalize one rotation-axis element.

    Delegates to
    :func:`repro.measurement.multiplexing.resolve_rotation` but raises
    ``ValueError`` so the axis-coercion loop reports it as a malformed
    value like any other axis."""
    from repro.errors import MeasurementError

    try:
        return resolve_rotation(value)
    except MeasurementError as exc:
        raise ValueError(str(exc)) from None


#: Axis fields, their singular spellings, and element coercions.
_AXES = {
    "benchmarks": ("benchmark", str),
    "vms": ("vm", str),
    "platforms": ("platform", str),
    "collectors": ("collector", lambda v: v),
    "heap_mbs": ("heap_mb", int),
    "seeds": ("seed", int),
    "input_scales": ("input_scale", float),
    "daq_periods_s": ("daq_period_s", float),
    "dvfs_freq_scales": ("dvfs_freq_scale", lambda v: v),
    "hpm_periods_s": ("hpm_period_s", float),
    "hpm_rotations": ("hpm_rotation", _coerce_rotation),
}

#: Axes added after the v2 spec schema shipped, with the defaults under
#: which they are omitted from :meth:`ScenarioSpec.canonical_dict` —
#: specs that don't sweep them keep their historical hashes (the replay
#: goldens pin those), exactly like :data:`_POST_V1_CONFIG_DEFAULTS`
#: does for cache keys.
_POST_V2_AXIS_DEFAULTS = {
    "hpm_periods_s": (None,),
    "hpm_rotations": (None,),
}

#: Scalar run-parameter fields.
_RUN_FIELDS = ("warmup", "repetitions", "fan_enabled", "n_slices",
               "derive_seeds")


def _sentinel_none(value):
    """Map the TOML-friendly spellings of "no value" to ``None``."""
    if isinstance(value, str) and value.lower() in ("default", "none"):
        return None
    return value


@dataclass(frozen=True)
class ScenarioSpec:
    """One validated, hashable description of a result matrix."""

    benchmarks: tuple
    name: str = ""
    description: str = ""
    version: int = SPEC_VERSION
    vms: tuple = ("jikes",)
    platforms: tuple = ("p6",)
    collectors: tuple = (None,)
    heap_mbs: tuple = (64,)
    seeds: tuple = (42,)
    input_scales: tuple = (1.0,)
    daq_periods_s: tuple = (DAQ_SAMPLE_PERIOD_S,)
    dvfs_freq_scales: tuple = (None,)
    #: Measurement-side axes (``None`` = platform default / single-pass
    #: sampler): excluded from the sim-key, so sweeping them shares one
    #: recorded artifact per simulation identity.
    hpm_periods_s: tuple = (None,)
    hpm_rotations: tuple = (None,)
    warmup: bool = True
    repetitions: int = 1
    fan_enabled: bool = True
    n_slices: int = 160
    derive_seeds: bool = False
    overrides: tuple = ()

    def __post_init__(self):
        problems = []
        for axis, (_, coerce) in _AXES.items():
            value = getattr(self, axis)
            if isinstance(value, (str, int, float)) or value is None:
                value = (value,)
            value = tuple(
                _sentinel_none(v) if v is None or isinstance(v, str)
                else v
                for v in value
            )
            try:
                value = tuple(
                    v if v is None else coerce(v) for v in value
                )
            except (TypeError, ValueError):
                problems.append(
                    f"{axis} has a malformed value in "
                    f"{tuple(value)!r}"
                )
                continue
            if not value:
                problems.append(f"{axis} cannot be empty")
                continue
            object.__setattr__(self, axis, value)
        bad_overrides = override_problems(self.overrides)
        if bad_overrides:
            problems.extend(bad_overrides)
        else:
            object.__setattr__(
                self, "overrides", validate_overrides(self.overrides)
            )
        if self.version not in (1, 2):
            problems.append(
                f"unknown spec version {self.version!r} (supported: 1, 2)"
            )
        if problems:
            raise SpecValidationError(problems)

    # -- construction --------------------------------------------------

    @classmethod
    def for_experiment(cls, benchmark, vm="jikes", platform="p6",
                       collector=None, heap_mb=64, seed=42,
                       input_scale=1.0, daq_period_s=DAQ_SAMPLE_PERIOD_S,
                       dvfs_freq_scale=None, hpm_period_s=None,
                       hpm_rotation=None, warmup=True, repetitions=1,
                       fan_enabled=True, n_slices=160, overrides=(),
                       name=""):
        """Single-cell spec — the adapter the CLI flag path goes
        through, so flags and spec files drive identical machinery."""
        return cls(
            benchmarks=(benchmark,), name=name, vms=(vm,),
            platforms=(platform,), collectors=(collector,),
            heap_mbs=(heap_mb,), seeds=(seed,),
            input_scales=(input_scale,),
            daq_periods_s=(daq_period_s,),
            dvfs_freq_scales=(dvfs_freq_scale,),
            hpm_periods_s=(hpm_period_s,),
            hpm_rotations=(hpm_rotation,),
            warmup=warmup, repetitions=repetitions,
            fan_enabled=fan_enabled, n_slices=n_slices,
            overrides=overrides,
        )

    @classmethod
    def from_dict(cls, data, source=""):
        """Build a spec from a parsed TOML/JSON document.

        Accepts the sectioned schema (``[axes]``/``[run]``/
        ``[overrides]``) and flat top-level keys; every axis also
        accepts its singular spelling.  Unknown keys are errors — a
        typo in a spec file must not silently become a default.
        """
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"scenario spec must be a table/object, got "
                f"{type(data).__name__}{f' in {source}' if source else ''}"
            )
        problems = []
        flat = {}
        sections = dict(data)
        schema = sections.pop("schema", "repro-scenario")
        if schema != "repro-scenario":
            raise ConfigurationError(
                f"not a scenario spec: schema {schema!r}"
                f"{f' in {source}' if source else ''}"
            )
        for section in ("axes", "run"):
            content = sections.pop(section, {})
            if not isinstance(content, dict):
                problems.append(
                    f"[{section}] must be a table, got {content!r}"
                )
                continue
            flat.update(content)
        overrides = sections.pop("overrides", {})
        flat.update(sections)

        singular_to_axis = {
            singular: axis for axis, (singular, _) in _AXES.items()
        }
        kwargs = {"overrides": overrides}
        known = (
            set(_AXES) | set(singular_to_axis) | set(_RUN_FIELDS)
            | {"version", "name", "description"}
        )
        unknown = set(flat) - known
        if unknown:
            problems.append(
                f"unknown scenario keys {sorted(unknown)}; known keys: "
                f"{sorted(known)}"
            )
        for key, value in flat.items():
            if key in unknown:
                continue
            axis = singular_to_axis.get(key)
            if axis is not None:
                if axis in kwargs:
                    problems.append(f"both {key!r} and {axis!r} given")
                    continue
                kwargs[axis] = (value,)
            elif key in _AXES:
                if key in kwargs:
                    problems.append(
                        f"both {_AXES[key][0]!r} and {key!r} given"
                    )
                    continue
                kwargs[key] = tuple(value) if isinstance(
                    value, (list, tuple)
                ) else (value,)
            else:
                kwargs[key] = value
        if "benchmarks" not in kwargs:
            problems.append("scenario spec names no benchmarks")
        if problems:
            raise SpecValidationError(problems, context=source)
        try:
            return cls(**kwargs)
        except SpecValidationError as exc:
            if source and not exc.context:
                raise SpecValidationError(
                    exc.problems, context=source
                ) from None
            raise

    @classmethod
    def from_bytes(cls, raw, fmt=None, source=""):
        """Parse a spec from raw TOML/JSON bytes (or text).

        This is the experiment service's body-parsing entry point
        (``POST /v1/jobs``) as well as the file loader's core.  *fmt*
        is ``"toml"`` or ``"json"``; when ``None`` the format is
        sniffed — bodies whose first non-whitespace byte is ``{`` parse
        as JSON, everything else as TOML.
        """
        if isinstance(raw, str):
            raw = raw.encode("utf-8")
        if fmt is None:
            head = raw.lstrip()[:1]
            fmt = "json" if head in (b"{", b"[") else "toml"
        fmt = fmt.lower()
        where = f"{source}: " if source else ""
        if fmt == "toml":
            import tomllib

            try:
                data = tomllib.loads(raw.decode("utf-8"))
            except (tomllib.TOMLDecodeError, UnicodeDecodeError) as exc:
                raise ConfigurationError(
                    f"{where}invalid TOML: {exc}"
                ) from None
        elif fmt == "json":
            try:
                data = json.loads(raw)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ConfigurationError(
                    f"{where}invalid JSON: {exc}"
                ) from None
        else:
            raise ConfigurationError(
                f"{where}unsupported spec format {fmt!r} "
                "(use toml or json)"
            )
        return cls.from_dict(data, source=source)

    @classmethod
    def from_file(cls, path):
        """Load a spec from a ``.toml`` or ``.json`` file."""
        path = Path(path)
        try:
            raw = path.read_bytes()
        except OSError as exc:
            raise ConfigurationError(f"cannot read spec: {exc}") from None
        suffix = path.suffix.lower()
        if suffix not in (".toml", ".json"):
            raise ConfigurationError(
                f"{path}: unsupported spec format {suffix!r} "
                "(use .toml or .json)"
            )
        return cls.from_bytes(raw, fmt=suffix[1:], source=str(path))

    # -- validation ----------------------------------------------------

    def problems(self):
        """Registry and range checks; returns a list of problem strings
        (empty when the spec is valid)."""
        problems = []
        for bench in self.benchmarks:
            if bench not in registry.WORKLOADS:
                problems.append(f"unknown benchmark {bench!r}")
        for vm in self.vms:
            if vm not in registry.VMS:
                problems.append(f"unknown vm {vm!r}")
        for platform in self.platforms:
            if platform not in registry.PLATFORMS:
                problems.append(f"unknown platform {platform!r}")
        known_vms = [vm for vm in self.vms if vm in registry.VMS]
        for collector in self.collectors:
            if collector is None:
                continue
            if collector not in registry.COLLECTORS:
                problems.append(f"unknown collector {collector!r}")
            elif known_vms and not any(
                registry.collector_supported(vm, collector)
                for vm in known_vms
            ):
                problems.append(
                    f"collector {collector!r} is implemented by none "
                    f"of the spec's VMs {list(self.vms)}"
                )
        for heap in self.heap_mbs:
            if heap <= 0:
                problems.append(f"heap_mb {heap} must be positive")
        for seed in self.seeds:
            if seed < 0:
                problems.append(f"seed {seed} must be >= 0")
        for scale in self.input_scales:
            if scale <= 0:
                problems.append(
                    f"input_scale {scale} must be positive"
                )
        for period in self.daq_periods_s:
            if period <= 0:
                problems.append(
                    f"daq_period_s {period} must be positive"
                )
        for dvfs in self.dvfs_freq_scales:
            if dvfs is not None and not (0.1 < dvfs <= 1.0):
                problems.append(
                    f"dvfs_freq_scale {dvfs} must be in (0.1, 1]"
                )
        for period in self.hpm_periods_s:
            if period is not None and period <= 0:
                problems.append(
                    f"hpm_period_s {period} must be positive"
                )
        if self.repetitions < 1:
            problems.append("repetitions must be >= 1")
        if self.n_slices < 1:
            problems.append("n_slices must be >= 1")
        if not problems:
            try:
                self.cells()
            except ConfigurationError as exc:
                problems.append(str(exc))
        return problems

    def validate(self):
        """Raise :class:`SpecValidationError` listing every problem."""
        problems = self.problems()
        if problems:
            raise SpecValidationError(
                problems,
                context=("invalid scenario"
                         + (f" {self.name!r}" if self.name else "")),
            )
        return self

    # -- canonical form and hashing ------------------------------------

    def canonical_dict(self):
        """The spec's identity as a plain dict.

        Excludes ``name`` and ``description`` (labels, not identity)
        and normalizes overrides to a mapping, so two specs that
        simulate identically canonicalize identically.
        """
        return {
            "schema": "repro-scenario",
            "version": self.version,
            "axes": {
                axis: list(getattr(self, axis)) for axis in _AXES
                # Post-v2 axes at their defaults are omitted so specs
                # that predate them keep their pinned hashes.
                if _POST_V2_AXIS_DEFAULTS.get(axis)
                != getattr(self, axis)
            },
            "run": {
                field: getattr(self, field) for field in _RUN_FIELDS
            },
            "overrides": dict(self.overrides),
        }

    def canonical_json(self):
        """Deterministic JSON encoding of :meth:`canonical_dict`."""
        return json.dumps(self.canonical_dict(), sort_keys=True,
                          separators=(",", ":"))

    def spec_hash(self):
        """SHA-256 over :meth:`canonical_json` — stable across
        processes and platforms; feeds campaign reports and cache
        bookkeeping."""
        return hashlib.sha256(
            self.canonical_json().encode("utf-8")
        ).hexdigest()

    def to_dict(self):
        """Round-trippable plain dict (includes the label fields)."""
        data = self.canonical_dict()
        if self.name:
            data["name"] = self.name
        if self.description:
            data["description"] = self.description
        return data

    # -- builders ------------------------------------------------------

    def campaign_config(self):
        """The spec itself: :class:`~repro.campaign.CampaignRunner`
        runs a spec directly.  Kept only because ``perfbench/harness.py``
        still calls it."""
        return self

    def cells(self):
        """Expanded :class:`ExperimentConfig` cells, in grid order."""
        return expand_grid(self)

    @property
    def is_single_cell(self):
        return all(
            len(getattr(self, axis)) == 1 for axis in _AXES
        )

    def experiment_config(self):
        """The spec's single cell as an :class:`ExperimentConfig`.

        Valid only for single-cell specs (every axis has exactly one
        value); goes through the same grid expansion as campaigns, so
        a flag-built run and a one-cell campaign are the same cell.
        """
        cells = self.cells()
        if len(cells) != 1:
            raise ConfigurationError(
                f"spec expands to {len(cells)} cells; "
                "`experiment_config` needs exactly one (use "
                "`cells` for matrices)"
            )
        return cells[0]


# -- cell builders (registry-backed) ----------------------------------

def build_platform(config):
    """Fresh :class:`~repro.hardware.platform.Platform` for a cell."""
    return make_platform(
        config.platform,
        fan_enabled=config.fan_enabled,
        overrides=getattr(config, "overrides", ()),
    )


def build_vm(config, platform=None, obs=None):
    """Fresh VM for a cell (building the platform too if not given)."""
    if platform is None:
        platform = build_platform(config)
    return make_vm(
        config.vm,
        platform,
        collector=config.collector,
        heap_mb=config.heap_mb,
        seed=config.seed,
        n_slices=config.n_slices,
        dvfs_freq_scale=config.dvfs_freq_scale,
        obs=obs,
    )


# -- experiment-config canonicalization (cache keys) -------------------

#: Fields added after the v1 cache schema, with the default values
#: under which they are omitted from the canonical dict — so configs
#: that don't use them keep their historical cache keys byte-for-byte.
_POST_V1_CONFIG_DEFAULTS = {
    "overrides": (),
    "hpm_period_s": None,
    "hpm_rotation": None,
}


def canonical_experiment_dict(config):
    """Canonical plain-dict identity of an :class:`ExperimentConfig`.

    This is the campaign cache's key material: every field that affects
    the simulation is present; post-v1 fields are dropped when they
    hold their defaults so unchanged configs keep their existing keys.
    The config holds only scalars and tuples, so reading its fields
    gives the same JSON as ``dataclasses.asdict`` without the deep
    copy.
    """
    data = {f.name: getattr(config, f.name) for f in fields(config)}
    for key, default in _POST_V1_CONFIG_DEFAULTS.items():
        if key not in data:
            continue
        value = data[key]
        # Tuple-valued fields normalize falsy spellings (None, (),
        # empty list) to their empty-tuple default; scalar fields
        # compare plainly so a legitimate falsy *value* (0) is never
        # conflated with an unset None.
        if isinstance(default, tuple):
            matches = tuple(value or ()) == default
        else:
            matches = value == default
        if matches:
            del data[key]
    return data


# -- simulation vs measurement axis classification ---------------------

#: :class:`~repro.core.experiment.ExperimentConfig` fields that shape
#: the simulated execution itself (the VM run and its ground-truth
#: timeline).  Two configs that agree on these produce bit-identical
#: timelines and port histories, whatever their measurement knobs say.
#: ``n_slices`` is a simulation field — it sets how many workload
#: slices the generator emits, so it changes the timeline (the issue
#: text groups it with measurement knobs, but excluding it would let
#: two different executions share one artifact).  ``overrides`` is
#: classified as simulation wholesale: most supported overrides alter
#: the hardware model, and the one that does not (``hpm_period_s``)
#: merely makes the key conservative, never wrong.
SIMULATION_CONFIG_FIELDS = (
    "benchmark", "vm", "platform", "collector", "heap_mb", "seed",
    "input_scale", "warmup", "repetitions", "fan_enabled", "n_slices",
    "dvfs_freq_scale", "overrides",
)

#: Fields that only configure how the finished run is *observed*.
#: Changing them re-runs the measurement pass over the same artifact.
MEASUREMENT_CONFIG_FIELDS = (
    "daq_period_s", "hpm_period_s", "hpm_rotation",
)

#: :class:`ScenarioSpec` axes by phase, for docs and CLI surfacing.
SIMULATION_AXES = (
    "benchmarks", "vms", "platforms", "collectors", "heap_mbs",
    "seeds", "input_scales", "dvfs_freq_scales",
)
MEASUREMENT_AXES = ("daq_periods_s", "hpm_periods_s", "hpm_rotations")


def canonical_sim_dict(config):
    """Simulation-only subset of :func:`canonical_experiment_dict`.

    This is the artifact cache's key material: every field that affects
    the simulated execution, none that only affects measurement.  It is
    a *projection* of the full canonical dict (same omission rules for
    post-v1 defaults), so existing full-config cache keys are untouched
    and the two identities can never disagree about a shared field.
    """
    data = canonical_experiment_dict(config)
    return {
        key: value for key, value in data.items()
        if key not in MEASUREMENT_CONFIG_FIELDS
    }


def strict_canonical_json(obj, what="config"):
    """Deterministic JSON for hash material — no silent coercions.

    Cache keys and provenance envelopes are load-bearing identities: a
    value that only serializes through ``default=str`` would be
    type-erased into whatever its ``repr``/``str`` happens to be, a
    hash-stability hazard (two distinct objects can stringify alike,
    and one object's string can change across versions).  Any value
    outside the canonical JSON types therefore raises a
    :class:`~repro.errors.ConfigurationError` naming the offender
    instead of being coerced.
    """
    def reject(value):
        raise ConfigurationError(
            f"{what} value {value!r} of type {type(value).__name__} "
            "is not canonically JSON-serializable (allowed: str, int, "
            "float, bool, None, and lists/dicts of them)"
        )

    return json.dumps(obj, sort_keys=True, default=reject)


__all__ = [
    "MEASUREMENT_AXES",
    "MEASUREMENT_CONFIG_FIELDS",
    "SIMULATION_AXES",
    "SIMULATION_CONFIG_FIELDS",
    "SPEC_VERSION",
    "ScenarioSpec",
    "SpecValidationError",
    "build_platform",
    "build_vm",
    "canonical_experiment_dict",
    "canonical_sim_dict",
    "strict_canonical_json",
]
