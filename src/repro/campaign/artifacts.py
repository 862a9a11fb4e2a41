"""Content-addressed on-disk store of simulation artifacts.

Artifacts are keyed by a stable SHA-256 hash over the *simulation-only*
subset of :class:`~repro.core.experiment.ExperimentConfig`
(:func:`repro.spec.canonical_sim_dict`) plus the package and artifact
schema versions: two cells that differ only in measurement knobs (DAQ
period today; HPM period/rotation as they grow axes) share one key and
therefore one recorded execution, while every simulation axis change
produces a new one.

Like the campaign cell cache, the store is a
:class:`~repro.store.ContentStore` of gzip pickles (atomic writes,
``.prov`` provenance sidecars, corruption- and staleness-tolerant
reads, LRU pruning), so ``repro cache stats|prune|lineage`` drives both
stores with the same machinery.
"""

import hashlib
import os
import pickle
from pathlib import Path

from repro.provenance import build_envelope
from repro.store import GZIP_PICKLE, ContentStore, StoreAdapter

#: Bump when stored artifact payloads become incompatible with current
#: code (the payload schema tag guards the layout; this version guards
#: the *numeric* identity of what a simulation produces).
ARTIFACT_VERSION = 1

#: Environment variable overriding the default artifact store root.
ARTIFACT_DIR_ENV = "REPRO_ARTIFACT_DIR"


def default_artifact_dir():
    """The store root: ``$REPRO_ARTIFACT_DIR`` or
    ``~/.cache/repro/artifacts``."""
    env = os.environ.get(ARTIFACT_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "artifacts"


#: Where :func:`sim_key` memoizes a frozen config's key, in the
#: config's own ``__dict__``.
_MEMO = "_sim_key"


def sim_key(config):
    """Stable content hash of a config's simulation identity.

    Covers :func:`repro.spec.canonical_sim_dict` (every field that
    shapes the simulated execution, none that only shapes measurement)
    plus the package version and artifact schema version.  Strict
    serialization, same as the cell cache key: a value outside the
    canonical JSON types raises instead of being type-erased.

    A frozen dataclass config keeps its key in its own ``__dict__``
    (pickled with it), so a campaign cell pays for one key however
    often it is grouped and checked.  The memo goes by identity, never
    by equality: ``heap_mb=64`` and ``heap_mb=64.0`` compare equal but
    serialize, and so hash, differently.
    """
    params = getattr(type(config), "__dataclass_params__", None)
    frozen = params is not None and params.frozen
    memo = getattr(config, "__dict__", {}) if frozen else {}
    key = memo.get(_MEMO)
    if key is None:
        from repro import __version__
        from repro.spec import canonical_sim_dict, strict_canonical_json

        payload = {
            "sim": canonical_sim_dict(config),
            "repro_version": __version__,
            "artifact_version": ARTIFACT_VERSION,
        }
        canonical = strict_canonical_json(payload,
                                          what="simulation config")
        key = memo[_MEMO] = hashlib.sha256(
            canonical.encode("utf-8")).hexdigest()
    return key


class ArtifactStore(StoreAdapter):
    """Directory-backed map from sim-keys to simulation artifacts: a
    :class:`~repro.store.ContentStore` of gzip-pickled
    :meth:`~repro.core.simulation.SimulationArtifact.to_payload` dicts
    keyed by :func:`sim_key`."""

    def __init__(self, root=None):
        super().__init__(ContentStore(
            root if root is not None else default_artifact_dir(),
            ".pkl.gz", GZIP_PICKLE,
        ))

    def path_for_key(self, key):
        return self.store.path_for(key)

    def path_for(self, config):
        return self.path_for_key(sim_key(config))

    def get(self, config):
        """Stored artifact for *config*'s sim-key, or ``None``.

        Unreadable entries count as misses and are evicted — a damaged
        or stale artifact must trigger a re-simulation, never crash a
        campaign.  An artifact whose recorded ``sim_key`` disagrees
        with its filename key is treated the same way (a moved or
        hand-edited store must not serve wrong executions).
        """
        key = sim_key(config)
        return self.get_key(key)

    def get_key(self, key):
        """Stored artifact under *key*, or ``None`` (evicts bad entries)."""
        from repro.core.simulation import SimulationArtifact

        def decode(payload):
            artifact = SimulationArtifact.from_payload(payload)
            if artifact.sim_key != key:
                raise pickle.UnpicklingError(
                    f"artifact key mismatch: stored {artifact.sim_key}"
                )
            return artifact

        return self.store.get(key, decode)

    def put(self, config, artifact):
        """Store *artifact* under *config*'s sim-key atomically, with a
        provenance envelope recording the producing code."""
        key = sim_key(config)
        return self.store.put(key, artifact.to_payload(), build_envelope(
            "artifact", key,
            platform=artifact.platform_name,
            benchmark=artifact.benchmark,
            n_segments=artifact.n_segments,
        ))

    def __contains__(self, config):
        return sim_key(config) in self.store


__all__ = [
    "ARTIFACT_DIR_ENV",
    "ARTIFACT_VERSION",
    "ArtifactStore",
    "default_artifact_dir",
    "sim_key",
]
