"""Content-addressed on-disk cache of per-cell results.

Cells are keyed by a stable SHA-256 hash over the *complete*
:class:`~repro.core.experiment.ExperimentConfig` plus a cache schema
version: two configs that would simulate identically share a key, and
any config field that affects the simulation changes it.  Entries live
in a :class:`~repro.store.ContentStore`, which writes them atomically,
so concurrent campaign workers and interrupted runs can never leave a
half-written cell behind.  Pruning is on demand: ``repro cache prune``
(nothing prunes the cache on its own, the service included).

Invalidation rules: bump :data:`CACHE_VERSION` whenever the simulator's
numeric behavior changes (the package version is also part of the key),
or simply delete the cache directory — every entry is derivable by
re-running its cell.
"""

import hashlib
import os
from pathlib import Path

from repro.provenance import build_envelope
from repro.store import GZIP_PICKLE, ContentStore, StoreAdapter

#: Bump when cached payloads become incompatible with current code.
CACHE_VERSION = 2

#: Environment variable overriding the default cache root.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir():
    """The cache root: ``$REPRO_CACHE_DIR`` or
    ``~/.cache/repro/campaign``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "campaign"


def config_key(config):
    """Stable content hash of an :class:`ExperimentConfig`.

    The key covers every config field (sorted, canonical JSON) plus the
    package version and cache schema version, so simulator upgrades
    never resurface stale cells.  Canonicalization is shared with the
    scenario layer (:func:`repro.spec.canonical_experiment_dict`):
    fields introduced after the v1 schema are omitted while they hold
    their defaults, so configs predating them keep their historical
    keys, and a scenario spec's hash and its cells' cache keys derive
    from the same identity.

    Keys are load-bearing (provenance envelopes record them), so the
    serialization is strict: a config value outside the canonical JSON
    types raises a clear error instead of being silently type-erased
    through ``str()`` — two distinct objects must never share a key
    because their string forms happened to collide.
    """
    from repro import __version__
    from repro.spec import canonical_experiment_dict, strict_canonical_json

    payload = {
        "config": canonical_experiment_dict(config),
        "repro_version": __version__,
        "cache_version": CACHE_VERSION,
    }
    canonical = strict_canonical_json(payload, what="experiment config")
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResultCache(StoreAdapter):
    """Directory-backed map from experiment configs to cell payloads:
    a :class:`~repro.store.ContentStore` of gzip pickles keyed by
    :func:`config_key`."""

    def __init__(self, root=None):
        super().__init__(ContentStore(
            root if root is not None else default_cache_dir(),
            ".pkl.gz", GZIP_PICKLE,
        ))

    def path_for(self, config):
        return self.store.path_for(config_key(config))

    def get(self, config):
        """Cached payload for *config*, or ``None``.

        Unreadable entries count as misses and are removed so the
        campaign re-runs the cell instead of failing — whether the file
        is corrupt (truncated gzip, bad pickle stream) or merely stale
        (written by an older code version whose classes no longer
        unpickle: ``AttributeError``/``ModuleNotFoundError`` and
        friends).  A thousand-cell campaign must never crash on one
        bad cache file.
        """
        return self.store.get(config_key(config))

    def put(self, config, payload):
        """Store *payload* for *config* atomically, with a provenance
        envelope beside it recording which code produced the bytes
        (package version, cache schema, seed derivation, code digest —
        see :mod:`repro.provenance`)."""
        key = config_key(config)
        return self.store.put(key, payload, build_envelope("cell", key))

    def __contains__(self, config):
        return config_key(config) in self.store
