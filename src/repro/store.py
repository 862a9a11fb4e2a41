"""One content-addressed store on disk, behind every result cache.

The campaign cell cache, the simulation artifact store and the serve
layer's result store all keep derived results the same way; this module
is that way, written once.  A :class:`ContentStore` maps a hex content
hash (the *key*) to one entry file:

* **Layout** — ``<root>/[shard-NNN/]<key[:2]>/<key><suffix>``.  The
  shard directory appears only with ``shards > 1`` and is a consistent
  hash of the key's leading hex digits, so every instance configured
  with the same shard count finds the same entries.
* **Writes** are atomic (:func:`atomic_write`: temp file in the entry's
  directory, then ``os.replace``), so concurrent writers leave exactly
  one intact entry and readers never see a torn one.  A provenance
  envelope (:mod:`repro.provenance`) may ride beside the entry as
  ``<entry>.prov``.
* **Reads** touch the entry's mtime, so LRU pruning ranks reads as use.
  An entry that fails to decode is evicted (with its envelope) and the
  read is a miss: a damaged or stale entry must trigger a recompute,
  never a crash.
* **Bookkeeping** — ``len``, ``stats``, ``prune``, ``prune_stale``,
  ``lineage`` and ``clear`` all see the same recursive, suffix-based
  scan (:func:`scan_entries`), so temp files, leases, spools and
  sidecars are never counted or picked as LRU victims.

A *codec* turns values into entry bytes and back: :data:`GZIP_PICKLE`
(default gzip level, highest pickle protocol) or :data:`RAW_BYTES`.
The typed stores (:class:`~repro.campaign.cache.ResultCache`,
:class:`~repro.campaign.artifacts.ArtifactStore`,
:class:`~repro.serve.store.ResultStore`) are :class:`StoreAdapter`
subclasses that only derive keys and encode values.
"""

import gzip
import os
import pickle
import tempfile
import time
from collections import namedtuple
from functools import partial
from pathlib import Path

from repro import provenance

#: Orphaned scratch files younger than this are presumed to belong to a
#: live writer (or holder) and are left alone by :func:`sweep_orphans`.
DEFAULT_ORPHAN_AGE_S = 3600.0

#: Decode errors that mean "the file itself is damaged", as opposed to
#: "the bytes are fine but were written by code whose classes no longer
#: load here" (renamed/moved attributes raise ``AttributeError`` or
#: ``ModuleNotFoundError``, schema growth can raise ``TypeError`` or
#: ``KeyError``...).  Both evict and count as a miss; only the latter
#: counts in :attr:`ContentStore.stale_evictions`.
CORRUPTION_ERRORS = (OSError, EOFError, pickle.UnpicklingError)

#: How entry values become bytes: ``load(handle)`` reads a value from a
#: binary file, ``dump(value, handle)`` writes one.
Codec = namedtuple("Codec", "load dump")


def _gzip_pickle_load(handle):
    with gzip.open(handle, "rb") as stream:
        return pickle.load(stream)


def _gzip_pickle_dump(value, handle):
    with gzip.open(handle, "wb") as stream:
        pickle.dump(value, stream, protocol=pickle.HIGHEST_PROTOCOL)


GZIP_PICKLE = Codec(_gzip_pickle_load, _gzip_pickle_dump)
RAW_BYTES = Codec(lambda handle: handle.read(),
                  lambda value, handle: handle.write(value))


def atomic_write(path, write):
    """Create *path* by calling ``write(handle)`` on a temp file beside
    it, then renaming it into place; returns the path.

    The temp file is removed if anything fails, so a failed write leaves
    neither a torn entry nor a stray; only a crash mid-write leaves a
    ``.tmp`` for :func:`sweep_orphans`.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            write(handle)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def scan_entries(root, suffixes):
    """All real entry files under *root* as ``(path, size, mtime)``.

    Only files matching *suffixes* count: temp files, leases, and any
    other stray bookkeeping are invisible to size accounting and LRU
    pruning.  Entries that vanish mid-scan (a concurrent prune or
    clear) are skipped rather than raised.  The walk is recursive so
    sharded layouts (``shard-NNN/ab/<hash>.json``) scan the same way as
    flat ones (``ab/<hash>.json``).
    """
    root = Path(root)
    if not root.exists():
        return []
    out = []
    for suffix in suffixes:
        for path in root.rglob(f"*{suffix}"):
            try:
                stat = path.stat()
            except OSError:
                continue
            if path.is_file() and not path.name.endswith(".tmp"):
                out.append((path, stat.st_size, stat.st_mtime))
    return out


def sweep_orphans(root, max_age_s=DEFAULT_ORPHAN_AGE_S,
                  patterns=("*.tmp",), entry_for=None):
    """Delete scratch files matching *patterns* older than *max_age_s*.

    A writer that crashes mid-write leaves a ``.tmp`` file behind
    forever — it is never an entry, so no cache operation will ever
    remove it.  The sweep is age-gated: files younger than *max_age_s*
    may belong to a writer that is mid-write right now and are left
    alone.  With *entry_for* (file -> the entry it belongs to), a file
    whose entry still exists is kept whatever its age: that is how
    sidecars (envelopes, trace spools) outlive only their entry.
    Returns ``(n_removed, bytes_removed)``.
    """
    root = Path(root)
    if not root.exists():
        return 0, 0
    cutoff = time.time() - max_age_s
    n_removed = 0
    bytes_removed = 0
    for pattern in patterns:
        for path in root.rglob(pattern):
            try:
                stat = path.stat()
                if not path.is_file() or stat.st_mtime > cutoff:
                    continue
                if entry_for is not None and entry_for(path).exists():
                    continue
                path.unlink()
            except OSError:
                continue
            n_removed += 1
            bytes_removed += stat.st_size
    return n_removed, bytes_removed


def prune_lru(store, max_bytes):
    """Delete *store*'s least-recently-used entries until it fits
    *max_bytes*.

    Recency is mtime: :meth:`ContentStore.get` touches entries it
    serves, so "least recently used" really means least recently *read
    or written*, not just oldest.  Returns ``(n_removed,
    bytes_removed)``.
    """
    if max_bytes < 0:
        raise ValueError("max_bytes cannot be negative")
    entries = store.entries()
    total = sum(size for _, size, _ in entries)
    n_removed = 0
    bytes_removed = 0
    # Oldest first; stop as soon as the directory fits.
    for path, size, _ in sorted(entries, key=lambda e: e[2]):
        if total <= max_bytes:
            break
        if not store.remove(path):
            continue
        total -= size
        n_removed += 1
        bytes_removed += size
    return n_removed, bytes_removed


class ContentStore:
    """Directory-backed map from hex keys to entries of one codec."""

    def __init__(self, root, suffix, codec, shards=1):
        if int(shards) < 1:
            raise ValueError("shards must be >= 1")
        self.root = Path(root)
        self.suffix = suffix
        self.codec = codec
        self.shards = int(shards)
        self.hits = 0
        self.misses = 0
        #: Entries evicted because decoding raised something other
        #: than :data:`CORRUPTION_ERRORS` (a stale entry written by
        #: other code), not plain file corruption.
        self.stale_evictions = 0

    # -- paths ----------------------------------------------------------

    def shard_for(self, key):
        """The shard index for *key*: a consistent hash over the key's
        leading hex digits, identical on every instance."""
        return int(key[:8], 16) % self.shards

    def path_for(self, key):
        base = self.root
        if self.shards > 1:
            base = base / f"shard-{self.shard_for(key):03d}"
        return base / key[:2] / f"{key}{self.suffix}"

    # -- entries --------------------------------------------------------

    def get(self, key, decode=None):
        """The value under *key*, or ``None`` on a miss.

        *decode* (value -> value) runs on the loaded value; anything it
        or the codec raises evicts the entry, exactly like corruption.
        """
        path = self.path_for(key)
        try:
            handle = open(path, "rb")
        except OSError:
            self.misses += 1
            return None
        try:
            with handle:
                value = self.codec.load(handle)
            if decode is not None:
                value = decode(value)
        except Exception as exc:  # noqa: BLE001 - anything a load raises
            self.misses += 1
            if not isinstance(exc, CORRUPTION_ERRORS):
                self.stale_evictions += 1
            self.remove(path)
            return None
        self.hits += 1
        try:
            os.utime(path)  # mark recently-used for LRU pruning
        except OSError:
            pass
        return value

    def put(self, key, value, envelope=None):
        """Store *value* under *key* atomically; returns the path.

        With *envelope* (a dict from
        :func:`repro.provenance.build_envelope`) a provenance sidecar
        is written beside the entry — its own atomic rename, never
        touching the entry bytes.
        """
        path = atomic_write(self.path_for(key),
                            partial(self.codec.dump, value))
        if envelope is not None:
            provenance.write_envelope(path, envelope)
        return path

    def remove(self, path):
        """Delete the entry at *path* and its envelope; ``False`` when
        the entry could not be unlinked (already gone, say)."""
        try:
            path.unlink()
        except OSError:
            return False
        provenance.remove_envelope(path)
        return True

    def __contains__(self, key):
        return self.path_for(key).exists()

    # -- bookkeeping ----------------------------------------------------

    def entries(self):
        """Every entry under the root as ``(path, size, mtime)``."""
        return scan_entries(self.root, (self.suffix,))

    def keys(self):
        """Every key under the root, sorted."""
        return sorted(path.name[:-len(self.suffix)]
                      for path, _, _ in self.entries())

    def __len__(self):
        return len(self.entries())

    @property
    def hit_rate(self):
        """Fraction of lookups served from disk this session."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def total_bytes(self):
        """Bytes on disk across every entry under this root."""
        return sum(size for _, size, _ in self.entries())

    def stats(self):
        """On-disk shape of the store: entry count, bytes, age span."""
        entries = self.entries()
        mtimes = [mtime for _, _, mtime in entries]
        return {
            "root": str(self.root),
            "entries": len(entries),
            "total_bytes": sum(size for _, size, _ in entries),
            "oldest_mtime": min(mtimes) if mtimes else None,
            "newest_mtime": max(mtimes) if mtimes else None,
        }

    def prune(self, max_bytes, orphan_age_s=DEFAULT_ORPHAN_AGE_S):
        """Evict least-recently-used entries until the store fits
        *max_bytes* on disk; returns ``(n_removed, bytes_removed)``.

        Also sweeps aged-out orphan ``.tmp`` files from crashed writers
        (they are not entries, so nothing else ever deletes them) and
        ``.prov`` envelope sidecars whose entry is gone.  Only ``repro
        cache prune`` calls this; nothing prunes on a schedule.
        """
        sweep_orphans(self.root, max_age_s=orphan_age_s)
        removed = prune_lru(self, max_bytes)
        provenance.sweep_orphan_envelopes(self.root, max_age_s=orphan_age_s)
        return removed

    def prune_stale(self):
        """Evict entries written by a different code version (stale or
        missing provenance envelope); returns ``(n_removed,
        bytes_removed)``."""
        return provenance.prune_stale(self)

    def lineage(self):
        """Entries grouped by producing code digest / engine version
        (see :func:`repro.provenance.lineage`)."""
        return provenance.lineage(self)

    def clear(self):
        """Delete every entry (and its envelope); returns the count."""
        return sum(self.remove(path) for path, _, _ in self.entries())


def _shared(name):
    """An attribute of the adapter's :class:`ContentStore`, read and
    written through (the service folds worker counters into its own)."""
    return property(lambda self: getattr(self.store, name),
                    lambda self, value: setattr(self.store, name, value))


class StoreAdapter:
    """A typed store over one :class:`ContentStore`.

    Subclasses turn their domain objects into keys and values; the
    counters and bookkeeping below are the content store's.
    """

    root = _shared("root")
    hits = _shared("hits")
    misses = _shared("misses")
    stale_evictions = _shared("stale_evictions")

    def __init__(self, store):
        self.store = store

    @property
    def hit_rate(self):
        """Fraction of lookups served from disk this session."""
        return self.store.hit_rate

    def keys(self):
        return self.store.keys()

    def __len__(self):
        return len(self.store)

    def total_bytes(self):
        return self.store.total_bytes()

    def stats(self):
        return self.store.stats()

    def prune(self, max_bytes, orphan_age_s=DEFAULT_ORPHAN_AGE_S):
        return self.store.prune(max_bytes, orphan_age_s)

    def prune_stale(self):
        return self.store.prune_stale()

    def lineage(self):
        return self.store.lineage()

    def clear(self):
        return self.store.clear()


__all__ = [
    "CORRUPTION_ERRORS",
    "Codec",
    "ContentStore",
    "DEFAULT_ORPHAN_AGE_S",
    "GZIP_PICKLE",
    "RAW_BYTES",
    "StoreAdapter",
    "atomic_write",
    "prune_lru",
    "scan_entries",
    "sweep_orphans",
]
