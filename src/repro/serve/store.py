"""Job records and the content-addressed result store.

The serving layer keeps two kinds of state:

* :class:`JobStore` — an in-memory, thread-safe table of
  :class:`Job` records keyed by the job id (which *is* the scenario's
  spec hash, so identity is content-addressed end to end).  Jobs move
  ``queued -> running -> done | failed``; a failed job can be
  resubmitted, which resets it to ``queued`` and bumps ``attempts``.
* :class:`ResultStore` — an on-disk, content-addressed map from spec
  hash to the canonical JSON result payload: a
  :class:`~repro.store.ContentStore` of raw bytes, like the campaign
  cell cache and artifact store.  Nothing here prunes it on a
  schedule: ``repro cache prune`` trims it, together with the other
  two stores.

Nothing here knows about HTTP; the server module builds on these.
"""

import json
import os
import threading
import time
from pathlib import Path

from repro.store import (
    DEFAULT_ORPHAN_AGE_S,
    RAW_BYTES,
    ContentStore,
    StoreAdapter,
    sweep_orphans,
)

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

#: States a job can rest in (resubmission is meaningful).
TERMINAL_STATES = (DONE, FAILED)

#: Environment variable overriding the default result-store root.
RESULT_DIR_ENV = "REPRO_RESULT_DIR"


def default_result_dir():
    """The result-store root: ``$REPRO_RESULT_DIR`` or
    ``~/.cache/repro/results``."""
    env = os.environ.get(RESULT_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "results"


class Job:
    """One submitted scenario, tracked through its lifecycle.

    Mutated only while holding the owning :class:`JobStore`'s lock
    (use :meth:`JobStore.update`); reads through :meth:`as_dict` take
    the same lock so clients never see a half-applied transition.
    """

    __slots__ = (
        "id", "spec", "state", "attempts", "error", "created_s",
        "started_s", "finished_s", "wall_s", "n_cells", "n_executed",
        "n_cached", "enqueued_s", "trace_ctx", "spans", "provenance",
    )

    def __init__(self, job_id, spec):
        self.id = job_id
        self.spec = spec
        self.state = QUEUED
        self.attempts = 0
        self.error = None
        self.created_s = time.time()
        self.started_s = None
        self.finished_s = None
        self.wall_s = 0.0
        self.n_cells = len(spec.cells()) if spec is not None else 0
        self.n_executed = 0
        self.n_cached = 0
        # Distributed-tracing state (repro.obs.distributed): only set
        # when the service runs with per-job tracing enabled, so the
        # disabled path carries three Nones and no extra work.
        self.enqueued_s = None
        self.trace_ctx = None
        self.spans = None
        # Summary of the result entry's provenance envelope (set when
        # the job reaches ``done`` and the store entry has one; None
        # for legacy envelope-less entries).
        self.provenance = None

    @property
    def trace_id(self):
        return self.trace_ctx.trace_id if self.trace_ctx else None

    def snapshot(self):
        """Plain-dict view of the job (call via :meth:`JobStore.view`)."""
        return {
            "id": self.id,
            "name": self.spec.name if self.spec is not None else "",
            "state": self.state,
            "attempts": self.attempts,
            "error": self.error,
            "created_s": self.created_s,
            "started_s": self.started_s,
            "finished_s": self.finished_s,
            "wall_s": self.wall_s,
            "n_cells": self.n_cells,
            "n_executed": self.n_executed,
            "n_cached": self.n_cached,
            "result": f"/v1/results/{self.id}"
                      if self.state == DONE else None,
            "trace": f"/v1/jobs/{self.id}/trace"
                     if self.trace_ctx is not None else None,
            "provenance": self.provenance,
        }


class JobStore:
    """Thread-safe in-memory table of jobs, keyed by spec hash."""

    def __init__(self):
        self._jobs = {}
        self._lock = threading.RLock()

    @property
    def lock(self):
        return self._lock

    def get(self, job_id):
        with self._lock:
            return self._jobs.get(job_id)

    def create(self, job_id, spec):
        """Queued record for *job_id*, never clobbering a live one.

        A record that is still ``queued``/``running`` is returned
        as-is (the caller coalesces onto the in-flight job — replacing
        it would orphan the record a worker is mutating and reset its
        ``attempts``).  A terminal record is requeued in place, so its
        attempt count survives resubmission.  Only a genuinely unknown
        id gets a fresh :class:`Job`.
        """
        with self._lock:
            existing = self._jobs.get(job_id)
            if existing is not None:
                if existing.state not in TERMINAL_STATES:
                    return existing
                return self.requeue(existing)
            job = Job(job_id, spec)
            self._jobs[job_id] = job
            return job

    def requeue(self, job):
        """Reset a terminal job back to ``queued`` (resubmission).

        Tracing state is cleared too: a requeued job is a fresh
        execution and gets a fresh trace (new trace id, new spans).
        """
        with self._lock:
            job.state = QUEUED
            job.error = None
            job.started_s = None
            job.finished_s = None
            job.enqueued_s = None
            job.trace_ctx = None
            job.spans = None
            job.provenance = None
            return job

    def add_spans(self, job, records):
        """Append service-side span records to *job* (thread-safe)."""
        with self._lock:
            if job.spans is None:
                job.spans = []
            job.spans.extend(records)
            return job

    def update(self, job, **fields):
        """Apply attribute updates atomically."""
        with self._lock:
            for key, value in fields.items():
                setattr(job, key, value)
            return job

    def view(self, job):
        """Consistent plain-dict snapshot of *job*."""
        with self._lock:
            return job.snapshot()

    def list(self):
        """Snapshots of every job, most recently created first."""
        with self._lock:
            jobs = sorted(
                self._jobs.values(),
                key=lambda j: j.created_s, reverse=True,
            )
            return [job.snapshot() for job in jobs]

    def counts(self):
        """Jobs per state (one pass, under the lock)."""
        with self._lock:
            counts = {QUEUED: 0, RUNNING: 0, DONE: 0, FAILED: 0}
            for job in self._jobs.values():
                counts[job.state] = counts.get(job.state, 0) + 1
            return counts

    def __len__(self):
        with self._lock:
            return len(self._jobs)


class ResultStore(StoreAdapter):
    """Content-addressed on-disk store of canonical result payloads.

    Keys are spec hashes (64 hex chars); values are the exact bytes
    served by ``GET /v1/results/{hash}``.  Entries are immutable once
    written — two writers racing on the same key write identical bytes
    (the payload is a pure function of the spec), and the atomic rename
    makes the last one win.

    **Shared namespace.**  N service instances (and their worker
    processes) may point at one root: writes are atomic, reads are
    lock-free, and single-flight across instances is enforced by lease
    files living *beside* each entry (:meth:`lease_path_for`,
    :mod:`repro.serve.lease`).  With ``shards > 1`` keys are spread
    over ``shard-NNN/`` subdirectories by a consistent hash of the key
    — every instance configured with the same shard count computes the
    same placement, directories stay bounded under multi-million-entry
    namespaces, and shards can be mounted on separate volumes.  The
    shard count is part of the on-disk layout: changing it re-homes
    keys (existing entries under other counts are simply not found).
    """

    def __init__(self, root=None, shards=1):
        super().__init__(ContentStore(
            root if root is not None else default_result_dir(),
            ".json", RAW_BYTES, shards=shards,
        ))

    @property
    def shards(self):
        return self.store.shards

    def shard_for(self, key):
        """The shard index for *key* (see
        :meth:`repro.store.ContentStore.shard_for`)."""
        return self.store.shard_for(key)

    def path_for(self, key):
        return self.store.path_for(key)

    def lease_path_for(self, key):
        """The single-flight lease file guarding *key* — beside the
        entry, so the lease and the payload share a directory (and a
        filesystem) no matter the shard layout."""
        return self.path_for(key).with_suffix(".lease")

    def trace_spool_for(self, key):
        """The per-job span spool for *key* — written by whichever
        worker process executed the job, beside the result entry, so
        the merged trace is reachable from any service instance
        sharing the store (:mod:`repro.obs.distributed`)."""
        return self.path_for(key).with_suffix(".spans")

    def __contains__(self, key):
        return key in self.store

    def get_bytes(self, key):
        """Stored payload bytes for *key*, or ``None``; touches the
        entry's mtime so LRU pruning sees reads as use."""
        return self.store.get(key)

    def get_json(self, key):
        """Decoded payload for *key*, or ``None``."""
        data = self.get_bytes(key)
        if data is None:
            return None
        return json.loads(data)

    def put_bytes(self, key, data, envelope=None):
        """Store *data* under *key* atomically; returns the path.

        With *envelope* (a dict from
        :func:`repro.provenance.build_envelope`) a provenance sidecar
        is written beside the entry — its own atomic rename, never
        touching the payload bytes, so served results stay
        byte-identical with or without provenance.
        """
        return self.store.put(key, data, envelope)

    def envelope_for(self, key):
        """The provenance envelope beside *key*'s entry, or ``None``
        (legacy entries have none and still serve byte-identically)."""
        from repro.provenance import read_envelope

        return read_envelope(self.path_for(key))

    def stats(self):
        stats = self.store.stats()
        return {"root": stats.pop("root"), "shards": self.shards, **stats}

    def prune(self, max_bytes, orphan_age_s=DEFAULT_ORPHAN_AGE_S):
        """LRU-evict until the store fits *max_bytes*; returns
        ``(n_removed, bytes_removed)``.

        Besides the content store's own sweeps (``.tmp`` files from
        crashed writers, stranded ``.prov`` envelopes), also sweeps
        aged ``.lease`` files from crashed holders and aged ``.spans``
        trace spools whose result entry is gone (pruned, or never
        written because the job failed) — all age-gated, so live
        leases survive and recent sibling-less spools keep failed jobs
        debuggable.
        """
        removed = self.store.prune(max_bytes, orphan_age_s)
        sweep_orphans(self.root, orphan_age_s, ("*.lease",))
        sweep_orphans(self.root, orphan_age_s, ("*.spans",),
                      entry_for=lambda spool: spool.with_suffix(".json"))
        return removed
