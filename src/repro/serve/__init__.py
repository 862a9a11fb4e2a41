"""Experiment service: an HTTP job API over the campaign machinery.

``repro serve`` turns the one-shot CLI into a long-running service::

    repro serve --port 8642 &
    repro submit examples/scenarios/quickstart.toml --wait
    repro jobs                      # list every job and its state
    curl localhost:8642/v1/metrics  # queue depth, dedup rate, ...

Design in one paragraph: job identity is the scenario's content hash
(:meth:`repro.spec.ScenarioSpec.spec_hash`), so submissions dedup
naturally — an in-flight duplicate coalesces single-flight onto the
running job, a completed duplicate is served straight from the
content-addressed :class:`~repro.serve.store.ResultStore`, and only
genuinely new specs enter the bounded submission queue (a full queue
answers ``429`` with ``Retry-After`` instead of buffering without
bound).  Execution reuses :class:`~repro.campaign.runner.CampaignRunner`
and the on-disk cell cache, so the service inherits per-cell caching,
timeouts, and retry.  Every job runs through one frozen, picklable
:class:`~repro.serve.pool.JobRunner` on one
:class:`~repro.serve.pool.WorkerPool` (:mod:`repro.serve.pool`): on
the service's worker threads, or on a process pool for CPU-bound
fleets — with file leases (:mod:`repro.serve.lease`) making
single-flight hold across processes and across N service instances
sharing one result store.  A traced job records its worker-side spans
on the one tracer its campaign already receives.  See
docs/SERVICE.md.
"""

from repro.serve.client import (
    ServiceBusy,
    ServiceClient,
    ServiceError,
    default_server_url,
)
from repro.serve.lease import (
    DEFAULT_LEASE_TTL_S,
    Lease,
    LeaseTimeout,
    try_acquire,
)
from repro.serve.pool import WORKER_MODES, JobRunner, WorkerPool
from repro.serve.queue import BoundedJobQueue, QueueClosed, QueueFull
from repro.serve.server import (
    DEFAULT_PORT,
    ExperimentService,
    ServiceDraining,
    ServiceServer,
    build_result_payload,
    encode_result,
    serve_forever,
)
from repro.serve.store import JobStore, ResultStore, default_result_dir

__all__ = [
    "BoundedJobQueue",
    "DEFAULT_LEASE_TTL_S",
    "DEFAULT_PORT",
    "ExperimentService",
    "JobRunner",
    "JobStore",
    "Lease",
    "LeaseTimeout",
    "QueueClosed",
    "QueueFull",
    "ResultStore",
    "ServiceBusy",
    "ServiceClient",
    "ServiceDraining",
    "ServiceError",
    "ServiceServer",
    "WORKER_MODES",
    "WorkerPool",
    "build_result_payload",
    "default_result_dir",
    "default_server_url",
    "encode_result",
    "serve_forever",
    "try_acquire",
]
