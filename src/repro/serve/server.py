"""The experiment service: HTTP job API over the campaign machinery.

Architecture (stdlib only — ``http.server.ThreadingHTTPServer`` for
transport, a worker pool for execution)::

    POST /v1/jobs ──► validate spec ──► single-flight dedup ──► queue
                                              │                   │
             429 + Retry-After ◄── full ──────┘        job workers ▼
                                               worker pool (thread/process)
                                                   │  lease on result key
    GET /v1/results/{hash} ◄── canonical JSON ◄── ResultStore.put_bytes

Identity is content-addressed end to end: the job id *is* the spec
hash, the result store key *is* the spec hash, and the campaign cell
cache below it is keyed by config hash.  That yields four collapse
points for repeated work:

1. a spec whose result is already on disk is answered without queuing
   anything (``"cached"``);
2. a spec identical to one currently queued or running coalesces onto
   that job — single-flight (``"coalesced"``);
3. a spec being executed *by another process* — a sibling worker or a
   whole other service instance sharing the result store — is awaited
   through its lease file rather than re-run
   (:mod:`repro.serve.lease`);
4. distinct specs sharing cells share them through the campaign cell
   cache.

Execution is delegated to one job runner on one worker pool
(:mod:`repro.serve.pool`): ``worker_mode="thread"`` runs it on the
worker threads themselves, ``worker_mode="process"`` on a persistent
process pool that sidesteps the GIL for CPU-bound cells.

The :class:`ExperimentService` is transport-free (tests drive it
directly); :class:`ServiceServer` binds it to a socket;
:func:`serve_forever` is the CLI entry point with SIGTERM/SIGINT
graceful drain.
"""

import json
import os
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro import __version__
from repro.campaign.cache import ResultCache
from repro.errors import ConfigurationError, SpecValidationError
from repro.obs import Observability
from repro.obs.distributed import (
    ROLE_SERVICE,
    TraceContext,
    merge_job_trace,
    read_spool,
    span_record,
)
from repro.obs.exposition import (
    PROMETHEUS_CONTENT_TYPE,
    render_prometheus,
)
from repro.serve.lease import DEFAULT_LEASE_TTL_S
from repro.serve.pool import (
    DEFAULT_LEASE_WAIT_S,
    JobRunner,
    WorkerPool,
    build_result_payload,
    encode_result,
)
from repro.serve.queue import BoundedJobQueue, QueueClosed, QueueFull
from repro.serve.store import (
    DONE,
    FAILED,
    RUNNING,
    TERMINAL_STATES,
    JobStore,
    ResultStore,
)
from repro.spec import ScenarioSpec

__all__ = [
    "DEFAULT_PORT",
    "ExperimentService",
    "ServiceDraining",
    "ServiceServer",
    "build_result_payload",
    "encode_result",
    "serve_forever",
]

#: Default TCP port (unassigned range; override with ``--port``).
DEFAULT_PORT = 8642

#: Submission outcomes (the ``outcome`` field of POST responses).
OUTCOME_QUEUED = "queued"
OUTCOME_COALESCED = "coalesced"
OUTCOME_CACHED = "cached"


def _provenance_summary(envelope):
    """The envelope fields worth surfacing on job snapshots (None for
    legacy envelope-less entries)."""
    if envelope is None:
        return None
    return {
        key: envelope.get(key)
        for key in ("code_digest", "repro_version", "cache_version",
                    "seed_derivation", "written_unix")
    }


class ServiceDraining(ConfigurationError):
    """The service is shutting down and no longer accepts jobs."""


class ExperimentService:
    """Queue, dedup, execute, and store scenario jobs.

    Transport-agnostic: :meth:`submit_spec` / :meth:`submit_body` are
    called by the HTTP layer and by tests directly.  One service owns
    one :class:`JobStore`, one :class:`ResultStore`, one bounded queue,
    the campaign cell cache's aggregate counters, ``job_workers``
    dispatcher threads, and one :class:`~repro.serve.pool.WorkerPool`
    whose :class:`~repro.serve.pool.JobRunner` runs each job under the
    cross-process single-flight lease.
    """

    def __init__(self, queue_size=64, job_workers=2, cell_workers=1,
                 cache_dir=None, use_cell_cache=True, result_dir=None,
                 timeout_s=None, retries=1, obs=None,
                 worker_mode="thread", store_shards=1,
                 lease_ttl_s=DEFAULT_LEASE_TTL_S,
                 lease_wait_s=DEFAULT_LEASE_WAIT_S,
                 job_trace=False):
        self.jobs = JobStore()
        self.results = ResultStore(result_dir, shards=store_shards)
        self.queue = BoundedJobQueue(queue_size)
        # Only aggregates hit/miss counts: each job builds its own
        # cache from the root and reports its traffic on the outcome.
        self.cell_cache = (
            ResultCache(cache_dir) if use_cell_cache else None
        )
        self.obs = obs if obs is not None else Observability.create(
            trace=False, metrics=True
        )
        self.job_workers = int(job_workers)
        self.worker_mode = worker_mode
        # Per-job distributed tracing (repro.obs.distributed).  Off by
        # default: with job_trace False no trace context is created,
        # no span is recorded, and no spool file is written — the job
        # path is byte-for-byte the pre-tracing behavior.
        self.job_trace = bool(job_trace)
        runner = JobRunner(
            result_dir=str(self.results.root),
            store_shards=self.results.shards,
            cache_dir=(str(self.cell_cache.root)
                       if self.cell_cache is not None else None),
            cell_workers=int(cell_workers), timeout_s=timeout_s,
            retries=int(retries), lease_ttl_s=float(lease_ttl_s),
            lease_wait_s=float(lease_wait_s),
        )
        self.pool = WorkerPool(worker_mode, runner,
                               workers=self.job_workers, obs=self.obs)
        self._threads = []
        self._draining = threading.Event()
        self._inflight = 0
        self._lock = threading.Lock()
        self._started_wall = time.time()
        self._started_perf = time.perf_counter()
        self.obs.metrics.gauge("serve.queue_capacity").set(queue_size)
        self.obs.metrics.gauge("serve.job_workers").set(self.job_workers)

    # -- lifecycle -----------------------------------------------------

    def start(self):
        """Start the worker pool and spawn the job-worker threads."""
        self.pool.start()
        for n in range(self.job_workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"repro-serve-worker-{n}", daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        self.obs.log.info(
            "serve.start", job_workers=self.job_workers,
            worker_mode=self.worker_mode,
            queue_size=self.queue.maxsize,
            cell_cache=str(self.cell_cache.root)
            if self.cell_cache is not None else None,
            result_dir=str(self.results.root),
            store_shards=self.results.shards,
        )
        return self

    @property
    def draining(self):
        return self._draining.is_set()

    def begin_drain(self):
        """Stop accepting work; queued jobs will still be finished."""
        if self._draining.is_set():
            return
        self._draining.set()
        self.queue.close()
        self.obs.log.info("serve.drain_begin",
                          queue_depth=len(self.queue))

    def wait_drained(self, timeout=None):
        """Block until every worker has exited (queue empty, jobs
        finished); returns ``True`` if all finished in time."""
        deadline = (
            time.perf_counter() + timeout if timeout is not None else None
        )
        ok = True
        for thread in self._threads:
            remaining = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.perf_counter())
            thread.join(remaining)
            ok = ok and not thread.is_alive()
        if ok:
            self.pool.shutdown()
        self.obs.log.info("serve.drain_done", clean=ok)
        return ok

    def drain(self, timeout=None):
        """``begin_drain`` + ``wait_drained`` in one call."""
        self.begin_drain()
        return self.wait_drained(timeout)

    # -- submission ----------------------------------------------------

    def submit_body(self, raw, content_type=None):
        """Parse + validate + submit raw request-body bytes.

        Returns ``(outcome, job)``; raises
        :class:`~repro.errors.SpecValidationError` /
        :class:`~repro.errors.ConfigurationError` (bad spec, all
        problems collected), :class:`~repro.serve.queue.QueueFull`
        (backpressure), or :class:`ServiceDraining`.
        """
        fmt = None
        if content_type:
            base = content_type.split(";")[0].strip().lower()
            if base.endswith("json"):
                fmt = "json"
            elif base.endswith("toml"):
                fmt = "toml"
        validate_start = time.time() if self.job_trace else 0.0
        spec = ScenarioSpec.from_bytes(raw, fmt=fmt, source="request body")
        spec.validate()
        validate_span = None
        if self.job_trace:
            validate_span = span_record(
                "validate", "service", validate_start,
                time.time() - validate_start, role=ROLE_SERVICE,
                n_bytes=len(raw),
            )
        return self.submit_spec(spec, validate_span=validate_span)

    def submit_spec(self, spec, validate_span=None):
        """Single-flight submission of a validated spec.

        Outcomes:

        * ``"cached"``    — the result payload is already in the store;
          nothing is queued (job record reflects ``done``).
        * ``"coalesced"`` — an identical spec is queued or running; the
          caller shares that job.
        * ``"queued"``    — a fresh (or retried) job entered the queue.
        """
        job_id = spec.spec_hash()
        metrics = self.obs.metrics
        with self._lock:
            if self._draining.is_set():
                raise ServiceDraining("service is draining")
            job = self.jobs.get(job_id)
            if job is not None and job.state not in TERMINAL_STATES:
                metrics.counter("serve.jobs_coalesced").inc()
                self.obs.log.debug("serve.coalesced", job=job_id)
                return OUTCOME_COALESCED, job
            if job_id in self.results:
                if job is None:
                    # Result survives from a previous process; conjure
                    # the matching done record.
                    job = self.jobs.create(job_id, spec)
                if job.state != DONE:
                    self.jobs.update(job, state=DONE, error=None)
                if job.provenance is None:
                    self.jobs.update(job, provenance=_provenance_summary(
                        self.results.envelope_for(job_id)))
                metrics.counter("serve.result_cache_hits").inc()
                return OUTCOME_CACHED, job
            if job is None:
                job = self.jobs.create(job_id, spec)
            else:
                self.jobs.requeue(job)
            try:
                self.queue.put(job)
            except QueueClosed:
                raise ServiceDraining("service is draining") from None
            except QueueFull:
                # Roll the record back so a later retry is a fresh
                # submission, not a phantom queued job.
                self.jobs.update(job, state=FAILED,
                                 error="rejected: queue full")
                metrics.counter("serve.jobs_rejected").inc()
                raise
            metrics.counter("serve.jobs_queued").inc()
            if self.job_trace:
                ctx = TraceContext.for_job(job_id)
                self.jobs.update(job, trace_ctx=ctx,
                                 enqueued_s=time.time(), spans=[])
                if validate_span is not None:
                    self.jobs.add_spans(job, [validate_span])
            return OUTCOME_QUEUED, job

    # -- execution -----------------------------------------------------

    def _worker_loop(self):
        while True:
            job = self.queue.get(timeout=0.5)
            if job is None:
                if self.queue.closed and not len(self.queue):
                    return
                continue
            # Depth/inflight gauges are computed at scrape time in
            # metrics_snapshot(), never set here: an update-time set
            # goes stale the moment the queue drains between jobs.
            with self._lock:
                self._inflight += 1
            try:
                self._execute_job(job)
            finally:
                with self._lock:
                    self._inflight -= 1

    def _execute_job(self, job):
        metrics = self.obs.metrics
        start = time.perf_counter()
        ctx = job.trace_ctx
        now = time.time()
        if ctx is not None and job.enqueued_s is not None:
            self.jobs.add_spans(job, [span_record(
                "queue wait", "service", job.enqueued_s,
                now - job.enqueued_s, role=ROLE_SERVICE,
            )])
        self.jobs.update(
            job, state=RUNNING, attempts=job.attempts + 1,
            started_s=now,
        )
        self.obs.log.info("serve.job_start", job=job.id,
                          worker_pid=os.getpid(),
                          n_cells=job.n_cells, attempt=job.attempts)
        try:
            run_start = time.time()
            with self.obs.tracer.wall_span(
                f"job {job.id[:12]}", track="jobs", n_cells=job.n_cells
            ):
                outcome = self.pool.run_job(job.spec, trace_ctx=ctx)
            wall = time.perf_counter() - start
            if ctx is not None:
                self.jobs.add_spans(job, [span_record(
                    f"job {job.id[:12]}", "service", run_start,
                    time.time() - run_start, role=ROLE_SERVICE,
                    via=outcome.get("via") if outcome["ok"] else None,
                    ok=outcome["ok"],
                )])
            if not outcome["ok"]:
                with self._lock:
                    metrics.counter("serve.jobs_failed").inc()
                self.jobs.update(
                    job, state=FAILED, finished_s=time.time(),
                    wall_s=wall,
                    error=f"[{outcome['error_type']}] "
                          f"{outcome['error']}",
                )
                self.obs.log.warning(
                    "serve.job_failed", job=job.id,
                    worker_pid=os.getpid(),
                    error=outcome["error"],
                    error_type=outcome["error_type"],
                )
                return
            with self._lock:
                if outcome["executed"]:
                    metrics.counter("serve.jobs_executed").inc()
                    metrics.counter("serve.cells_executed").inc(
                        outcome["n_executed"]
                    )
                    metrics.counter("serve.cells_from_cache").inc(
                        outcome["n_cached"]
                    )
                else:
                    # A sibling process or another service instance
                    # produced the result while this job waited — the
                    # cross-process analogue of coalescing.
                    metrics.counter("serve.jobs_lease_coalesced").inc()
                if outcome.get("took_over"):
                    metrics.counter("serve.lease_takeovers").inc()
                if self.cell_cache is not None:
                    self.cell_cache.hits += outcome["cache_hits"]
                    self.cell_cache.misses += outcome["cache_misses"]
            metrics.histogram("serve.job_wall_s").observe(wall)
            self.jobs.update(
                job, state=DONE, finished_s=time.time(), wall_s=wall,
                n_executed=outcome["n_executed"],
                n_cached=outcome["n_cached"],
                provenance=_provenance_summary(
                    self.results.envelope_for(job.id)),
            )
            self.obs.log.info("serve.job_done", job=job.id,
                              worker_pid=os.getpid(),
                              wall_s=wall, via=outcome["via"],
                              n_executed=outcome["n_executed"])
        except BaseException as exc:  # noqa: BLE001 - job isolation
            wall = time.perf_counter() - start
            with self._lock:
                metrics.counter("serve.jobs_failed").inc()
            self.jobs.update(
                job, state=FAILED, finished_s=time.time(), wall_s=wall,
                error=f"[{type(exc).__name__}] {exc}",
            )
            self.obs.log.warning("serve.job_failed", job=job.id,
                                 worker_pid=os.getpid(),
                                 error=str(exc),
                                 error_type=type(exc).__name__)

    # -- introspection -------------------------------------------------

    def health(self):
        counts = self.jobs.counts()
        return {
            "status": "draining" if self.draining else "ok",
            "version": __version__,
            "uptime_s": time.perf_counter() - self._started_perf,
            "queue_depth": len(self.queue),
            "queue_capacity": self.queue.maxsize,
            "inflight": self._inflight,
            "worker_mode": self.worker_mode,
            "job_workers": self.job_workers,
            "store_shards": self.results.shards,
            "jobs": counts,
        }

    def metrics_snapshot(self):
        """``/v1/metrics`` payload: raw registry + derived rates.

        Depth and inflight gauges are computed *here*, at scrape time,
        from the live queue and worker state — never set from the job
        path, where they would freeze at the last update and report a
        stale depth on a drained or idle server.
        """
        uptime = time.perf_counter() - self._started_perf
        with self._lock:
            inflight = self._inflight
        depth = len(self.queue)
        metrics = self.obs.metrics
        metrics.gauge("serve.queue_depth").set(depth)
        metrics.gauge("serve.inflight").set(inflight)
        data = self.obs.metrics.as_dict()
        counters = data.get("counters", {})
        executed = counters.get("serve.jobs_executed", 0)
        coalesced = counters.get("serve.jobs_coalesced", 0)
        result_hits = counters.get("serve.result_cache_hits", 0)
        lease_hits = counters.get("serve.jobs_lease_coalesced", 0)
        deduped = coalesced + result_hits + lease_hits
        served = executed + deduped
        data["derived"] = {
            "uptime_s": uptime,
            "queue_depth": depth,
            "inflight": inflight,
            "worker_mode": self.worker_mode,
            "jobs_per_second": executed / uptime if uptime > 0 else 0.0,
            "dedup_rate": deduped / served if served else 0.0,
            "cell_cache_hit_rate": (
                self.cell_cache.hit_rate
                if self.cell_cache is not None else None
            ),
        }
        return data

    def job_trace_events(self, job_id):
        """The merged Chrome trace for one job, or ``None``.

        Service-side spans live on the job record; worker-side spans
        are read from the spool file the executing process wrote
        beside the result entry — which may have been a worker of
        *another* service instance sharing the store.  ``None`` means
        no spans exist from either side (job unknown, or tracing was
        off when it ran).
        """
        job = self.jobs.get(job_id)
        service_spans = []
        trace_id = None
        if job is not None:
            with self.jobs.lock:
                service_spans = list(job.spans or ())
                trace_id = job.trace_id
        worker_spans = read_spool(self.results.trace_spool_for(job_id))
        events = merge_job_trace(job_id, service_spans, worker_spans,
                                 trace_id=trace_id)
        return events or None


# -- HTTP layer --------------------------------------------------------

class _Handler(BaseHTTPRequestHandler):
    """Routes ``/v1/*`` onto the service attached to the server."""

    server_version = f"repro-serve/{__version__}"
    protocol_version = "HTTP/1.1"

    @property
    def service(self):
        return self.server.service

    def log_message(self, fmt, *args):
        self.service.obs.log.debug("serve.http", message=fmt % args)

    # -- plumbing ---------------------------------------------------

    def _send(self, status, body, content_type="application/json",
              extra_headers=()):
        if isinstance(body, (dict, list)):
            body = (json.dumps(body, sort_keys=True) + "\n").encode()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in extra_headers:
            self.send_header(name, value)
        self.end_headers()
        try:
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            pass

    def _observe(self, endpoint, status):
        metrics = self.service.obs.metrics
        metrics.counter("serve.http_requests").inc()
        metrics.counter(f"serve.http_requests.{endpoint}").inc()
        if status >= 500:
            metrics.counter("serve.http_5xx").inc()
        elif status >= 400:
            metrics.counter("serve.http_4xx").inc()

    def _route(self, endpoint, fn):
        metrics = self.service.obs.metrics
        status = 500
        with metrics.histogram(f"serve.request_s.{endpoint}").time():
            try:
                status = fn()
            except Exception as exc:  # noqa: BLE001 - 500, not a crash
                self.service.obs.log.warning(
                    "serve.http_error", endpoint=endpoint,
                    error=str(exc), error_type=type(exc).__name__,
                )
                self._send(500, {"error": str(exc),
                                 "error_type": type(exc).__name__})
        self._observe(endpoint, status)

    # -- verbs ------------------------------------------------------

    def do_POST(self):  # noqa: N802 - BaseHTTPRequestHandler API
        if self.path.rstrip("/") == "/v1/jobs":
            self._route("jobs_post", self._post_job)
        else:
            self._send(404, {"error": f"no such endpoint {self.path}"})
            self._observe("unknown", 404)

    def do_GET(self):  # noqa: N802 - BaseHTTPRequestHandler API
        path = self.path.rstrip("/")
        if path == "/v1/healthz":
            self._route("healthz", self._get_health)
        elif path == "/v1/metrics":
            self._route("metrics", self._get_metrics)
        elif path == "/v1/jobs":
            self._route("jobs_list", self._get_jobs)
        elif (path.startswith("/v1/jobs/")
              and path.endswith("/trace")):
            job_id = path[len("/v1/jobs/"):-len("/trace")].rstrip("/")
            self._route("jobs_trace",
                        lambda: self._get_job_trace(job_id))
        elif path.startswith("/v1/jobs/"):
            self._route("jobs_get",
                        lambda: self._get_job(path[len("/v1/jobs/"):]))
        elif path.startswith("/v1/results/"):
            self._route(
                "results_get",
                lambda: self._get_result(path[len("/v1/results/"):]),
            )
        else:
            self._send(404, {"error": f"no such endpoint {self.path}"})
            self._observe("unknown", 404)

    # -- endpoints --------------------------------------------------

    def _post_job(self):
        service = self.service
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            self._send(400, {"error": "empty request body",
                             "problems": ["empty request body"]})
            return 400
        raw = self.rfile.read(length)
        try:
            outcome, job = service.submit_body(
                raw, self.headers.get("Content-Type")
            )
        except QueueFull as exc:
            retry_after = max(1, int(round(exc.retry_after_s)))
            self._send(
                429,
                {"error": str(exc), "retry_after_s": retry_after},
                extra_headers=(("Retry-After", str(retry_after)),),
            )
            return 429
        except ServiceDraining as exc:
            self._send(503, {"error": str(exc)},
                       extra_headers=(("Retry-After", "10"),))
            return 503
        except SpecValidationError as exc:
            self._send(400, {"error": str(exc),
                             "problems": exc.problems})
            return 400
        except ConfigurationError as exc:
            self._send(400, {"error": str(exc),
                             "problems": [str(exc)]})
            return 400
        body = service.jobs.view(job)
        body["outcome"] = outcome
        status = 200 if outcome == OUTCOME_CACHED else 202
        self._send(status, body)
        return status

    def _get_jobs(self):
        self._send(200, {"jobs": self.service.jobs.list()})
        return 200

    def _get_job(self, job_id):
        job = self.service.jobs.get(job_id)
        if job is None:
            self._send(404, {"error": f"unknown job {job_id!r}"})
            return 404
        self._send(200, self.service.jobs.view(job))
        return 200

    def _get_job_trace(self, job_id):
        events = self.service.job_trace_events(job_id)
        if events is None:
            self._send(404, {
                "error": f"no trace for job {job_id!r} (unknown job, "
                         "or the service runs without --trace-jobs)",
            })
            return 404
        self._send(200, events)
        return 200

    def _get_result(self, key):
        data = self.service.results.get_bytes(key)
        if data is None:
            self._send(404, {"error": f"no result for {key!r}"})
            return 404
        # Provenance travels in headers only — the body must stay
        # byte-identical to the stored (content-addressed) payload.
        headers = []
        envelope = self.service.results.envelope_for(key)
        if envelope is not None:
            if envelope.get("code_digest"):
                headers.append(("X-Repro-Code-Digest",
                                str(envelope["code_digest"])))
            if envelope.get("repro_version"):
                headers.append(("X-Repro-Version",
                                str(envelope["repro_version"])))
        self._send(200, data, extra_headers=headers)
        return 200

    def _get_health(self):
        health = self.service.health()
        status = 200 if health["status"] == "ok" else 503
        self._send(status, health)
        return status

    def _get_metrics(self):
        snapshot = self.service.metrics_snapshot()
        accept = self.headers.get("Accept") or ""
        if "text/plain" in accept:
            text = render_prometheus(snapshot,
                                     snapshot.get("derived"))
            self._send(200, text.encode("utf-8"),
                       content_type=PROMETHEUS_CONTENT_TYPE)
            return 200
        self._send(200, snapshot)
        return 200


class ServiceServer:
    """An :class:`ExperimentService` bound to a listening socket."""

    def __init__(self, service=None, host="127.0.0.1", port=DEFAULT_PORT,
                 **service_kwargs):
        self.service = (
            service if service is not None
            else ExperimentService(**service_kwargs)
        )
        self.httpd = ThreadingHTTPServer((host, port), _Handler)
        self.httpd.daemon_threads = True
        self.httpd.service = self.service
        self._serve_thread = None

    @property
    def address(self):
        host, port = self.httpd.server_address[:2]
        return host, port

    @property
    def url(self):
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self):
        """Serve in a background thread (tests, embedding)."""
        self.service.start()
        self._serve_thread = threading.Thread(
            target=self.httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-serve-http", daemon=True,
        )
        self._serve_thread.start()
        return self

    def stop(self, drain_timeout=30.0):
        """Graceful stop: drain the service, then close the socket."""
        clean = self.service.drain(drain_timeout)
        self.httpd.shutdown()
        if self._serve_thread is not None:
            self._serve_thread.join(5.0)
        self.httpd.server_close()
        return clean


def serve_forever(host="127.0.0.1", port=DEFAULT_PORT,
                  drain_timeout=30.0, ready=None, **service_kwargs):
    """CLI entry: serve until SIGTERM/SIGINT, then drain gracefully.

    On the first signal the service stops accepting (``POST`` answers
    503), finishes queued and in-flight jobs (bounded by
    *drain_timeout*), flushes a final metrics snapshot through the
    structured log, and returns 0 (or 1 on a dirty drain).  A second
    signal abandons the drain immediately.
    """
    server = ServiceServer(host=host, port=port, **service_kwargs)
    service = server.service
    signals_seen = []

    def _on_signal(signum, frame):
        signals_seen.append(signum)
        if len(signals_seen) == 1:
            service.begin_drain()
            threading.Thread(
                target=_drain_then_shutdown, daemon=True
            ).start()
        else:
            server.httpd.shutdown()

    def _drain_then_shutdown():
        service.wait_drained(drain_timeout)
        server.httpd.shutdown()

    old_term = signal.signal(signal.SIGTERM, _on_signal)
    old_int = signal.signal(signal.SIGINT, _on_signal)
    service.start()
    if ready is not None:
        ready(server)
    try:
        server.httpd.serve_forever(poll_interval=0.1)
    finally:
        signal.signal(signal.SIGTERM, old_term)
        signal.signal(signal.SIGINT, old_int)
        server.httpd.server_close()
    clean = service.wait_drained(
        drain_timeout if not signals_seen else 0.0
    )
    snapshot = service.metrics_snapshot()
    service.obs.log.info("serve.final_metrics", **{
        key: value for key, value in snapshot["derived"].items()
    })
    service.obs.log.info("serve.stopped", clean=clean)
    return 0 if clean else 1
