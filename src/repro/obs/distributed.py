"""Distributed per-job tracing across the serve fleet.

The PR 2 tracer records spans against a *private* ``perf_counter``
epoch, which is exactly right inside one process and exactly wrong
across the worker-process boundary: a job's queue wait happens
in the service process, its lease acquisition and engine execution in
a worker process, and neither side can see the other's epoch.  This
module closes that gap with one shared time base and three pieces:

* **Span records** — plain dicts timestamped in *unix seconds*
  (``time.time``), so spans recorded by different processes — even on
  different service instances sharing one result store — land on one
  comparable timeline without clock negotiation.  The service stamps
  its records with ``time.time``; a worker records on an ordinary
  :class:`~repro.obs.tracer.Tracer` and re-bases its wall spans by
  the tracer's ``epoch_unix`` (:func:`wall_span_records`).  Each
  record carries the recording process's ``pid`` and a ``role``
  (``"service"`` / ``"worker"``), which the merger turns into per-pid
  process rows.
* **:class:`TraceContext`** — the job id, a per-execution trace id,
  and the parent span id, handed to the job runner beside the spec
  (:mod:`repro.serve.pool`), across the process boundary in process
  mode.  The context never touches the
  :class:`~repro.spec.ScenarioSpec` itself, so the spec hash — and
  therefore the result bytes — are unchanged by tracing.
* **Spool files** — workers write their span records to
  ``<key>.spans`` *beside* the result entry in the
  :class:`~repro.serve.store.ResultStore` (same placement rule as the
  lease file), atomically, so the service can merge service-side and
  worker-side spans into one Chrome/Perfetto trace per job
  (``GET /v1/jobs/{id}/trace``) no matter which process — or which
  instance — executed it.

Everything here is write-only observation: recording spans reads
clocks and nothing else, and the disabled path (no
:class:`TraceContext`) records nothing and writes no files.
"""

import json
import os
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.obs.chrome import thread_rows, to_us
from repro.obs.tracer import WALL_CLOCK
from repro.store import atomic_write

#: Schema tag on every spool document.
SPOOL_SCHEMA = "repro-job-spans-v1"

#: Roles a span-recording process can have in a job's lifecycle.
ROLE_SERVICE = "service"
ROLE_WORKER = "worker"


def new_trace_id(job_id):
    """A unique id for one *execution* of a job.

    The job id is content-addressed (the spec hash), so retries and
    resubmissions share it; the trace id distinguishes the executions.
    """
    return f"{job_id[:12]}-{uuid.uuid4().hex[:12]}"


@dataclass
class TraceContext:
    """What crosses the process boundary: identity, not spans.

    ``parent`` names the service-side root span so worker spans keep
    their parentage even though the worker never sees the service's
    span list.
    """

    job_id: str
    trace_id: str
    parent: Optional[str] = None

    def to_dict(self):
        return {
            "job_id": self.job_id,
            "trace_id": self.trace_id,
            "parent": self.parent,
        }

    @classmethod
    def from_dict(cls, data):
        if not data:
            return None
        return cls(
            job_id=data["job_id"],
            trace_id=data["trace_id"],
            parent=data.get("parent"),
        )

    @classmethod
    def for_job(cls, job_id):
        trace_id = new_trace_id(job_id)
        return cls(job_id=job_id, trace_id=trace_id,
                   parent=f"{trace_id}/job")


def span_record(name, track, start_unix, dur_s, *, role, pid=None,
                **args):
    """One serializable span: unix-timestamped, pid- and role-tagged."""
    record = {
        "name": name,
        "track": track,
        "start_unix": float(start_unix),
        "dur_s": max(float(dur_s), 0.0),
        "pid": int(pid if pid is not None else os.getpid()),
        "role": role,
    }
    if args:
        record["args"] = args
    return record


def wall_span_records(tracer):
    """A :class:`~repro.obs.tracer.Tracer`'s *wall* spans as worker
    records.

    The tracer's wall spans are relative to its private perf epoch;
    its ``epoch_unix`` (captured at construction) re-bases them onto
    the shared unix timeline.  Sim-clock spans are skipped — the
    distributed job timeline is wall time only.
    """
    return [
        span_record(span.name, span.track,
                    tracer.epoch_unix + span.start_s, span.dur_s,
                    role=ROLE_WORKER, **(span.args or {}))
        for span in tracer.spans if span.clock == WALL_CLOCK
    ]


# -- spool files -------------------------------------------------------

def write_spool(path, ctx, records):
    """Atomically write a spool document beside the result entry."""
    doc = {
        "schema": SPOOL_SCHEMA,
        "job_id": ctx.job_id,
        "trace_id": ctx.trace_id,
        "parent": ctx.parent,
        "spans": list(records),
    }
    data = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return atomic_write(path, lambda handle: handle.write(data))


def read_spool(path):
    """Load a spool document's span records; ``[]`` if absent/torn."""
    try:
        doc = json.loads(Path(path).read_bytes())
    except (OSError, ValueError):
        return []
    if not isinstance(doc, dict) or doc.get("schema") != SPOOL_SCHEMA:
        return []
    spans = doc.get("spans")
    return spans if isinstance(spans, list) else []


# -- merge to Chrome ---------------------------------------------------

def merge_job_trace(job_id, service_spans, worker_spans,
                    trace_id=None):
    """Merge service- and worker-side records into Chrome events.

    Every distinct recording pid becomes its own *process* row (named
    ``"service pid N"`` / ``"worker pid N"``), every (pid, track) pair
    its own thread row, and all timestamps are re-based to the
    earliest span's start — so the merged trace satisfies the same
    Chrome trace-event schema as the PR 2 exporter and Perfetto shows
    the cross-process timeline with correct wall-clock alignment.

    Returns the event list, or ``[]`` when there are no spans at all.
    """
    records = list(service_spans) + list(worker_spans)
    if not records:
        return []
    base = min(r["start_unix"] for r in records)
    events = []
    named_pids = {}   # pid -> role of first sighting
    tid_for = thread_rows(events)

    events.append({
        "name": "repro_job_trace", "ph": "M", "ts": 0, "pid": 0,
        "tid": 0,
        "args": {
            "job_id": job_id,
            "trace_id": trace_id,
            "base_unix": base,
            "n_spans": len(records),
        },
    })
    for record in records:
        pid = int(record.get("pid", 0))
        role = record.get("role", ROLE_WORKER)
        if pid not in named_pids:
            named_pids[pid] = role
            events.append({
                "name": "process_name", "ph": "M", "ts": 0,
                "pid": pid, "tid": 0,
                "args": {"name": f"{role} pid {pid}"},
            })
        event = {
            "name": record["name"],
            "cat": record.get("track", ""),
            "ph": "X",
            "ts": to_us(record["start_unix"] - base),
            "dur": to_us(record.get("dur_s", 0.0)),
            "pid": pid,
            "tid": tid_for(pid, record.get("track", "")),
        }
        args = dict(record.get("args") or {})
        args.setdefault("role", role)
        event["args"] = args
        events.append(event)
    return events
