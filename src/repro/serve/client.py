"""Thin stdlib client for the experiment service.

Wraps ``urllib.request`` so campaign drivers and the CLI
(``repro submit`` / ``repro jobs``) can talk to a ``repro serve``
instance without any new dependencies.  Backpressure is first-class:
a 429 raises :class:`ServiceBusy` carrying the server's ``Retry-After``
hint, and :meth:`ServiceClient.submit` can optionally honor it
(``retry=True``) with bounded waits.
"""

import json
import os
import time
import urllib.error
import urllib.request
from pathlib import Path

from repro.errors import ReproError
from repro.serve.server import DEFAULT_PORT

#: Environment variable naming the default server URL.
SERVER_ENV = "REPRO_SERVER"

#: Fallback backoff when a 429's Retry-After hint is absent or
#: unintelligible.
DEFAULT_RETRY_AFTER_S = 1.0

#: Floor on the wait between retried submissions, so a zero hint (a
#: past HTTP-date, ``Retry-After: 0``) backs off instead of spinning.
MIN_RETRY_BACKOFF_S = 0.05


def default_server_url():
    return os.environ.get(
        SERVER_ENV, f"http://127.0.0.1:{DEFAULT_PORT}"
    )


def parse_retry_after(value, now=None):
    """Seconds to wait from a raw ``Retry-After`` header, defensively.

    RFC 9110 allows both delta-seconds (``"3"``) and an HTTP-date
    (``"Fri, 01 Aug 2025 12:00:00 GMT"``).  This repo's own server
    always sends delta-seconds, but a client may be talking through a
    proxy (or to a future server) that uses the date form — which must
    map to a backoff, not an uncaught ``ValueError``.  Anything
    unparseable falls back to :data:`DEFAULT_RETRY_AFTER_S`; negative
    results (a date in the past) clamp to zero.
    """
    if value is None:
        return DEFAULT_RETRY_AFTER_S
    text = str(value).strip()
    if not text:
        return DEFAULT_RETRY_AFTER_S
    try:
        return max(0.0, float(text))
    except ValueError:
        pass
    from email.utils import parsedate_to_datetime

    try:
        when = parsedate_to_datetime(text)
    except (TypeError, ValueError):
        return DEFAULT_RETRY_AFTER_S
    if when is None:
        return DEFAULT_RETRY_AFTER_S
    if when.tzinfo is None:
        # RFC 5322 parsing can yield a naive datetime for obsolete
        # zone spellings; HTTP-dates are GMT by definition.
        from datetime import timezone

        when = when.replace(tzinfo=timezone.utc)
    if now is None:
        import datetime

        now = datetime.datetime.now(datetime.timezone.utc)
    return max(0.0, (when - now).total_seconds())


class ServiceError(ReproError):
    """The service answered with an error status."""

    def __init__(self, status, body, message=None):
        self.status = status
        self.body = body if isinstance(body, dict) else {}
        detail = message or self.body.get("error") or str(body)
        super().__init__(f"HTTP {status}: {detail}")


class ServiceBusy(ServiceError):
    """429 — the submission queue is full; retry after a delay."""

    def __init__(self, status, body, retry_after_s):
        self.retry_after_s = retry_after_s
        super().__init__(status, body)


class ServiceClient:
    """One server endpoint, a request timeout, and the /v1 routes."""

    def __init__(self, base_url=None, timeout_s=30.0):
        self.base_url = (base_url or default_server_url()).rstrip("/")
        self.timeout_s = timeout_s

    # -- plumbing ---------------------------------------------------

    def _request(self, path, data=None, content_type=None,
                 accept="application/json"):
        headers = {"Accept": accept}
        if content_type:
            headers["Content-Type"] = content_type
        req = urllib.request.Request(
            self.base_url + path, data=data, headers=headers,
            method="POST" if data is not None else "GET",
        )
        try:
            with urllib.request.urlopen(
                req, timeout=self.timeout_s
            ) as resp:
                return resp.status, resp.read(), resp.headers
        except urllib.error.HTTPError as exc:
            body = exc.read()
            headers = exc.headers
            status = exc.code
        except urllib.error.URLError as exc:
            raise ServiceError(
                0, {}, f"cannot reach {self.base_url}: {exc.reason}"
            ) from None
        try:
            parsed = json.loads(body)
        except (ValueError, UnicodeDecodeError):
            parsed = {"error": body.decode("utf-8", "replace")}
        if status == 429:
            raise ServiceBusy(
                status, parsed,
                parse_retry_after(headers.get("Retry-After")),
            )
        raise ServiceError(status, parsed)

    def _json(self, path, data=None, content_type=None):
        _, body, _ = self._request(path, data, content_type)
        return json.loads(body)

    # -- routes -----------------------------------------------------

    def submit_bytes(self, raw, fmt=None, retry=False,
                     max_wait_s=60.0):
        """POST a spec body; returns the job dict (with ``outcome``).

        With ``retry=True`` a 429 is retried after the server's
        ``Retry-After`` hint (at least :data:`MIN_RETRY_BACKOFF_S`)
        until *max_wait_s* is exhausted.
        """
        content_type = {
            "json": "application/json",
            "toml": "application/toml",
        }.get(fmt)
        if isinstance(raw, str):
            raw = raw.encode("utf-8")
        deadline = time.monotonic() + max_wait_s
        while True:
            try:
                return self._json("/v1/jobs", data=raw,
                                  content_type=content_type)
            except ServiceBusy as exc:
                remaining = deadline - time.monotonic()
                if not retry or remaining <= 0:
                    raise
                time.sleep(min(max(exc.retry_after_s,
                                   MIN_RETRY_BACKOFF_S), remaining))

    def submit_file(self, path, retry=False, max_wait_s=60.0):
        """Submit a ``.toml``/``.json`` spec file."""
        path = Path(path)
        fmt = path.suffix.lower().lstrip(".") or None
        return self.submit_bytes(path.read_bytes(), fmt=fmt,
                                 retry=retry, max_wait_s=max_wait_s)

    def job(self, job_id):
        return self._json(f"/v1/jobs/{job_id}")

    def jobs(self):
        return self._json("/v1/jobs")["jobs"]

    def result_bytes(self, key):
        _, body, _ = self._request(f"/v1/results/{key}")
        return body

    def result(self, key):
        return json.loads(self.result_bytes(key))

    def healthz(self):
        try:
            return self._json("/v1/healthz")
        except ServiceError as exc:
            # A draining server reports 503 but still answers; the
            # body (status/queue depth) is the interesting part.
            if exc.status == 503 and exc.body.get("status"):
                return exc.body
            raise

    def metrics(self):
        return self._json("/v1/metrics")

    def job_trace(self, job_id):
        """The merged Chrome trace events for one job."""
        return self._json(f"/v1/jobs/{job_id}/trace")

    # -- conveniences -----------------------------------------------

    def wait(self, job_id, timeout_s=120.0, poll_s=0.2):
        """Poll until the job reaches ``done``/``failed``; returns the
        final job dict (raises :class:`ServiceError` on timeout)."""
        deadline = time.monotonic() + timeout_s
        while True:
            job = self.job(job_id)
            if job["state"] in ("done", "failed"):
                return job
            if time.monotonic() >= deadline:
                raise ServiceError(
                    0, job,
                    f"job {job_id} still {job['state']} after "
                    f"{timeout_s:.0f} s",
                )
            time.sleep(poll_s)

    def run(self, path, timeout_s=120.0, retry=True):
        """Submit a spec file, wait, and return ``(job, result)``."""
        job = self.submit_file(path, retry=retry,
                               max_wait_s=timeout_s)
        job = self.wait(job["id"], timeout_s=timeout_s)
        if job["state"] != "done":
            raise ServiceError(0, job,
                               f"job failed: {job.get('error')}")
        return job, self.result(job["id"])
