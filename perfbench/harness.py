"""One benchmark workload in one fresh interpreter.

``bench.py`` launches this file once per set-up sample and once for the
measured (or traced) run::

    python3 perfbench/harness.py '<json parameters>'

and reads the result document it writes to ``parameters["out"]``.

Timings come from an op loop that runs after one untimed warm-up op and
checks every op's output.  Host speed on a shared machine drifts by tens
of percent within a minute, so a fixed calibration kernel
(:func:`calibration_kernel`) runs between ops and every raw time is
scaled by ``calib_ref_s / calib_local`` into reference-host seconds;
``calib_ref_s`` is the kernel's median on the reference run, recorded
in ``reference.json``.
"""

import gc
import hashlib
import json
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np

from layers import LayerTracer, chrome_events, combine, layer_metrics

HERE = Path(__file__).resolve().parent
REFERENCE = json.loads((HERE / "reference.json").read_text())

#: Relative tolerance of the pinned headline numbers; it covers the
#: last-ulp drift of BLAS-ordered energy sums across NumPy builds.
PIN_RTOL = 1e-9
#: Largest relative gap between a measured energy and the simulator's
#: ground truth that still counts as a correct measurement.
TRUTH_RTOL = 0.05
#: The calibration kernel runs again once this much op time has passed.
CALIB_EVERY_S = 0.5
#: A served job is polled this often until it finishes.
POLL_S = 0.005
#: Hits per ``serve-hit`` op.
HIT_BURST = 10


# -- calibration --------------------------------------------------------

class _Cohort:
    def __init__(self, size, death):
        self.size = size
        self.death = death
        self.refs = []


def calibration_kernel():
    """Run a fixed pure-Python plus NumPy workload; return its seconds.

    The mix mirrors the simulator's: short-lived Python objects wired
    into a reference graph with dict churn, then NumPy sorting and
    reductions over a large array.  It imports nothing from ``repro``,
    so a change to the program never moves it, and it runs with the
    cyclic garbage collector off, so the heap the program left behind
    does not move it either.
    """
    gc.disable()
    try:
        return _kernel()
    finally:
        gc.enable()


def _kernel():
    start = time.perf_counter()
    rnd = random.Random(2006)
    live = {}
    recent = []
    now = 0.0
    for i in range(20_000):
        u = rnd.random()
        cell = _Cohort(16 + int(u * 240), now + u * 5000.0)
        if recent and u < 0.6:
            cell.refs.append(recent[int(u * len(recent))])
        live[i] = cell
        recent.append(cell)
        if len(recent) > 64:
            recent.pop(0)
        now += cell.size
        if i % 2048 == 2047:
            for key in [k for k, c in live.items() if c.death < now]:
                del live[key]
    values = np.random.default_rng(2006).random(100_000)
    np.sort(values)
    np.dot(values, values)
    return time.perf_counter() - start


def normalize(raw_s, calib_s):
    """A raw host time in reference-host seconds."""
    return raw_s * REFERENCE["calib_ref_s"] / calib_s


# -- small helpers ------------------------------------------------------

def canonical(data):
    return json.dumps(data, sort_keys=True,
                      separators=(",", ":")).encode()


def peak_rss_mb(pid="self"):
    """VmHWM of a process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def relative_gap(value, reference):
    return abs(value - reference) / max(abs(reference), 1e-300)


def headline_of(totals):
    return {k: totals[k]
            for k in ("duration_s", "cpu_energy_j", "mem_energy_j")}


def final_checks(workload, warm, seed):
    """The workload's own verification of the warm-up op's output, and
    its headline numbers against the pins for *seed* (if any)."""
    problems = list(workload.verify(warm))
    headline = workload.headline(warm)
    pin = REFERENCE["pins"].get(workload.name)
    if pin is not None and pin["seed"] == seed:
        problems += [
            f"{name} = {headline[name]!r}, pinned {value!r}"
            for name, value in pin["values"].items()
            if relative_gap(headline[name], value) > PIN_RTOL
        ]
    return problems, headline


# -- in-process workloads -----------------------------------------------

class RunCell:
    """``repro run`` on the reference cell: simulate plus measure."""

    name = "run-p6-jikes"

    def __init__(self, seed, work_dir):
        from repro.core.experiment import ExperimentConfig

        self.config = ExperimentConfig(
            benchmark="_213_javac", vm="jikes", platform="p6",
            heap_mb=32, input_scale=0.5, seed=seed,
        )

    def op(self):
        from repro.core.experiment import Experiment
        from repro.export import result_to_dict

        return result_to_dict(Experiment(self.config).run())

    def encode(self, out):
        return canonical(out)

    def check_op(self, out):
        return []

    def headline(self, out):
        return headline_of(out["totals"])

    def verify(self, out):
        """The simulate/measure split path must give the same bytes,
        and the measured energy must sit near the simulator's truth."""
        from repro.core.experiment import Experiment
        from repro.export import result_to_dict

        experiment = Experiment(self.config)
        artifact = experiment.simulate().artifact()
        problems = []
        if canonical(result_to_dict(experiment.measure(artifact))) != \
                self.encode(out):
            problems.append("split simulate/measure path differs from run")
        truth = artifact.timeline().cpu_energy_j()
        if relative_gap(out["totals"]["cpu_energy_j"], truth) > TRUTH_RTOL:
            problems.append(f"cpu energy {out['totals']['cpu_energy_j']} "
                            f"far from truth {truth}")
        return problems


class BootstrapReplicates:
    """Two-replicate bootstrap over one in-memory simulation artifact."""

    name = "bootstrap-pxa255-kaffe"

    def __init__(self, seed, work_dir):
        from repro.core.experiment import Experiment, ExperimentConfig

        self.config = ExperimentConfig(
            benchmark="_213_javac", vm="kaffe", platform="pxa255",
            heap_mb=16, input_scale=0.15, seed=seed,
        )
        self.artifact = Experiment(self.config).simulate().artifact()

    def op(self):
        from repro.analysis.uncertainty import (
            DEFAULT_NOISE,
            bootstrap_uncertainty,
        )

        return bootstrap_uncertainty(self.config, self.artifact,
                                     noise=DEFAULT_NOISE, replicates=2)

    def encode(self, report):
        return canonical(report.as_dict())

    def check_op(self, report):
        return []

    def headline(self, report):
        return {name: report.totals[name].mean
                for name in ("cpu_energy_j", "mem_energy_j",
                             "total_energy_j")}

    def verify(self, report):
        timeline = self.artifact.timeline()
        truths = {"cpu_energy_j": timeline.cpu_energy_j(),
                  "mem_energy_j": timeline.mem_energy_j()}
        problems = []
        for name, truth in truths.items():
            dist = report.totals[name]
            if dist.truth != truth:
                problems.append(f"{name} truth {dist.truth} != {truth}")
            if relative_gap(dist.mean, truth) > TRUTH_RTOL:
                problems.append(f"{name} mean {dist.mean} far from "
                                f"truth {truth}")
        return problems


#: The DAQ x HPM overhead matrix of
#: ``examples/scenarios/overhead_p6_jikes.toml``, copied so an edit to
#: the example cannot silently change the benchmark.
SWEEP_AXES = {
    "benchmarks": ["_202_jess"], "vms": ["jikes"], "platforms": ["p6"],
    "collectors": ["SemiSpace"], "heap_mbs": [32], "input_scales": [0.2],
    "daq_periods_s": [40e-6, 200e-6, 1000e-6],
    "hpm_periods_s": ["default", 2e-3, 10e-3],
    "hpm_rotations": ["default", "xscale-pairs", "round-robin"],
}


class MeasurementSweep:
    """27 measurement cells served from one artifact-store hit."""

    name = "sweep-p6-jikes"

    def __init__(self, seed, work_dir):
        from repro.campaign.runner import CampaignRunner
        from repro.spec import ScenarioSpec

        spec = ScenarioSpec.from_dict({
            "name": "overhead-p6-jikes",
            "axes": dict(SWEEP_AXES, seeds=[seed]),
        })
        self.campaign = spec.campaign_config()
        self.artifact_dir = Path(work_dir) / "artifacts"
        first = CampaignRunner(workers=1, artifact_dir=self.artifact_dir) \
            .run(self.campaign)
        if first.summary.n_simulations != 1 or first.summary.n_failed:
            raise RuntimeError(f"sweep set-up: {first.summary.describe()}")

    def op(self):
        from repro.campaign.runner import CampaignRunner

        return CampaignRunner(workers=1, artifact_dir=self.artifact_dir) \
            .run(self.campaign)

    def encode(self, result):
        return canonical([cell.payload for cell in result.cells])

    def check_op(self, result):
        summary = result.summary
        problems = []
        if summary.n_simulations != 0:
            problems.append(f"n_simulations {summary.n_simulations} != 0")
        if summary.n_artifact_hits != 1:
            problems.append(
                f"n_artifact_hits {summary.n_artifact_hits} != 1")
        if summary.n_failed or summary.n_cells != 27:
            problems.append(summary.describe())
        return problems

    def headline(self, result):
        return {k: sum(cell.payload["totals"][k] for cell in result.cells)
                for k in ("duration_s", "cpu_energy_j", "mem_energy_j")}

    def verify(self, result):
        """Two cells re-run on the fused path must match byte for byte."""
        from repro.core.experiment import Experiment
        from repro.export import result_to_cell_dict

        problems = []
        cells = result.cells
        for index in sorted({0, self.campaign.seeds[0] % len(cells)}):
            fused = result_to_cell_dict(Experiment(cells[index].config).run())
            if canonical(fused) != canonical(cells[index].payload):
                problems.append(f"cell {index} differs from the fused path")
        return problems


# -- served workloads ---------------------------------------------------

#: The collector x heap ladder the served specs walk: every collector at
#: a tight and at a roomy heap.
SERVE_LADDER = [(collector, heap)
                for collector in ("SemiSpace", "MarkSweep", "GenCopy",
                                  "GenMS")
                for heap in (24, 64)]


def spec_body(seed, k):
    """The TOML spec of the *k*-th served job; new for every (seed, k)."""
    collector, heap = SERVE_LADDER[k % len(SERVE_LADDER)]
    digest = hashlib.sha256(f"perfbench|{seed}|{k}".encode()).hexdigest()
    return (
        '[axes]\nbenchmark = "_202_jess"\nvm = "jikes"\n'
        f'platform = "p6"\ncollector = "{collector}"\nheap_mb = {heap}\n'
        f'input_scale = 0.25\nseed = {int(digest[:7], 16)}\n'
    ).encode()


class Server:
    """One ``repro serve`` process with fresh stores and one thread
    worker; ``setup_raw_s`` is its launch-to-healthy time."""

    def __init__(self, work_dir, tag, traced=False):
        self.dir = Path(work_dir) / tag
        self.dir.mkdir(parents=True)
        self.dump_prefix = self.dir / "layers"
        cmd = [sys.executable]
        if traced:
            cmd += [str(HERE / "traced_serve.py"), str(self.dump_prefix)]
        else:
            cmd += ["-m", "repro"]
        cmd += ["-q", "serve", "--host", "127.0.0.1", "--port", "0",
                "--job-workers", "1",
                "--result-dir", str(self.dir / "results"),
                "--cache-dir", str(self.dir / "cells")]
        if traced:
            cmd.append("--trace-jobs")
        start = time.monotonic()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
        self.marks = 0
        try:
            self.url = self._await_url(deadline=start + 60)
            self._await_health(deadline=start + 60)
        except BaseException:
            self.stop()
            raise
        self.setup_raw_s = time.monotonic() - start

    def _await_url(self, deadline):
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    max(0.0, deadline - time.monotonic()))
        line = self.proc.stdout.readline().decode() if ready else ""
        if "listening on " not in line:
            raise RuntimeError("server did not report its address")
        return line.split("listening on ")[1].split()[0]

    def _await_health(self, deadline):
        while True:
            try:
                with urllib.request.urlopen(self.url + "/v1/healthz",
                                            timeout=5) as resp:
                    if resp.status == 200:
                        return
            except (urllib.error.URLError, ConnectionError):
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("server never answered /v1/healthz")
            time.sleep(0.005)

    def mark(self):
        """Ask the traced server for a layer-counter snapshot."""
        path = Path(f"{self.dump_prefix}.{self.marks}.json")
        self.marks += 1
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 30
        while not path.exists():
            if time.monotonic() > deadline:
                raise RuntimeError("traced server wrote no snapshot")
            time.sleep(0.01)
        return json.loads(path.read_text())

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class _Served:
    """One client of a :class:`Server`, sending one request at a time.

    An op's output is a list of ``(job id, spec body, result bytes)``,
    one per spec it submitted.  Specs differ between ops, so the bytes
    every op must share are the results' structure; a hit must also
    return exactly the bytes first served for its spec.
    """

    def __init__(self, seed, server):
        from repro.serve.client import ServiceClient

        self.seed = seed
        self.client = ServiceClient(server.url, timeout_s=60.0)
        self.k = 0
        self.served = {}       # spec body -> bytes of its miss
        self.timings = []      # per op: submit_s, wait_s, fetch_s, jobs

    def encode(self, out):
        return canonical([
            {"schema": payload["schema"], "n_cells": len(payload["cells"])}
            for payload in (json.loads(data) for _, _, data in out)])

    def check_op(self, out):
        problems = []
        for job_id, body, data in out:
            if json.loads(data)["spec_hash"] != job_id:
                problems.append("result does not belong to its job")
            if self.served.get(body, data) != data:
                problems.append("hit bytes differ from the miss bytes")
        return problems

    def headline(self, out):
        return headline_of(json.loads(out[0][2])["cells"][0]["totals"])

    def verify(self, out):
        """Served bytes must equal a direct in-process run of the spec."""
        from repro.campaign.runner import CampaignRunner
        from repro.serve.server import build_result_payload, encode_result
        from repro.spec import ScenarioSpec

        _, body, data = out[0]
        spec = ScenarioSpec.from_bytes(body, fmt="toml")
        direct = CampaignRunner(workers=1).run(spec.campaign_config())
        if encode_result(build_result_payload(spec, direct)) != data:
            return ["served bytes differ from a direct run"]
        return []

    def _submit(self, body, expected_outcome):
        start = time.perf_counter()
        job = self.client.submit_bytes(body, fmt="toml")
        if job["outcome"] != expected_outcome:
            raise RuntimeError(f"outcome {job['outcome']}, expected "
                               f"{expected_outcome}")
        return job, time.perf_counter() - start


class ServeMiss(_Served):
    """Served jobs that execute: submit a new spec, poll, fetch."""

    name = "serve-miss"

    def op(self):
        body = spec_body(self.seed, self.k)
        self.k += 1
        job, submit_s = self._submit(body, "queued")
        start = time.perf_counter()
        while job["state"] not in ("done", "failed"):
            time.sleep(POLL_S)
            job = self.client.job(job["id"])
        if job["state"] != "done":
            raise RuntimeError(f"job failed: {job.get('error')}")
        fetched = time.perf_counter()
        data = self.client.result_bytes(job["id"])
        self.timings.append({
            "submit_s": submit_s, "wait_s": fetched - start,
            "fetch_s": time.perf_counter() - fetched, "jobs": [job["id"]],
        })
        return [(job["id"], body, data)]


class ServeHit(_Served):
    """Bursts of resubmitted specs answered from the result store.

    A single hit takes a few milliseconds, and how long depends on how
    the host schedules the client and server processes that hand it
    back and forth; an op of :data:`HIT_BURST` hits in a row averages
    that out.
    """

    name = "serve-hit"

    def __init__(self, seed, server):
        super().__init__(seed, server)
        for k in (0, 1):
            body = spec_body(seed, k)
            job, _ = self._submit(body, "queued")
            job = self.client.wait(job["id"], timeout_s=120.0, poll_s=POLL_S)
            if job["state"] != "done":
                raise RuntimeError(f"set-up job failed: {job.get('error')}")
            self.served[body] = self.client.result_bytes(job["id"])
        self.bodies = list(self.served)

    def op(self):
        out = []
        timing = {"submit_s": 0.0, "wait_s": 0.0, "fetch_s": 0.0}
        for _ in range(HIT_BURST):
            body = self.bodies[self.k % len(self.bodies)]
            self.k += 1
            job, submit_s = self._submit(body, "cached")
            start = time.perf_counter()
            out.append((job["id"], body,
                        self.client.result_bytes(job["id"])))
            timing["submit_s"] += submit_s
            timing["fetch_s"] += time.perf_counter() - start
        self.timings.append(timing)
        return out


def job_span_means(client, job_ids):
    """Mean seconds per job of each service/worker span kind."""
    names = {"validate": "serve.validate_s",
             "queue wait": "serve.queue_wait_s",
             "lease acquire": "serve.lease_s",
             "lease wait": "serve.lease_s",
             "campaign": "serve.campaign_s",
             "store write": "serve.store_write_s"}
    sums = dict.fromkeys(names.values(), 0.0)
    for job_id in job_ids:
        for event in client.job_trace(job_id):
            metric = names.get(event.get("name"))
            if metric is not None and event.get("ph") == "X":
                sums[metric] += event["dur"] / 1e6
    n = max(len(job_ids), 1)
    return {name: total / n for name, total in sums.items()}


# -- the op loop and its metrics ----------------------------------------

def op_loop(workload, reference, seconds, quick, tracer=None):
    """Time ops until *seconds* pass (two ops when *quick*).

    Every op's output must encode to *reference* (the warm-up op's
    bytes) and pass the workload's own check; an op that raises or
    fails a check is recorded as failed, never fatal.  After each op a
    full garbage collection gives the next op a clean heap.  The
    calibration kernel runs before the first op, after every
    :data:`CALIB_EVERY_S` of op time and after the last op; each op is
    normalized by the mean of the two kernel runs around it, which
    follows the host's speed swings better than one median per run.
    With a *tracer* the layer counters the ops spent are summed into
    ``loop["layer_spent"]``.
    """
    records = []
    pending = []
    kernels = [calibration_kernel()]
    since_kernel = 0.0
    deadline = time.monotonic() + seconds
    spent = None
    while True:
        before = tracer.totals() if tracer is not None else None
        start = time.perf_counter()
        error = None
        try:
            out = workload.op()
        except Exception as exc:  # noqa: BLE001 - a failed op, not a crash
            error = f"{type(exc).__name__}: {exc}"
        raw = time.perf_counter() - start
        if tracer is not None:
            op_spent = combine(tracer.totals(), before, -1)
            spent = op_spent if spent is None else combine(spent, op_spent)
        if error is None:
            problems = list(workload.check_op(out))
            if workload.encode(out) != reference:
                problems.append("output bytes differ from op 1")
            error = "; ".join(problems) or None
        record = {"raw_s": raw, "ok": error is None}
        if error is not None:
            record["error"] = error
        records.append(record)
        pending.append(record)
        out = None
        gc.collect()
        since_kernel += raw
        done = len(records) >= 2 and (
            quick or time.monotonic() >= deadline)
        if done or since_kernel >= CALIB_EVERY_S:
            kernels.append(calibration_kernel())
            for rec in pending:
                rec["calib_s"] = (kernels[-2] + kernels[-1]) / 2
                rec["norm_s"] = normalize(rec["raw_s"], rec["calib_s"])
            pending = []
            since_kernel = 0.0
        if done:
            return {"ops": records, "kernels": kernels,
                    "layer_spent": spent}


def op_metrics(ops):
    """End-to-end op metrics (all but ``setup_s`` and memory).

    Percentiles are over successful ops (75th: exclusive method);
    ``ops_per_s`` is successful ops per normalized second of op time.
    """
    norm = [op["norm_s"] for op in ops if op["ok"]]
    if not norm:
        raise RuntimeError("every op failed")
    p75 = statistics.quantiles(norm, n=4)[2] if len(norm) > 1 else norm[0]
    return {"op_p50_s": statistics.median(norm), "op_p75_s": p75,
            "ops_per_s": len(norm) / sum(norm)}


#: Service metrics of the traced launch; zero for in-process workloads.
SERVE_LAYER_METRICS = (
    "serve.submit_s", "serve.wait_s", "serve.fetch_s", "serve.validate_s",
    "serve.queue_wait_s", "serve.lease_s", "serve.campaign_s",
    "serve.store_write_s", "serve.dedup_ratio",
)


def traced_metrics(plain_ops, traced_ops, spent):
    """Per-op layer metrics of the traced ops, and tracing's overhead
    as the ratio of traced to untraced op medians, minus one."""
    op_s = statistics.fmean(op["raw_s"] for op in traced_ops)
    out = layer_metrics(spent, len(traced_ops), op_s)
    out.update(dict.fromkeys(SERVE_LAYER_METRICS, 0.0))
    out["traced_op_s"] = op_s
    out["tracing_overhead"] = (op_metrics(traced_ops)["op_p50_s"]
                               / op_metrics(plain_ops)["op_p50_s"] - 1.0)
    return out


def setup_sample(raw_s):
    calib = statistics.median(calibration_kernel() for _ in range(3))
    return {"raw_s": raw_s, "calib_s": calib,
            "norm_s": normalize(raw_s, calib)}


def warm_up(workload):
    """The untimed first op: its bytes are every later op's reference."""
    warm = workload.op()
    return warm, workload.encode(warm), list(workload.check_op(warm))


# -- launches -------------------------------------------------------------

def run_inprocess(cls, params):
    seed, seconds, quick = params["seed"], params["seconds"], params["quick"]
    workload = cls(seed, params["work"])
    warm, reference, problems = warm_up(workload)
    doc = {"setup": setup_sample(time.monotonic() - params["launched_at"])}
    if params["mode"] == "setup":
        return doc
    if params["mode"] == "trace":
        plain = op_loop(workload, reference, seconds / 2, quick)
        tracer = LayerTracer().install()
        try:
            before = tracer.totals()
            traced = op_loop(workload, reference, seconds / 2, quick,
                             tracer=tracer)
            after = tracer.totals()
        finally:
            tracer.uninstall()
        doc["ops"] = plain["ops"] + traced["ops"]
        doc["layers"] = traced_metrics(plain["ops"], traced["ops"],
                                       traced["layer_spent"])
        doc["chrome"] = chrome_events(tracer.spans(), before, after,
                                      len(traced["ops"]), os.getpid())
        doc["missing"] = tracer.missing
    else:
        loop = op_loop(workload, reference, seconds, quick)
        doc["ops"], doc["kernels"] = loop["ops"], loop["kernels"]
        doc["metrics"] = dict(op_metrics(doc["ops"]),
                              peak_rss_mb=peak_rss_mb())
    checked, doc["headline"] = final_checks(workload, warm, seed)
    doc["problems"] = problems + checked
    return doc


def run_served(cls, params):
    seed, seconds, quick = params["seed"], params["seconds"], params["quick"]
    work = params["work"]
    if params["mode"] != "trace":
        server = Server(work, "server")
        try:
            doc = {"setup": setup_sample(server.setup_raw_s)}
            if params["mode"] == "setup":
                return doc
            workload = cls(seed, server)
            warm, reference, problems = warm_up(workload)
            loop = op_loop(workload, reference, seconds, quick)
            doc["ops"], doc["kernels"] = loop["ops"], loop["kernels"]
            doc["metrics"] = dict(op_metrics(doc["ops"]),
                                  peak_rss_mb=peak_rss_mb(server.proc.pid))
        finally:
            server.stop()
    else:
        server = Server(work, "plain")
        try:
            workload = cls(seed, server)
            _, reference, _ = warm_up(workload)
            plain = op_loop(workload, reference, seconds / 2, quick)["ops"]
        finally:
            server.stop()
        server = Server(work, "traced", traced=True)
        try:
            workload = cls(seed, server)
            warm, reference, problems = warm_up(workload)
            workload.timings.clear()
            # The traced server counts from its launch; the marks
            # bracket the timed ops alone.
            before = server.mark()
            traced = op_loop(workload, reference, seconds / 2, quick)["ops"]
            after = server.mark()
            spans = job_span_means(workload.client, [
                job for t in workload.timings for job in t.get("jobs", ())])
            dedup = workload.client.metrics()["derived"]["dedup_rate"]
        finally:
            server.stop()
        layers = traced_metrics(plain, traced, combine(after, before, -1))
        for name in ("submit_s", "wait_s", "fetch_s"):
            layers[f"serve.{name}"] = statistics.fmean(
                [t[name] for t in workload.timings] or [0.0])
        layers.update(spans)
        layers["serve.dedup_ratio"] = dedup
        final = json.loads(Path(f"{server.dump_prefix}.final.json")
                           .read_text())
        doc = {"ops": plain + traced, "layers": layers,
               "chrome": chrome_events(final["spans"], before, after,
                                       len(traced), final["pid"]),
               "missing": final["missing"]}
    checked, doc["headline"] = final_checks(workload, warm, seed)
    doc["problems"] = problems + checked
    return doc


WORKLOADS = {cls.name: (cls, runner) for cls, runner in (
    (RunCell, run_inprocess),
    (BootstrapReplicates, run_inprocess),
    (MeasurementSweep, run_inprocess),
    (ServeMiss, run_served),
    (ServeHit, run_served),
)}


def main(argv):
    params = json.loads(argv[0])
    cls, runner = WORKLOADS[params["workload"]]
    doc = runner(cls, params)
    Path(params["out"]).write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
