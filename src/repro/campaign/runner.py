"""Multiprocess campaign executor with caching and graceful degradation.

The runner takes the expanded cell list and drives it to completion:

* cells whose payload is already in the on-disk cache are served
  without simulating anything;
* the rest are grouped by *sim-key* (the content hash of their
  simulation-only config subset — see
  :func:`repro.campaign.artifacts.sim_key`): each group executes the
  simulate phase once and fans out one measurement pass per cell, so a
  DAQ-period sweep pays for one execution instead of N.  With an
  ``artifact_dir`` the recorded execution also persists across
  campaign runs through the content-addressed
  :class:`~repro.campaign.artifacts.ArtifactStore`;
* one loop keeps up to ``workers`` groups in flight on a
  ``concurrent.futures.ProcessPoolExecutor`` (in the calling thread
  when ``workers == 1``), each cell under a per-cell wall-clock budget
  enforced *inside* the worker with an interval timer, with a bounded
  number of retries;
* a cell that still fails records a structured error entry and the
  campaign continues — one poisoned configuration cannot abort a
  thousand-cell matrix;
* per-cell wall time, cache hit rate and worker throughput are folded
  into a machine-readable :class:`CampaignSummary`.

Determinism: a cell's result depends only on its
:class:`~repro.core.experiment.ExperimentConfig` (the simulator is
seeded, and measurement RNGs derive from the cell seed), so the same
campaign produces bit-identical per-cell payloads whether it runs
serially, on two workers, or from cache.
"""

import signal
import threading
import time
import traceback
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.campaign.cache import ResultCache
from repro.errors import (
    CampaignError,
    CellTimeoutError,
    OutOfMemoryError,
)
from repro.obs import NULL_OBS


def _oom_payload(config, error):
    """The structured payload for a cell whose simulation ran out of
    heap — a *legitimate* outcome (the paper's tables have OOM cells),
    shared by the fused and the artifact-sharing execution paths so
    both produce identical bytes."""
    return {
        "schema": "repro-cell-v1",
        "oom": True,
        "config": {
            "benchmark": config.benchmark,
            "vm": config.vm,
            "platform": config.platform,
            "collector": config.collector,
            "heap_mb": config.heap_mb,
            "seed": config.seed,
            "input_scale": config.input_scale,
        },
        "error": error,
    }


def _failure(exc, wall_s=0.0, **fields):
    """The outcome dict of a cell that failed with *exc*."""
    return {"ok": False, "error": str(exc),
            "error_type": type(exc).__name__, "wall_s": wall_s,
            **fields}


class _CellTimer:
    """Per-cell wall-clock budget via SIGALRM (worker main thread only).

    The alarm raises :class:`~repro.errors.CellTimeoutError` wherever
    the main thread is.  Where Python drops that exception (inside a
    ``gc.callbacks`` hook it is reported as unraisable), the timer
    still remembers that it fired, and leaving the ``with`` block
    raises it.
    """

    def __init__(self, timeout_s):
        self.timeout_s = timeout_s
        self.armed = False
        self.fired = False

    def _timeout(self):
        return CellTimeoutError(
            f"cell exceeded its {self.timeout_s:g} s budget")

    def __enter__(self):
        if self.timeout_s and (
            threading.current_thread() is threading.main_thread()
        ):
            def _on_alarm(signum, frame):
                self.fired = True
                raise self._timeout()

            signal.signal(signal.SIGALRM, _on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.timeout_s)
            self.armed = True
        return self

    def __exit__(self, exc_type, exc, tb):
        if self.armed:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self.armed = False
        if self.fired and exc_type is None:
            raise self._timeout()
        return False


def _cell_obs(trace_path):
    if trace_path is None:
        return None
    from repro.obs import Observability

    return Observability.create(trace=True, metrics=True)


def _execute_cell(config, timeout_s, trace_path=None):
    """Worker entry point: run one cell fused, return a plain-dict
    outcome.

    Everything that can go wrong is folded into the returned dict (no
    exception ever crosses the process boundary), and simulated OOM is
    a *legitimate* outcome — the paper's tables have OOM cells too.

    When ``trace_path`` is given the cell runs fully instrumented and
    its Chrome trace (with embedded metrics) is written there by the
    worker itself, so per-cell traces work under any worker count.

    This is the fused reference path; campaign execution goes through
    :func:`_execute_group`, which shares one simulation across cells
    with the same sim-key and is byte-identical to this path (the
    golden equivalence gate asserts it).
    """
    from repro.core.experiment import Experiment
    from repro.export import result_to_cell_dict

    obs = _cell_obs(trace_path)
    start = time.perf_counter()
    try:
        with _CellTimer(timeout_s):
            result = Experiment(config, obs=obs).run()
            payload = result_to_cell_dict(result)
        if obs is not None:
            from repro.obs.chrome import write_chrome_trace

            write_chrome_trace(trace_path, obs.tracer, obs.metrics)
        return {"ok": True, "payload": payload,
                "wall_s": time.perf_counter() - start}
    except OutOfMemoryError as exc:
        return {"ok": True, "payload": _oom_payload(config, str(exc)),
                "wall_s": time.perf_counter() - start}
    except BaseException as exc:  # noqa: BLE001 - reported, not hidden
        return _failure(exc, time.perf_counter() - start,
                        traceback=traceback.format_exc())


def _execute_group(configs, timeout_s, trace_paths=None,
                   artifact_dir=None):
    """Worker entry point: run a group of cells that share one sim-key.

    The first cell simulates (or loads the persisted artifact when
    ``artifact_dir`` is given) and every cell measures through one
    :class:`~repro.core.simulation.MeasurementSession` over the shared
    :class:`~repro.core.simulation.SimulationArtifact` — this is how a
    DAQ-period sweep pays for one execution instead of N, how cells
    that differ only in HPM period or rotation share one run
    reconstruction, one perturbation report and one DAQ acquisition
    (grid order keeps such cells adjacent), and how every cell with one
    HPM period shares one HPM timer pass.  The group's sim-key is the
    one :func:`~repro.campaign.artifacts.sim_key` memoized on each cell
    when the runner grouped it.  Outcomes
    come back in *configs* order, one plain dict per cell, each marked
    with the group's ``sim_key`` and whether this cell ran the
    simulation (``simulated``) or found it on disk (``artifact_hit``).

    Failure isolation matches the per-cell path: a cell that fails
    (timeout included) folds into its own outcome dict and the rest of
    the group continues.  A simulated OOM is shared ground truth — the
    simulation config is identical across the group, so the first
    cell's OOM is replicated to the others without re-running it.
    """
    from repro.campaign.artifacts import ArtifactStore, sim_key
    from repro.core.experiment import Experiment
    from repro.core.simulation import MeasurementSession
    from repro.export import result_to_cell_dict

    store = ArtifactStore(artifact_dir) if artifact_dir else None
    outcomes = []
    session = None
    oom_error = None
    try:
        key = sim_key(configs[0])
    except BaseException as exc:  # noqa: BLE001 - fold into outcomes
        tb = traceback.format_exc()
        return [_failure(exc, traceback=tb) for _ in configs]
    for pos, config in enumerate(configs):
        trace_path = trace_paths[pos] if trace_paths else None
        obs = _cell_obs(trace_path)
        start = time.perf_counter()
        simulated = False
        artifact_hit = False
        try:
            with _CellTimer(timeout_s):
                if oom_error is not None:
                    payload = _oom_payload(config, oom_error)
                else:
                    experiment = Experiment(config, obs=obs)
                    if session is None:
                        artifact, artifact_hit = \
                            experiment.load_or_simulate(store)
                        simulated = not artifact_hit
                        session = MeasurementSession(artifact)
                    payload = result_to_cell_dict(
                        experiment.measure(session)
                    )
            if obs is not None:
                from repro.obs.chrome import write_chrome_trace

                write_chrome_trace(trace_path, obs.tracer, obs.metrics)
            outcomes.append({
                "ok": True, "payload": payload,
                "wall_s": time.perf_counter() - start,
                "sim_key": key, "simulated": simulated,
                "artifact_hit": artifact_hit,
            })
        except OutOfMemoryError as exc:
            oom_error = str(exc)
            outcomes.append({
                "ok": True, "payload": _oom_payload(config, oom_error),
                "wall_s": time.perf_counter() - start,
                "sim_key": key, "simulated": False,
                "artifact_hit": False,
            })
        except BaseException as exc:  # noqa: BLE001 - reported, not hidden
            outcomes.append(_failure(
                exc, time.perf_counter() - start,
                traceback=traceback.format_exc(), sim_key=key,
            ))
    return outcomes


@dataclass
class CellResult:
    """Outcome of one campaign cell."""

    config: object               # ExperimentConfig
    ok: bool
    payload: Optional[dict] = None
    error: Optional[str] = None
    error_type: Optional[str] = None
    attempts: int = 1
    wall_s: float = 0.0
    from_cache: bool = False
    #: Content hash of the cell's simulation-only config subset; cells
    #: sharing it shared one recorded execution (``None`` for cached
    #: cells, which never reached the executor).
    sim_key: Optional[str] = None
    #: True when this cell actually ran the simulate phase (at most one
    #: per sim-key per campaign run).
    simulated: bool = False
    #: True when this cell loaded its simulation from the artifact
    #: store instead of executing it.
    artifact_hit: bool = False

    @property
    def oom(self):
        return bool(self.payload and self.payload.get("oom"))


@dataclass
class CampaignSummary:
    """Machine-readable campaign metrics.

    Beyond the ok/failed/cached tallies, the summary now accounts for
    the failure modes that used to be graceful but silent in aggregate:
    retries spent (``n_retries`` extra attempts across ``n_retried``
    cells), cells whose final outcome was a timeout (``n_timeouts``),
    and per-cell wall-time statistics over the cells actually executed.
    """

    n_cells: int
    n_ok: int
    n_failed: int
    n_cached: int
    n_executed: int
    wall_s: float
    workers: int
    cell_wall_s: dict = field(default_factory=dict)  # index -> seconds
    n_retried: int = 0        # cells that needed more than one attempt
    n_retries: int = 0        # extra attempts summed over those cells
    n_timeouts: int = 0       # cells whose final outcome was a timeout
    n_simulations: int = 0    # simulate phases actually executed
    n_sim_keys: int = 0       # distinct sim-keys among executed cells
    n_artifact_hits: int = 0  # cells served from the artifact store

    @property
    def cache_hit_rate(self):
        return self.n_cached / self.n_cells if self.n_cells else 0.0

    @property
    def cells_per_second(self):
        return self.n_cells / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def mean_cell_wall_s(self):
        """Mean wall seconds over cells actually executed (not cached)."""
        executed = [s for s in self.cell_wall_s.values() if s > 0]
        if not executed:
            return 0.0
        return sum(executed) / len(executed)

    @property
    def max_cell_wall_s(self):
        executed = [s for s in self.cell_wall_s.values() if s > 0]
        return max(executed) if executed else 0.0

    def as_dict(self):
        return {
            "n_cells": self.n_cells,
            "n_ok": self.n_ok,
            "n_failed": self.n_failed,
            "n_cached": self.n_cached,
            "n_executed": self.n_executed,
            "cache_hit_rate": self.cache_hit_rate,
            "n_retried": self.n_retried,
            "n_retries": self.n_retries,
            "n_timeouts": self.n_timeouts,
            "n_simulations": self.n_simulations,
            "n_sim_keys": self.n_sim_keys,
            "n_artifact_hits": self.n_artifact_hits,
            "wall_s": self.wall_s,
            "workers": self.workers,
            "cells_per_second": self.cells_per_second,
            "mean_cell_wall_s": self.mean_cell_wall_s,
            "max_cell_wall_s": self.max_cell_wall_s,
            "cell_wall_s": dict(self.cell_wall_s),
        }

    def describe(self):
        text = (
            f"{self.n_cells} cells: {self.n_ok} ok, {self.n_failed} "
            f"failed, {self.n_cached} from cache "
            f"({100.0 * self.cache_hit_rate:.0f}% hit rate); "
            f"{self.wall_s:.2f} s wall on {self.workers} worker(s) "
            f"({self.cells_per_second:.1f} cells/s)"
        )
        if self.n_executed:
            text += (
                f"; per-cell wall mean {self.mean_cell_wall_s:.2f} s, "
                f"max {self.max_cell_wall_s:.2f} s"
            )
        if self.n_retries:
            text += (
                f"; {self.n_retries} retr"
                f"{'y' if self.n_retries == 1 else 'ies'} across "
                f"{self.n_retried} cell(s)"
            )
        if self.n_timeouts:
            text += f"; {self.n_timeouts} timeout(s)"
        if self.n_executed and self.n_sim_keys:
            text += (
                f"; {self.n_simulations} simulation(s) across "
                f"{self.n_sim_keys} sim-key(s)"
            )
            if self.n_artifact_hits:
                text += f", {self.n_artifact_hits} artifact hit(s)"
        return text


@dataclass
class CampaignResult:
    """Everything a campaign produced, in grid order."""

    cells: list                  # [CellResult, ...]
    summary: CampaignSummary

    def __iter__(self):
        return iter(self.cells)

    def __len__(self):
        return len(self.cells)

    def ok_cells(self):
        return [c for c in self.cells if c.ok]

    def failed_cells(self):
        return [c for c in self.cells if not c.ok]

    def records(self):
        """Every cell's :class:`~repro.export.CellRecord`, keyed by its
        config; raises :class:`~repro.errors.CampaignError` naming the
        first failed cell (out of memory is an outcome, not a failure:
        its record has ``oom`` set)."""
        from repro.export import record_from_payload

        failed = self.failed_cells()
        if failed:
            cell, cfg = failed[0], failed[0].config
            raise CampaignError(
                f"{cfg.benchmark} {cfg.vm}/{cfg.platform} "
                f"{cfg.collector or 'default'} @ {cfg.heap_mb} MB "
                f"failed: [{cell.error_type}] {cell.error}"
            )
        return {c.config: record_from_payload(c.payload)
                for c in self.cells}

    def as_dict(self):
        """JSON-serializable campaign report."""
        from dataclasses import asdict

        return {
            "schema": "repro-campaign-v1",
            "summary": self.summary.as_dict(),
            "cells": [
                {
                    "config": asdict(cell.config),
                    "ok": cell.ok,
                    "from_cache": cell.from_cache,
                    "attempts": cell.attempts,
                    "wall_s": cell.wall_s,
                    "error": cell.error,
                    "error_type": cell.error_type,
                    "payload": cell.payload,
                }
                for cell in self.cells
            ],
        }


class _InlineExecutor:
    """The one-worker backend: each submitted call runs at once in the
    calling thread (so a cell's ``SIGALRM`` budget works there) and
    comes back as a finished future."""

    def submit(self, fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:  # noqa: BLE001 - a pool would fold it too
            future.set_exception(exc)
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class CampaignRunner:
    """Executes campaigns: cache lookup, scheduling, retry, metrics.

    The only code that runs more than one cell: ``repro campaign`` and
    ``sweep``, the service, the :mod:`repro.analysis` sweeps and the
    figure harness all hand it their grid.  With ``cache_dir``, cell
    payloads are memoized in :attr:`cache`, a
    :class:`~repro.campaign.cache.ResultCache` whose ``hits`` and
    ``misses`` count this runner's lookups.
    """

    def __init__(self, workers=1, cache_dir=None, timeout_s=None,
                 retries=1, progress=None, obs=None, trace_dir=None,
                 artifact_dir=None):
        if workers < 1:
            raise CampaignError("workers must be >= 1")
        if retries < 0:
            raise CampaignError("retries cannot be negative")
        if timeout_s is not None and timeout_s <= 0:
            raise CampaignError("timeout_s must be positive")
        self.workers = int(workers)
        #: When set, simulation artifacts persist under this directory
        #: (content-addressed by sim-key) and are shared across
        #: campaign runs; without it, sharing is in-memory within one
        #: run only.
        self.artifact_dir = (
            str(artifact_dir) if artifact_dir is not None else None
        )
        self.cache = (
            ResultCache(cache_dir) if cache_dir is not None else None
        )
        self.timeout_s = timeout_s
        self.retries = int(retries)
        self.progress = progress
        #: Campaign-level observability: wall-clock cell spans, cache
        #: hit/miss/retry/timeout counters, a per-cell wall histogram.
        self.obs = obs if obs is not None else NULL_OBS
        #: When set, each executed cell writes a Chrome trace (with
        #: embedded metrics) to ``trace_dir/cell-<index>.json`` from
        #: inside its worker process.
        self.trace_dir = Path(trace_dir) if trace_dir is not None else None

    # -- public API ---------------------------------------------------

    def run(self, campaign):
        """Run *campaign* (a :class:`~repro.spec.ScenarioSpec` or an
        explicit sequence of :class:`ExperimentConfig` cells); returns a
        :class:`CampaignResult` with one :class:`CellResult` per cell,
        in grid order."""
        # Duck-typed: repro.spec imports this package (via
        # repro.campaign.grid), so the runner cannot import it back.
        if hasattr(campaign, "cells"):
            cells = campaign.cells()
        else:
            cells = list(campaign)
            if not cells:
                raise CampaignError("campaign has no cells")
        if self.trace_dir is not None:
            self.trace_dir.mkdir(parents=True, exist_ok=True)
        log = self.obs.log
        metrics = self.obs.metrics
        log.info("campaign.start", n_cells=len(cells),
                 workers=self.workers)
        start = time.perf_counter()
        results = [None] * len(cells)

        with self.obs.tracer.wall_span("campaign", track="campaign",
                                       n_cells=len(cells),
                                       workers=self.workers):
            pending = []
            for i, config in enumerate(cells):
                cached = (self.cache.get(config)
                          if self.cache is not None else None)
                if cached is not None:
                    metrics.counter("campaign.cache_hits").inc()
                    results[i] = CellResult(
                        config=config, ok=True, payload=cached,
                        attempts=0, wall_s=0.0, from_cache=True,
                    )
                    self._report(i, len(cells), results[i])
                else:
                    if self.cache is not None:
                        metrics.counter("campaign.cache_misses").inc()
                    pending.append(i)

            if pending:
                self._run_groups(cells, pending, results)

        wall = time.perf_counter() - start
        n_ok = sum(1 for r in results if r.ok)
        n_cached = sum(1 for r in results if r.from_cache)
        retried = [r for r in results if r.attempts > 1]
        n_timeouts = sum(
            1 for r in results
            if not r.ok and r.error_type == "CellTimeoutError"
        )
        sim_keys = {r.sim_key for r in results if r.sim_key}
        summary = CampaignSummary(
            n_cells=len(cells),
            n_ok=n_ok,
            n_failed=len(cells) - n_ok,
            n_cached=n_cached,
            n_executed=len(cells) - n_cached,
            wall_s=wall,
            workers=self.workers,
            cell_wall_s={i: r.wall_s for i, r in enumerate(results)},
            n_retried=len(retried),
            n_retries=sum(r.attempts - 1 for r in retried),
            n_timeouts=n_timeouts,
            n_simulations=sum(1 for r in results if r.simulated),
            n_sim_keys=len(sim_keys),
            n_artifact_hits=sum(1 for r in results if r.artifact_hit),
        )
        if metrics.enabled:
            metrics.counter("campaign.cells").inc(len(cells))
            metrics.counter("campaign.retries").inc(summary.n_retries)
            metrics.counter("campaign.timeouts").inc(n_timeouts)
            metrics.counter("campaign.failures").inc(summary.n_failed)
        log.info("campaign.finish", **{
            k: v for k, v in summary.as_dict().items()
            if k != "cell_wall_s"
        })
        return CampaignResult(cells=results, summary=summary)

    def _cell_trace_path(self, index):
        if self.trace_dir is None:
            return None
        return self.trace_dir / f"cell-{index:04d}.json"

    # -- execution backends -------------------------------------------

    def _sim_groups(self, cells, pending):
        """Partition pending cell indices by simulation identity.

        Cells sharing a sim-key form one group and pay for one
        simulate phase; grid order is preserved both across groups
        (first-appearance order) and within each group.  A config
        whose sim-key cannot be computed gets a private group — it
        will fail inside the worker with a structured error, like any
        other poisoned cell.
        """
        from repro.campaign.artifacts import sim_key

        groups = {}
        order = []
        for i in pending:
            try:
                key = sim_key(cells[i])
            except Exception:  # noqa: BLE001 - fail inside the worker
                key = f"ungrouped-{i}"
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(i)
        return [groups[key] for key in order]

    def _executor(self):
        if self.workers == 1:
            return _InlineExecutor()
        return ProcessPoolExecutor(max_workers=self.workers)

    def _run_groups(self, cells, pending, results):
        """Drive every pending cell to its final outcome.

        At most ``workers`` sim-key groups are in flight, so progress
        is reported as each group finishes.  A failed cell with
        attempts left is requeued as a group of its own (reusing the
        artifact store's execution when there is one).  If the pool
        dies, every cell in flight has failed an attempt and a fresh
        pool takes over.
        """
        attempts = {i: 0 for i in pending}
        queue = deque(self._sim_groups(cells, pending))
        futures = {}

        def settle(i, outcome):
            if not outcome["ok"] and attempts[i] <= self.retries:
                queue.append([i])
                return
            results[i] = self._finish_cell(cells[i], outcome, attempts[i])
            self._report(i, len(cells), results[i])

        pool = self._executor()
        try:
            while queue or futures:
                broken = False
                while queue and len(futures) < self.workers:
                    indices = queue.popleft()
                    try:
                        fut = pool.submit(
                            _execute_group, [cells[i] for i in indices],
                            self.timeout_s,
                            [self._cell_trace_path(i) for i in indices],
                            self.artifact_dir,
                        )
                    except BrokenProcessPool:
                        queue.appendleft(indices)
                        broken = True
                        break
                    for i in indices:
                        attempts[i] += 1
                    futures[fut] = indices
                if futures and not broken:
                    done, _ = wait(futures, return_when=FIRST_COMPLETED)
                    for fut in done:
                        indices = futures.pop(fut)
                        exc = fut.exception()
                        if isinstance(exc, BrokenProcessPool):
                            broken = True
                            exc = BrokenProcessPool("worker process died")
                        outcomes = (
                            fut.result() if exc is None
                            else [_failure(exc) for _ in indices]
                        )
                        for i, outcome in zip(indices, outcomes):
                            settle(i, outcome)
                if broken:
                    # Every outstanding future fails the same way.
                    lost = BrokenProcessPool("worker pool broke")
                    for indices in futures.values():
                        for i in indices:
                            settle(i, _failure(lost))
                    futures.clear()
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = self._executor()
        finally:
            pool.shutdown(wait=True, cancel_futures=True)

    # -- bookkeeping --------------------------------------------------

    def _finish_cell(self, config, outcome, attempts):
        if outcome["ok"]:
            if self.cache is not None:
                self.cache.put(config, outcome["payload"])
            cell = CellResult(
                config=config, ok=True, payload=outcome["payload"],
                attempts=attempts, wall_s=outcome["wall_s"],
                sim_key=outcome.get("sim_key"),
                simulated=outcome.get("simulated", False),
                artifact_hit=outcome.get("artifact_hit", False),
            )
        else:
            cell = CellResult(
                config=config, ok=False,
                error=outcome.get("error"),
                error_type=outcome.get("error_type"),
                attempts=attempts, wall_s=outcome["wall_s"],
                sim_key=outcome.get("sim_key"),
            )
            self.obs.log.warning(
                "campaign.cell_failed", benchmark=config.benchmark,
                vm=config.vm, heap_mb=config.heap_mb,
                error_type=cell.error_type, error=cell.error,
                attempts=attempts,
            )
        self._observe_cell(cell)
        return cell

    def _observe_cell(self, cell):
        """Wall span + wall-time histogram for one executed cell."""
        self.obs.metrics.histogram("campaign.cell_wall_s").observe(
            cell.wall_s
        )
        tracer = self.obs.tracer
        if tracer.enabled:
            cfg = cell.config
            tracer.add_wall_span(
                f"{cfg.benchmark} {cfg.vm}@{cfg.heap_mb}MB", "cells",
                max(tracer.now_wall() - cell.wall_s, 0.0), cell.wall_s,
                ok=cell.ok, attempts=cell.attempts,
                error_type=cell.error_type,
            )

    def _report(self, index, total, cell):
        if self.progress is not None:
            self.progress(index, total, cell)
