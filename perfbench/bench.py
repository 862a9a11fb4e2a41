"""perfbench: what users of ``repro`` wait for, end to end and by layer.

One run measures one workload::

    python3 perfbench/bench.py --workload run-p6-jikes --seed 42 \\
        --seconds 15 --trace 0

Without ``--workload`` every workload of BENCHMARK.json runs once (one
set); ``--sets N`` runs N sets in alternating order and prints, for
every workload and end-to-end metric, each set's value, their spread
and whether it stays within the metric's bound.  ``--trace 1`` runs the
traced launch and reports the per-layer metrics instead;
``--trace-dir DIR`` also writes its per-call spans as Chrome traces.
``--quick`` times two ops per workload from one launch (a smoke test).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``
(``{name: {"value": v, "unit": u}}``).  Every workload runs in fresh
interpreters (``harness.py``) against the sources under ``src/``.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"
#: Fresh launches per run; the median of their set-up times is setup_s.
SETUP_LAUNCHES = 3
#: A launch running this long past its measuring time is stuck.
LAUNCH_GRACE_S = 120
DEFAULT_SEED = 42


class BenchError(Exception):
    """A launch crashed or hung; the run has no result."""


def launch(params, work):
    """Run one workload launch in a fresh interpreter; return its
    result document.  The launch and every process it starts share a
    session, so a hung launch is stopped as a whole."""
    child_work = Path(tempfile.mkdtemp(dir=work))
    out = child_work / "result.json"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    params = dict(params, out=str(out), work=str(child_work),
                  launched_at=time.monotonic())
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "harness.py"), json.dumps(params)],
        stdout=sys.stderr, env=env, start_new_session=True,
    )
    what = f"{params['workload']} {params['mode']} launch"
    try:
        rc = proc.wait(params["seconds"] + LAUNCH_GRACE_S)
    except BaseException as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"{what} did not finish") from None
        raise
    if rc != 0 or not out.exists():
        try:
            os.killpg(proc.pid, signal.SIGKILL)   # a server it left behind
        except ProcessLookupError:
            pass
        raise BenchError(f"{what} exited with code {rc}")
    return json.loads(out.read_text())


def run_workload(name, seed, seconds, trace, quick, work, trace_dir=None):
    """One run of one workload: its metrics and op accounting."""
    base = {"workload": name, "seed": seed, "seconds": seconds,
            "quick": quick}
    if trace:
        docs = [launch(dict(base, mode="trace"), work)]
        metrics = docs[0]["layers"]
        if trace_dir is not None:
            path = Path(trace_dir) / f"{name}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps({"traceEvents": docs[0]["chrome"]}))
        docs[0]["chrome"] = len(docs[0]["chrome"])
    else:
        launches = 1 if quick else SETUP_LAUNCHES
        docs = [launch(dict(base, mode="setup"), work)
                for _ in range(launches - 1)]
        docs.append(launch(dict(base, mode="measure"), work))
        metrics = dict(docs[-1]["metrics"], setup_s=statistics.median(
            doc["setup"]["norm_s"] for doc in docs))
    ops = docs[-1]["ops"]
    failed = sum(1 for op in ops if not op["ok"])
    problems = docs[-1]["problems"]
    return {
        "workload": name, "seed": seed, "trace": trace,
        "metrics": metrics, "attempted": len(ops), "failed": failed,
        "correct": failed == 0 and not problems, "problems": problems,
        "headline": docs[-1].get("headline"), "launches": docs,
    }


def result_line(sets, spec_metrics, prefix_workload):
    """The final JSON object; a metric of several sets is their median."""
    metrics = {}
    for name in sets[0]:
        for metric in spec_metrics:
            key = metric["name"]
            if prefix_workload:
                key = f"{name}/{key}"
            metrics[key] = {
                "value": statistics.median(
                    runs[name]["metrics"][metric["name"]] for runs in sets),
                "unit": metric["unit"],
            }
    runs = [run for runs in sets for run in runs.values()]
    return {
        "correct": all(run["correct"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": metrics,
    }


def print_run(run, spec_metrics):
    status = "ok" if run["correct"] else "INCORRECT"
    print(f"{run['workload']} (seed {run['seed']}): {run['attempted']} ops, "
          f"{run['failed']} failed, {status}")
    for problem in run["problems"]:
        print(f"  problem: {problem}")
    for key in run["launches"][-1].get("missing", ()):
        print(f"  not traced (absent from the program): {key}")
    for metric in spec_metrics:
        value = run["metrics"][metric["name"]]
        print(f"  {metric['name']:<32} {value:>14.6g} {metric['unit']}")


def compare_sets(sets, spec):
    """Per workload x end-to-end metric: set values, spread, verdict."""
    rows = []
    for name in sets[0]:
        for metric in spec["end_to_end"]:
            values = [runs[name]["metrics"][metric["name"]] for runs in sets]
            spread = (max(values) - min(values)) / statistics.median(values)
            rows.append({
                "workload": name, "metric": metric["name"],
                "values": values, "spread": spread,
                "bound": metric["bound"],
                "ok": spread <= metric["bound"],
            })
    return rows


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads,
                        help="run one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}, the "
                             "seed the output pins are recorded for)")
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced launch, per-layer metrics")
    parser.add_argument("--trace-dir",
                        help="write Chrome traces of the traced launch here")
    parser.add_argument("--sets", type=int, default=0,
                        help="run N full sets and compare them")
    parser.add_argument("--quick", action="store_true",
                        help="two ops per workload from one launch")
    parser.add_argument("--output",
                        help="write every run, op and launch as JSON here")
    args = parser.parse_args(argv)
    if args.sets and args.trace:
        parser.error("--sets compares end-to-end metrics; drop --trace")
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    seed = args.seed % 2**31
    names = [args.workload] if args.workload else workloads
    spec_metrics = spec["per_layer" if args.trace else "end_to_end"]
    # Every launch, and the server a launch starts, inherits one CPU:
    # requests never wait for the host to wake an idle second virtual
    # CPU, the calibration kernel runs where the ops run, and NumPy's
    # BLAS sees the same CPU count in every process (its thread count
    # changes the last bits of energy sums, see ROADMAP item 1).
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    try:
        sets = []
        for i in range(max(args.sets, 1)):
            order = names if i % 2 == 0 else names[::-1]
            runs = {name: run_workload(name, seed, args.seconds, args.trace,
                                       args.quick, work, args.trace_dir)
                    for name in order}
            sets.append({name: runs[name] for name in names})
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    report = {"seed": seed, "seconds": args.seconds, "sets": sets}
    for i, runs in enumerate(sets):
        if len(sets) > 1:
            print(f"-- set {i + 1}")
        for run in runs.values():
            print_run(run, spec_metrics)
    if args.sets:
        report["comparison"] = compare_sets(sets, spec)
        print(f"{'workload':<24} {'metric':<14} "
              + " ".join(f"{'set ' + str(i + 1):>12}"
                         for i in range(len(sets)))
              + f" {'spread':>8} {'bound':>6}")
        for row in report["comparison"]:
            print(f"{row['workload']:<24} {row['metric']:<14} "
                  + " ".join(f"{v:>12.6g}" for v in row["values"])
                  + f" {row['spread']:>8.2%} {row['bound']:>6.0%} "
                  + ("ok" if row["ok"] else "exceeds bound"))
    if args.output:
        Path(args.output).write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(result_line(sets, spec_metrics,
                                 prefix_workload=len(names) > 1)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
