"""CI gate for the serving benchmark's ``BENCH_serve.json``.

Validates a ``repro-bench-serve-v1`` document (from
``benchmarks/perf/bench_serve.py``) against the serving layer's
correctness invariants, which hold at any load: byte-identical
serving, every distinct spec executed in every mode, exactly-once
execution across instances, and sane latency/dedup figures.
Throughput itself is not gated — shared CI runners make jobs/sec too
noisy for a hard floor.  Simulation speed is measured by ``perfbench``.

Usage::

    python scripts/check_perf.py BENCH_serve.json
"""

import argparse
import json
from pathlib import Path


def check_serve(results):
    """Validate a ``repro-bench-serve-v1`` document; returns exit code."""
    failures = []

    def expect(ok, what):
        state = "ok" if ok else "FAIL"
        print(f"  [{state}] {what}")
        if not ok:
            failures.append(what)

    n_specs = results["config"]["specs"]
    modes = results.get("modes", {})
    expect(len(modes) >= 1, f"at least one worker mode stormed "
                            f"(got {sorted(modes)})")
    for mode, m in sorted(modes.items()):
        lat = m["submit_latency_s"]
        expect(m["executed"] == n_specs,
               f"{mode}: executed == specs "
               f"({m['executed']} == {n_specs})")
        expect(m["jobs_per_sec"] > 0,
               f"{mode}: jobs_per_sec > 0 ({m['jobs_per_sec']})")
        expect(m["submits"] >= m["executed"],
               f"{mode}: submits >= executed "
               f"({m['submits']} >= {m['executed']})")
        expect(lat["p99"] >= lat["p50"] >= 0,
               f"{mode}: p99 >= p50 >= 0 "
               f"({lat['p99']:.4f} >= {lat['p50']:.4f})")
        expect(0.0 <= m["dedup_rate"] <= 1.0,
               f"{mode}: dedup_rate in [0, 1] ({m['dedup_rate']})")
        if m["submits"] > m["executed"]:
            expect(m["dedup_rate"] > 0,
                   f"{mode}: duplicate submits were deduplicated "
                   f"(dedup_rate {m['dedup_rate']})")
    expect(results.get("byte_identical") is True,
           "served bytes identical to a direct in-process run")
    overhead = results.get("tracing_overhead")
    if overhead is not None:
        expect(overhead["traced_byte_identical"] is True,
               "tracing on: result bytes still identical to a "
               "direct run")
        expect(overhead["traced"]["executed"] == n_specs,
               f"tracing on: executed == specs "
               f"({overhead['traced']['executed']} == {n_specs})")
        expect(overhead["spool_files"] >= n_specs,
               f"tracing on: one spool file per executed job "
               f"({overhead['spool_files']} >= {n_specs})")
        # The tracing-off storm is the PR 2 hot path; it must not pay
        # for the feature.  The bound is deliberately loose (shared CI
        # runners) — it catches "tracing-off got slow", not noise.
        base = overhead["untraced"]["jobs_per_sec"]
        traced_rate = overhead["traced"]["jobs_per_sec"]
        expect(base > 0 and traced_rate > 0,
               f"tracing storms made progress "
               f"({base} / {traced_rate} jobs/s)")
        if traced_rate > 0:
            ratio = base / traced_rate
            expect(ratio > 0.5,
                   f"tracing-off jobs/sec not regressed vs traced "
                   f"(untraced/traced {ratio:.2f}x > 0.5x)")
        print(f"  [info] tracing overhead "
              f"{100 * overhead['overhead_fraction']:.1f}% "
              f"(untraced {base} vs traced {traced_rate} jobs/s, "
              "informational)")
    fleet = results.get("multi_instance")
    if fleet is not None:
        expect(fleet["exactly_once"] is True,
               f"two instances, one store: executed_total "
               f"{fleet['executed_total']} == {fleet['specs']} specs")
    if "thread" in modes and "process" in modes:
        speedup = results.get("speedup_process_vs_thread", 0.0)
        isolation = results.get("p99_isolation_thread_vs_process", 0.0)
        cpus = results["config"].get("cpu_count")
        print(f"  [info] process vs thread: {speedup}x jobs/s on "
              f"{cpus} cpu(s), {isolation}x lower p99 submit latency "
              "(informational, not gated)")
    if failures:
        print(f"FAIL: {len(failures)} serve invariant(s) violated")
        return 1
    print("OK: serving invariants hold")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", help="BENCH_serve.json")
    args = parser.parse_args(argv)

    results = json.loads(Path(args.results).read_text())
    if results.get("schema") != "repro-bench-serve-v1":
        print(f"FAIL: unexpected schema {results.get('schema')!r} "
              "(want repro-bench-serve-v1)")
        return 1
    return check_serve(results)


if __name__ == "__main__":
    raise SystemExit(main())
