"""CI energy-regression gate: replay the example scenarios.

Re-executes every scenario under ``examples/scenarios/`` and compares
the per-cell energy/power summaries against the pinned goldens in
``benchmarks/golden/replay_golden.json``.  The engine is deterministic,
so a drift beyond the (tight) relative tolerance means the simulator's
numeric behavior changed — which is fine when intentional, but must be
an explicit, reviewed event: regenerate the goldens with ``--update``
and bump :data:`repro.campaign.cache.CACHE_VERSION` in the same PR.

The golden file also pins each scenario's spec hash, so an edit to a
spec file (which silently changes every cell) fails loudly instead of
being absorbed into "the numbers moved".

Usage::

    python scripts/check_replay.py                  # gate all scenarios
    python scripts/check_replay.py --only quickstart
    python scripts/check_replay.py --workers 4
    python scripts/check_replay.py --store /tmp/rs  # also populate a
                                                    # result store (for
                                                    # `repro replay --all`)
    python scripts/check_replay.py --update         # re-pin goldens
"""

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

GOLDEN_SCHEMA = "repro-replay-golden-v1"
GOLDEN_PATH = REPO / "benchmarks" / "golden" / "replay_golden.json"
SCENARIO_DIR = REPO / "examples" / "scenarios"

#: The gated per-cell summary metrics (from the result payload's
#: ``totals`` section).
METRICS = ("duration_s", "cpu_energy_j", "mem_energy_j", "edp_js")

#: Default allowed relative drift per metric.  The simulator is
#: deterministic, so this is headroom for float-level platform
#: variation, not for behavior changes.
DEFAULT_TOLERANCE_REL = 0.02


def cell_label(payload):
    """Stable human-readable identity for one cell's golden row."""
    cfg = payload["config"]
    return (f"{cfg['benchmark']}|{cfg['vm']}|{cfg['platform']}|"
            f"{cfg['collector']}|{cfg['heap_mb']}MB|"
            f"seed{cfg['seed']}|x{cfg['input_scale']}")


def run_scenario(spec_path, workers):
    """Execute one scenario; returns ``(spec, result)``."""
    from repro.campaign.runner import CampaignRunner
    from repro.spec import ScenarioSpec

    spec = ScenarioSpec.from_file(spec_path).validate()
    result = CampaignRunner(workers=workers).run(spec)
    return spec, result


def summarize(result):
    """``{cell_label: {metric: value}}`` for every OK cell.

    OOM cells are skipped (they have no totals); a cell that *starts*
    OOMing under a changed engine therefore disappears from the
    summary and trips the missing-cell check.
    """
    cells = {}
    for cell in result.ok_cells():
        if cell.oom:
            continue
        totals = cell.payload["totals"]
        cells[cell_label(cell.payload)] = {
            metric: totals[metric] for metric in METRICS
        }
    return cells


def store_result(store_dir, spec, result):
    """Write the scenario's result document (plus its provenance
    envelope) into a result store, so CI can chain
    ``repro replay --all`` against freshly-written entries."""
    from repro.provenance import build_envelope
    from repro.serve.pool import build_result_payload, encode_result
    from repro.serve.store import ResultStore

    key = spec.spec_hash()
    data = encode_result(build_result_payload(spec, result))
    ResultStore(store_dir).put_bytes(
        key, data,
        envelope=build_envelope("result", key, spec_hash=key,
                                spec_name=spec.name or None,
                                n_cells=len(result)),
    )
    return key


def scenario_paths(only=None):
    paths = sorted(SCENARIO_DIR.glob("*.toml"))
    if only:
        paths = [p for p in paths if p.stem in only]
    return paths


def update_goldens(args):
    scenarios = {}
    for path in scenario_paths(args.only):
        print(f"  running {path.stem}...", flush=True)
        spec, result = run_scenario(path, args.workers)
        failed = result.failed_cells()
        if failed:
            print(f"FAIL: {path.stem}: {len(failed)} cells failed; "
                  "refusing to pin goldens")
            return 1
        scenarios[path.stem] = {
            "spec": str(path.relative_to(REPO)),
            "spec_hash": spec.spec_hash(),
            "cells": summarize(result),
        }
        if args.store:
            store_result(args.store, spec, result)
    golden = {
        "schema": GOLDEN_SCHEMA,
        "tolerance_rel": args.tolerance,
        "scenarios": scenarios,
    }
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(golden, indent=2, sort_keys=True) + "\n"
    )
    n_cells = sum(len(s["cells"]) for s in scenarios.values())
    print(f"pinned {len(scenarios)} scenario(s), {n_cells} cell(s) "
          f"-> {GOLDEN_PATH.relative_to(REPO)}")
    return 0


def check(args):
    try:
        golden = json.loads(GOLDEN_PATH.read_text())
    except OSError:
        print(f"FAIL: no golden file at {GOLDEN_PATH} "
              "(generate with --update)")
        return 1
    if golden.get("schema") != GOLDEN_SCHEMA:
        print(f"FAIL: unexpected golden schema "
              f"{golden.get('schema')!r} (want {GOLDEN_SCHEMA})")
        return 1
    tolerance = float(golden.get("tolerance_rel",
                                 DEFAULT_TOLERANCE_REL))
    failures = []

    def expect(ok, what):
        state = "ok" if ok else "FAIL"
        print(f"  [{state}] {what}")
        if not ok:
            failures.append(what)

    names = sorted(golden.get("scenarios", {}))
    if args.only:
        names = [n for n in names if n in args.only]
    if not names:
        print("FAIL: no scenarios selected")
        return 1
    for name in names:
        pinned = golden["scenarios"][name]
        spec_path = REPO / pinned["spec"]
        print(f"{name} ({pinned['spec']}):")
        if not spec_path.exists():
            expect(False, f"spec file exists: {pinned['spec']}")
            continue
        spec, result = run_scenario(spec_path, args.workers)
        expect(spec.spec_hash() == pinned["spec_hash"],
               f"spec hash matches pinned "
               f"{pinned['spec_hash'][:12]} (got "
               f"{spec.spec_hash()[:12]}; if the spec change is "
               "intentional, re-pin with --update)")
        failed = result.failed_cells()
        expect(not failed, f"all {len(result)} cells ran "
                           f"({len(failed)} failed)")
        cells = summarize(result)
        missing = sorted(set(pinned["cells"]) - set(cells))
        extra = sorted(set(cells) - set(pinned["cells"]))
        expect(not missing,
               f"every pinned cell replayed (missing: {missing[:3]})")
        expect(not extra,
               f"no unpinned cells appeared (extra: {extra[:3]})")
        worst = (0.0, None)  # (relative drift, "cell metric" label)
        drifted = []
        for label in sorted(set(pinned["cells"]) & set(cells)):
            for metric in METRICS:
                want = pinned["cells"][label][metric]
                got = cells[label][metric]
                scale = max(abs(want), 1e-12)
                drift = abs(got - want) / scale
                if drift > worst[0]:
                    worst = (drift, f"{label} {metric}")
                if drift > tolerance:
                    drifted.append(
                        f"{name}: {label}: {metric} drifted "
                        f"{100 * drift:.2f}% (golden {want:.6g}, "
                        f"replayed {got:.6g}, tolerance "
                        f"{100 * tolerance:.1f}%)"
                    )
        for line in drifted[:args.max_report]:
            expect(False, line)
        if len(drifted) > args.max_report:
            expect(False, f"{name}: ... and "
                          f"{len(drifted) - args.max_report} more "
                          "drifted metric(s)")
        if not drifted:
            expect(True,
                   f"{len(cells)} cells x {len(METRICS)} metrics "
                   f"within {100 * tolerance:.1f}% (worst "
                   f"{100 * worst[0]:.3f}%"
                   + (f" at {worst[1]}" if worst[1] else "") + ")")
        if args.store:
            key = store_result(args.store, spec, result)
            print(f"  [info] stored result {key[:12]} -> {args.store}")
    if failures:
        print(f"FAIL: {len(failures)} replay check(s) failed")
        return 1
    print(f"OK: {len(names)} scenario(s) replay within tolerance")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0]
    )
    parser.add_argument("--only", nargs="+", default=None,
                        metavar="NAME",
                        help="scenario stems to gate (default: all)")
    parser.add_argument("--workers", type=int, default=1,
                        help="campaign worker processes per scenario")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="also write each result (with its "
                             "provenance envelope) into this result "
                             "store")
    parser.add_argument("--update", action="store_true",
                        help="re-pin the golden file from the current "
                             "engine instead of gating")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE_REL,
                        help="relative tolerance written on --update")
    parser.add_argument("--max-report", type=int, default=10,
                        help="drifted metrics to print per scenario")
    args = parser.parse_args(argv)
    if args.update:
        return update_goldens(args)
    return check(args)


if __name__ == "__main__":
    raise SystemExit(main())
