"""Self-test of the benchmark harness.

    python -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "bench.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def last_json(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_quick_emits_exactly_the_end_to_end_metrics():
    result = last_json(bench("--quick"))
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == 2 * len(SPEC["workloads"])
    expected = {f"{w['name']}/{m['name']}"
                for w in SPEC["workloads"] for m in SPEC["end_to_end"]}
    assert set(result["metrics"]) == expected
    for metric in result["metrics"].values():
        assert metric["value"] > 0


def test_trace_emits_every_layer_metric():
    proc = bench("--quick", "--trace", "1", "--workload", "run-p6-jikes")
    assert "not traced" not in proc.stdout
    result = last_json(proc)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    for layer in ("workloads", "randutil", "jvm.vm", "jvm.objects",
                  "jvm.heap", "jvm.gc", "jvm.compiler", "jvm.scheduler",
                  "hardware", "timeline", "measurement.daq", "export"):
        assert metrics[f"{layer}.calls"] > 0, layer
    self_s = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert abs(self_s - metrics["traced_op_s"]) <= 0.02 * metrics[
        "traced_op_s"]
    assert 0 <= metrics["unattributed.self_s"] <= 0.2 * metrics[
        "traced_op_s"]


class _Corrupting:
    """A real workload whose second op returns altered bytes and whose
    third op raises."""

    def __init__(self):
        self.inner = harness.RunCell(42, None)
        self.calls = 0

    def op(self):
        self.calls += 1
        if self.calls == 3:
            raise RuntimeError("deliberate failure")
        out = self.inner.op()
        if self.calls == 2:
            out["totals"]["cpu_energy_j"] *= 1.5
        return out

    def encode(self, out):
        return self.inner.encode(out)

    def check_op(self, out):
        return self.inner.check_op(out)


def test_corrupted_op_counts_as_failed_instead_of_crashing():
    workload = _Corrupting()
    reference = workload.encode(workload.op())
    ops = [op for _ in range(2) for op in harness.op_loop(
        workload, reference, seconds=0, quick=True)["ops"]]
    assert [op["ok"] for op in ops] == [False, False, True, True]
    assert "differ" in ops[0]["error"]
    assert "deliberate failure" in ops[1]["error"]
    assert harness.op_metrics(ops)["op_p50_s"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "run-p6-jikes", "--seconds", "1",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
