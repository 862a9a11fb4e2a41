"""The method table as columns: first-call compiles and the AOS scan
touch only array rows, never a per-method compile or cost call."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.experiment import Experiment, ExperimentConfig
from repro.errors import ConfigurationError
from repro.hardware.activity import ExecutionModel
from repro.jvm.compiler import adaptive
from repro.jvm.compiler.adaptive import AdaptiveOptimizationSystem
from repro.jvm.compiler.baseline import BaselineCompiler
from repro.jvm.compiler.method import JavaMethod, MethodTable
from repro.jvm.components import Component

SRC = Path(__file__).resolve().parents[2] / "src"


def test_jikes_cell_compiles_and_scans_by_column(monkeypatch):
    calls = {"compile": 0, "base_cost": 0, "evaluated": 0, "sampled": 0}

    def compile_(self, method):
        calls["compile"] += 1
        return original_compile(self, method)

    def cost(self, activity):
        calls["base_cost"] += activity.component == Component.BASE
        return original_cost(self, activity)

    def best_recompilation(*args):
        calls["evaluated"] += 1
        return original_best(*args)

    def consider_recompilation(self):
        calls["sampled"] += int(
            np.count_nonzero(self.method_table.columns.samples))
        return original_consider(self)

    original_compile = BaselineCompiler.compile
    original_cost = ExecutionModel.cost
    original_best = adaptive.best_recompilation
    original_consider = AdaptiveOptimizationSystem.consider_recompilation
    monkeypatch.setattr(BaselineCompiler, "compile", compile_)
    monkeypatch.setattr(ExecutionModel, "cost", cost)
    monkeypatch.setattr(adaptive, "best_recompilation", best_recompilation)
    monkeypatch.setattr(AdaptiveOptimizationSystem,
                        "consider_recompilation", consider_recompilation)
    sim = Experiment(ExperimentConfig(
        benchmark="_202_jess", vm="jikes", platform="p6", heap_mb=32,
        input_scale=0.1, seed=3,
    )).simulate()
    run = sim.run
    assert run.base_compiles == len(run.workload.method_table) > 0
    assert run.opt_compiles > 0
    assert calls["compile"] == 0
    assert calls["base_cost"] == 0
    # Every sampled method, every epoch, would be the full sweep.
    assert 0 < calls["evaluated"] < calls["sampled"]


def test_jikes_run_does_not_import_numpy_ma(tmp_path):
    # numpy.ma (pulled in by np.union1d / np.isin) costs ~2 MB of RSS.
    code = (
        "import sys\n"
        "from repro.cli import main\n"
        "rc = main(['run', '_202_jess', '--heap', '32',\n"
        "           '--input-scale', '0.1'])\n"
        "assert rc == 0, rc\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


class TestMethodViews:
    def test_method_reads_and_writes_its_table_row(self):
        a = JavaMethod(name="a", bytecode_bytes=100, weight=3.0)
        b = JavaMethod(name="b", bytecode_bytes=200, weight=1.0)
        b.samples = 7
        table = MethodTable([a, b])
        cols = table.columns
        assert cols.samples.tolist() == [0, 7]
        assert cols.weight.tolist() == [0.75, 0.25]
        a.tier = "baseline"
        a.compile_count += 1
        assert cols.tier.tolist() == ["baseline", "none"]
        assert cols.compile_count.tolist() == [1, 0]
        cols.quality[1] = 2.3
        assert b.quality == 2.3 and b.compiled and not a.compiled

    def test_version_counts_this_tables_quality_writes(self):
        t1 = MethodTable([JavaMethod(name="x", bytecode_bytes=10,
                                     weight=1.0)])
        t2 = MethodTable([JavaMethod(name="y", bytecode_bytes=10,
                                     weight=1.0)])
        t1.methods[0].quality = 1.0
        t1.columns.mark_compiled(np.array([0]), 1.7, "opt0")
        assert (t1.version, t2.version) == (2, 0)

    def test_from_columns_matches_methods(self):
        sizes, weights = [40, 500, 9000], [0.5, 0.3, 0.2]
        built = MethodTable.from_columns(["m0", "m1", "m2"], sizes,
                                         weights)
        listed = MethodTable([
            JavaMethod(name=f"m{i}", bytecode_bytes=s, weight=w)
            for i, (s, w) in enumerate(zip(sizes, weights))
        ])
        for column in ("bytecode_bytes", "weight", "quality", "tier",
                       "compile_count", "samples", "queued"):
            assert (getattr(built.columns, column).tolist()
                    == getattr(listed.columns, column).tolist())
        assert [m.name for m in built] == [m.name for m in listed]

    @pytest.mark.parametrize("sizes, weights", [([0], [1.0]),
                                                ([10], [-1.0])])
    def test_from_columns_validates(self, sizes, weights):
        with pytest.raises(ConfigurationError):
            MethodTable.from_columns(["m"], sizes, weights)
