"""The one reduction module: properties of the blocked weighted sum and
the grouping, per-component sums that add up to their totals, and a
source check that no other energy reduction exists in the package."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from repro.core.decomposition import decompose
from repro.measurement.traces import PowerTrace
from repro.reduce import BLOCK, group_indices, weighted_sum
from repro.timeline import ExecutionTimeline, Segment

SIZES = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7]

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def power_and_windows(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.05, 20.0, n), rng.uniform(1e-6, 4e-5, n)


class TestWeightedSum:
    @pytest.mark.parametrize("n", SIZES)
    def test_within_an_ulp_or_so_of_fsum(self, n):
        power, window = power_and_windows(n, seed=n)
        exact = math.fsum((power * window).tolist())
        total = weighted_sum(power, window)
        assert type(total) is float
        assert abs(total - exact) <= 4 * math.ulp(exact)

    @pytest.mark.parametrize("n", SIZES)
    def test_blocks_are_cut_by_length_alone(self, n):
        power, window = power_and_windows(n, seed=1)
        partials = [
            np.add.reduce(power[lo:lo + BLOCK] * window[lo:lo + BLOCK])
            for lo in range(0, n, BLOCK)
        ]
        assert weighted_sum(power, window) == math.fsum(partials)

    @pytest.mark.parametrize("n", SIZES)
    def test_gathered_equals_copied(self, n):
        power, window = power_and_windows(n + 50, seed=2)
        rng = np.random.default_rng(3)
        index = np.sort(rng.choice(n + 50, size=n, replace=False))
        gathered = weighted_sum(power, window, index)
        copied = weighted_sum(power[index], window[index])
        assert gathered.hex() == copied.hex()
        assert (weighted_sum(window, index=index).hex()
                == weighted_sum(window[index]).hex())

    def test_one_block_is_numpys_own_sum(self):
        # Below one block the helper is exactly ``np.add.reduce``, so a
        # short per-component sum (every HPM tick count) keeps the
        # bytes of ``values[mask].sum()``.
        values = np.random.default_rng(4).normal(size=BLOCK)
        assert weighted_sum(values) == float(values.sum())

    def test_integers_sum_exactly(self):
        values = np.arange(3 * BLOCK + 7, dtype=np.int64) * 1_003
        assert int(weighted_sum(values)) == int(values.sum())

    def test_empty_is_zero(self):
        assert weighted_sum(np.empty(0), np.empty(0)) == 0.0
        assert weighted_sum(np.ones(3), index=np.empty(0, int)) == 0.0


class TestGroupIndices:
    def test_empty_has_no_groups(self):
        assert group_indices(np.empty(0, dtype=np.int16)) == []

    @pytest.mark.parametrize("n", [1, 7, BLOCK + 3])
    def test_matches_the_per_mask_indices(self, n):
        ids = np.random.default_rng(n).integers(-3, 6, n).astype(np.int16)
        groups = group_indices(ids)
        assert [cid for cid, _ in groups] == np.unique(ids).tolist()
        for cid, idx in groups:
            assert np.array_equal(idx, np.flatnonzero(ids == cid))


def random_timeline(seed, n_segments=3000):
    rng = np.random.default_rng(seed)
    timeline = ExecutionTimeline(1.6e9)
    cycle = 0
    for _ in range(n_segments):
        cycles = int(rng.integers(2_000, 400_000))
        timeline.append(Segment(
            start_cycle=cycle, end_cycle=cycle + cycles,
            component=int(rng.integers(0, 6)),
            instructions=int(rng.integers(0, 2 * cycles)),
            cpu_power_w=float(rng.uniform(0.05, 20.0)),
            mem_power_w=float(rng.uniform(0.01, 2.0)),
        ))
        cycle += cycles
    return timeline


class TestComponentSumsAddUpToTotals:
    def test_timeline(self):
        timeline = random_timeline(5)
        assert sum(timeline.component_cpu_energy_j().values()) == \
            pytest.approx(timeline.cpu_energy_j(), rel=1e-12)
        assert sum(timeline.component_seconds().values()) == \
            pytest.approx(timeline.duration_s, rel=1e-12)
        assert sum(timeline.component_cycles().values()) == \
            timeline.total_cycles

    def test_empty_timeline(self):
        timeline = ExecutionTimeline(1.6e9)
        assert timeline.component_cpu_energy_j() == {}
        assert timeline.component_seconds() == {}
        assert timeline.component_cycles() == {}
        assert timeline.component_instructions() == {}
        assert timeline.cpu_energy_j() == 0.0

    def test_power_trace(self):
        n = 3 * BLOCK + 7
        rng = np.random.default_rng(6)
        window = np.full(n, 40e-6)
        window[-1] = 13e-6
        trace = PowerTrace(
            times_s=np.cumsum(window) - 0.5 * window,
            cpu_power_w=rng.uniform(1.0, 16.0, n),
            mem_power_w=rng.uniform(0.1, 1.0, n),
            component=np.repeat(rng.integers(0, 6, n // 100 + 1),
                                100)[:n].astype(np.int16),
            sample_period_s=40e-6,
            window_s=window,
        )
        assert sum(trace.component_cpu_energy_j().values()) == \
            pytest.approx(trace.cpu_energy_j(), rel=1e-12)
        assert sum(trace.component_mem_energy_j().values()) == \
            pytest.approx(trace.mem_energy_j(), rel=1e-12)
        assert sum(trace.component_seconds().values()) == \
            pytest.approx(trace.duration_s, rel=1e-12)

    def test_decompose_on_a_real_run(self, kaffe_pxa_result):
        result = kaffe_pxa_result
        breakdown = decompose(result.power, "kaffe")
        assert breakdown.total_cpu_j == pytest.approx(
            result.cpu_energy_j, rel=1e-12)
        assert breakdown.total_mem_j == pytest.approx(
            result.mem_energy_j, rel=1e-12)
        assert breakdown.total_seconds == pytest.approx(
            result.duration_s, rel=1e-12)


# -- source check --------------------------------------------------------
#
# Every energy integral and per-component sum in ``src/repro`` goes
# through ``repro.reduce``.  BLAS-backed products (``np.dot``, ``@``,
# ``np.inner``, ``np.vdot``, ``np.einsum``), weighted ``bincount`` and a
# loop over ``np.unique`` that masks each ID are the forms the package
# used before; any of them outside ``reduce.py`` fails here.  The
# least-squares fits (``np.linalg.lstsq`` in ``measurement/calibration.py``
# and ``extensions/power_estimator.py``) are model fits, not energy
# reductions, and are out of scope.

BLAS_CALLS = {"dot", "inner", "vdot", "einsum", "matmul"}


def _name(func):
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def offences(source):
    """``(line, form)`` for every forbidden reduction in *source*."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = _name(node.func)
            if name in BLAS_CALLS:
                found.append((node.lineno, name))
            elif name == "bincount" and (
                len(node.args) > 1
                or any(k.arg == "weights" for k in node.keywords)
            ):
                found.append((node.lineno, "weighted bincount"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and \
                isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, (ast.For, ast.comprehension)) and \
                isinstance(node.iter, ast.Call) and \
                _name(node.iter.func) == "unique":
            found.append((getattr(node, "lineno", node.iter.lineno),
                          "loop over np.unique"))
    return found


class TestOneReductionModule:
    @pytest.mark.parametrize("source", [
        "e = float(np.dot(p, w))",
        "e = p.dot(w)",
        "e = p @ w",
        "e @= w",
        "e = np.inner(p, w)",
        "e = np.vdot(p, w)",
        "e = np.einsum('i,i', p, w)",
        "s = np.bincount(inverse, weights=w)",
        "s = np.bincount(inverse, w)",
        "for cid in np.unique(c):\n    s = v[c == cid].sum()",
        "s = {int(k): v[c == k].sum() for k in np.unique(c)}",
    ])
    def test_each_forbidden_form_is_caught(self, source):
        assert offences(source)

    def test_allowed_forms_pass(self):
        assert not offences(
            "_, first = np.unique(roots, return_index=True)\n"
            "n = np.bincount(ids)\n"
            "x = np.linalg.lstsq(a, b, rcond=None)\n"
            "print(f'{cfg} @ {heap}')\n"
        )

    def test_no_reduction_outside_reduce_module(self):
        found = [
            f"{path.relative_to(SRC)}:{line} {form}"
            for path in sorted(SRC.rglob("*.py"))
            if path.name != "reduce.py" or path.parent != SRC
            for line, form in offences(path.read_text())
        ]
        assert found == []
