"""Tests for the adaptive optimization system."""

import numpy as np
import pytest

from repro.jvm.compiler.adaptive import (
    ASSUMED_COMPILE_IPS,
    FUTURE_DISCOUNT,
    SAMPLE_PERIOD_S,
    AdaptiveOptimizationSystem,
)
from repro.jvm.compiler.baseline import BaselineCompiler
from repro.jvm.compiler.method import JavaMethod, MethodTable
from repro.jvm.compiler.optimizing import (
    OPT_FIXED_INSTR,
    OPT_LEVELS,
    OptimizingCompiler,
)


def make_table(weights=(0.7, 0.2, 0.1), size=800):
    methods = [
        JavaMethod(name=f"m{i}", bytecode_bytes=size, weight=w)
        for i, w in enumerate(weights)
    ]
    return MethodTable(methods)


def make_aos(table=None, seed=11):
    table = table or make_table()
    return AdaptiveOptimizationSystem(
        table, rng=np.random.default_rng(seed),
        app_instr_per_second=1.1e9,
    )


def baseline_compile_all(table):
    comp = BaselineCompiler("p6")
    for m in table:
        comp.compile(m)


class TestSampling:
    def test_samples_proportional_to_weight(self):
        table = make_table()
        aos = make_aos(table)
        aos.take_samples(elapsed_app_s=100.0)
        counts = [m.samples for m in table.methods]
        assert counts[0] > counts[1] > counts[2]
        assert sum(counts) == int(100.0 / SAMPLE_PERIOD_S)

    def test_no_samples_for_tiny_interval(self):
        aos = make_aos()
        assert aos.take_samples(elapsed_app_s=0.001) == 0


class TestController:
    def test_hot_method_queued(self):
        table = make_table()
        baseline_compile_all(table)
        aos = make_aos(table)
        aos.take_samples(10.0)
        jobs = aos.consider_recompilation()
        assert jobs
        assert jobs[0].method is table.methods[0]

    def test_cold_uncompiled_methods_not_queued(self):
        table = make_table()
        aos = make_aos(table)  # nothing baseline-compiled yet
        aos.take_samples(10.0)
        assert aos.consider_recompilation() == []

    def test_benefit_must_exceed_cost(self):
        table = make_table(weights=(1.0,), size=8000)
        baseline_compile_all(table)
        aos = make_aos(table)
        aos.take_samples(0.01)  # almost no observed time
        assert aos.consider_recompilation() == []

    def test_no_duplicate_queueing(self):
        table = make_table()
        baseline_compile_all(table)
        aos = make_aos(table)
        aos.take_samples(10.0)
        first = aos.consider_recompilation()
        second = aos.consider_recompilation()
        assert not set(id(j.method) for j in second) & set(
            id(j.method) for j in first
        )

    def test_hotter_method_picks_higher_level(self):
        table = make_table(weights=(0.95, 0.05), size=400)
        baseline_compile_all(table)
        aos = make_aos(table)
        aos.take_samples(60.0)
        jobs = {j.method.name: j for j in aos.consider_recompilation()}
        if "m1" in jobs:
            assert (
                jobs["m0"].level.quality >= jobs["m1"].level.quality
            )

    def test_queue_drains_best_first(self):
        table = make_table()
        baseline_compile_all(table)
        aos = make_aos(table)
        aos.take_samples(30.0)
        aos.consider_recompilation()
        gains = []
        job = aos.next_job()
        while job is not None:
            gains.append(job.predicted_benefit_s - job.predicted_cost_s)
            job = aos.next_job()
        assert gains == sorted(gains, reverse=True)

    def test_next_job_empty(self):
        assert make_aos().next_job() is None


def full_sweep(table, queued):
    """The controller's cost/benefit model swept over every method in
    table order: the jobs (name, level, benefit, cost) it would queue.

    ``queued`` holds the ids of methods with a pending job.
    """
    jobs = []
    for m in table.methods:
        if m.quality <= 0.0 or id(m) in queued:
            continue
        past_s = m.samples * SAMPLE_PERIOD_S
        if past_s <= 0.0:
            continue
        future_s = past_s * FUTURE_DISCOUNT
        best = None
        for level in OPT_LEVELS:
            if level.quality <= m.quality:
                continue
            speedup = level.quality / m.quality
            benefit_s = future_s * (1.0 - 1.0 / speedup)
            cost_s = (
                m.bytecode_bytes * level.instr_per_byte + OPT_FIXED_INSTR
            ) / ASSUMED_COMPILE_IPS
            gain = benefit_s - cost_s
            if gain > 0 and (best is None or gain > best[0]):
                best = (gain, level, benefit_s, cost_s)
        if best is not None:
            jobs.append((m.name, best[1].name, best[2], best[3]))
    return jobs


class TestScanEqualsFullSweep:
    """The controller scans only the methods whose inputs changed; it
    must queue exactly the jobs a sweep over every method would."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_history(self, seed):
        rng = np.random.default_rng(seed)
        n = 80
        table = MethodTable([
            JavaMethod(name=f"m{i}", bytecode_bytes=int(size),
                       weight=float(w))
            for i, (size, w) in enumerate(zip(
                rng.integers(40, 3000, n), rng.pareto(1.1, n) + 1e-3))
        ])
        aos = make_aos(table, seed=100 + seed)
        base, opt = BaselineCompiler("p6"), OptimizingCompiler("p6")
        uncompiled = list(range(n))
        sampled_first, skipped = 0, 0
        for _ in range(60):
            aos.take_samples(float(rng.exponential(0.25)))
            # First calls come after sampling, so some methods are
            # sampled while still uncompiled.
            k = int(rng.integers(0, 6))
            for i in sorted(rng.permutation(uncompiled)[:k].tolist()):
                m = table.methods[i]
                sampled_first += m.samples > 0
                base.compile(m)
                uncompiled.remove(i)
            queued = {id(j.method) for j in aos.queue}
            expected = full_sweep(table, queued)
            got = [
                (j.method.name, j.level.name, j.predicted_benefit_s,
                 j.predicted_cost_s)
                for j in aos.consider_recompilation()
            ]
            assert got == expected
            # Out of band, recompile a queued method past its job's
            # level, so that job is skipped when it is dequeued.
            top = OPT_LEVELS[-1].quality
            low = [j for j in aos.queue
                   if j.level.quality < top and j.method.quality < top]
            if low and rng.random() < 0.3:
                opt.compile(low[0].method, OPT_LEVELS[-1])
            # Drain part of the queue as the VM would.
            for _ in range(int(rng.integers(0, len(aos.queue) + 1))):
                job = aos.next_job()
                if job.level.quality > job.method.quality:
                    opt.compile(job.method, job.level)
                else:
                    skipped += 1
        assert sampled_first > 0
        assert skipped > 0
