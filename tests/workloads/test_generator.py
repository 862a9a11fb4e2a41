"""Tests for deterministic workload generation."""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.units import MB
from repro.workloads import REGISTRY
from repro.workloads.generator import WorkloadRun

from tests.conftest import make_tiny_spec


def make_run(seed=42, n_slices=40, spec=None, **spec_kw):
    spec = spec or make_tiny_spec(**spec_kw)
    return WorkloadRun(spec, np.random.default_rng(seed),
                       n_slices=n_slices)


class TestStructure:
    def test_slice_count(self):
        assert len(make_run(n_slices=40).slices) == 40

    def test_rejects_too_few_slices(self):
        with pytest.raises(ConfigurationError):
            make_run(n_slices=2)

    def test_bytecodes_sum_to_spec(self):
        run = make_run()
        total = sum(s.bytecodes for s in run.slices)
        assert total == pytest.approx(run.spec.bytecodes, rel=1e-9)

    def test_alloc_sums_to_spec(self):
        run = make_run()
        total = sum(s.alloc_bytes for s in run.slices)
        assert total == run.spec.alloc_bytes

    def test_every_class_touched_exactly_once(self):
        run = make_run()
        touched = [c for s in run.slices for c in s.class_loads]
        assert len(touched) == len(run.classes)
        assert len({c.name for c in touched}) == len(run.classes)

    def test_every_method_invoked_exactly_once(self):
        run = make_run()
        called = np.concatenate([s.method_ids for s in run.slices])
        assert sorted(called.tolist()) == list(range(len(run.method_table)))

    def test_first_touches_concentrated_early(self):
        run = make_run(n_slices=100)
        loads_per_slice = [len(s.class_loads) for s in run.slices]
        first_quarter = sum(loads_per_slice[:25])
        last_quarter = sum(loads_per_slice[75:])
        assert first_quarter > 3 * max(last_quarter, 1)

    def test_system_classes_present(self):
        run = make_run()
        systems = [c for c in run.classes if c.is_system]
        assert len(systems) == run.spec.system_classes


class TestDeterminism:
    def test_same_seed_same_program(self):
        a, b = make_run(seed=7), make_run(seed=7)
        assert [c.file_bytes for c in a.classes] == [
            c.file_bytes for c in b.classes
        ]
        assert [s.alloc_bytes for s in a.slices] == [
            s.alloc_bytes for s in b.slices
        ]

    def test_different_seed_different_program(self):
        a, b = make_run(seed=7), make_run(seed=8)
        assert [c.file_bytes for c in a.classes] != [
            c.file_bytes for c in b.classes
        ]


class TestCohortBatches:
    def test_batch_covers_request(self):
        run = make_run()
        sizes, deaths = run.draw_cohort_batch(0.0, 4 * MB)
        assert sum(sizes) >= 4 * MB
        assert len(sizes) == len(deaths)

    def test_deaths_follow_allocation_clock(self):
        run = make_run()
        sizes, deaths = run.draw_cohort_batch(1000.0, 2 * MB)
        clock = 1000.0
        for size, death in zip(sizes, deaths):
            assert death >= clock  # birth = clock before this cohort
            clock += size

    def test_empty_request(self):
        run = make_run()
        sizes, deaths = run.draw_cohort_batch(0.0, 0)
        assert len(sizes) == len(deaths) == 0

    def test_immortals_possible(self):
        run = make_run(immortal_frac=0.05)
        _, deaths = run.draw_cohort_batch(0.0, 20 * MB)
        assert any(np.isinf(d) for d in deaths)


class TestMutations:
    def test_mutation_counts_scale_with_alloc(self):
        light = make_run(mutation_rate_per_mb=0.5)
        heavy = make_run(mutation_rate_per_mb=20.0)
        assert (
            sum(s.mutations for s in heavy.slices)
            > sum(s.mutations for s in light.slices)
        )

    def test_mutation_target_biased_to_long_lived(self):
        run = make_run(long_lived_mutation_bias=1.0)

        candidates = [7, 3, 5]   # handles
        deaths = [10.0, 1e9, 500.0]
        for _ in range(10):
            assert run.mutation_target(candidates, deaths) == 3

    def test_mutation_target_ties_go_to_the_first(self):
        run = make_run(long_lived_mutation_bias=1.0)
        assert run.mutation_target([4, 9, 2], [5.0, 8.0, 8.0]) == 9

    def test_mutation_target_empty(self):
        assert make_run().mutation_target([], []) is None


class TestJitter:
    def test_jitter_centered_on_one(self):
        run = make_run(n_slices=160)
        cpi = [s.cpi_jitter for s in run.slices]
        mix = [s.mix_jitter for s in run.slices]
        assert np.mean(cpi) == pytest.approx(1.0, abs=0.05)
        assert np.mean(mix) == pytest.approx(1.0, abs=0.05)

    def test_burstiness_widens_jitter(self):
        calm = make_run(burstiness=0.5, n_slices=160)
        wild = make_run(burstiness=3.0, n_slices=160)
        assert (
            np.std([s.mix_jitter for s in wild.slices])
            > np.std([s.mix_jitter for s in calm.slices])
        )


def _per_item_sizes(spec, seed):
    """Class and method sizes drawn one lognormal call per item, in
    the order a run's build consumes its generator."""
    rng = np.random.default_rng(seed)
    classes = [
        int(min(max(rng.lognormal(math.log(spec.class_file_bytes), 0.5),
                    1024), 64 * 1024))
        for _ in range(spec.app_classes)
    ] + [
        int(min(max(rng.lognormal(math.log(4096), 0.5), 1024), 48 * 1024))
        for _ in range(spec.system_classes)
    ]
    rng.random(len(classes))  # first-touch positions
    methods = [
        int(min(max(rng.lognormal(math.log(spec.method_bytecode_bytes),
                                  0.6), 40), 16 * 1024))
        for _ in range(spec.methods)
    ]
    return classes, methods


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_size_draws_equal_per_item_draws(name):
    spec = REGISTRY[name]
    run = WorkloadRun(spec, np.random.default_rng(7))
    classes, methods = _per_item_sizes(spec, 7)
    assert [c.file_bytes for c in run.classes] == classes
    assert [m.bytecode_bytes for m in run.method_table] == methods
