"""Property-based tests on the lifetime/allocation machinery."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.units import KB, MB
from repro.workloads.generator import WorkloadRun

from tests.conftest import make_tiny_spec


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    request_mb=st.integers(min_value=1, max_value=32),
)
def test_batches_always_cover_request(seed, request_mb):
    run = WorkloadRun(make_tiny_spec(),
                      np.random.default_rng(seed), n_slices=8)
    sizes, deaths = run.draw_cohort_batch(0.0, request_mb * MB)
    assert sum(sizes) >= request_mb * MB
    assert all(s >= 2 * KB for s in sizes)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_deaths_never_precede_births(seed):
    run = WorkloadRun(make_tiny_spec(),
                      np.random.default_rng(seed), n_slices=8)
    now = 0.0
    sizes, deaths = run.draw_cohort_batch(now, 8 * MB)
    clock = now
    for size, death in zip(sizes, deaths):
        assert death >= clock
        clock += size


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    live_mb=st.sampled_from([1, 2, 4]),
)
def test_steady_live_size_tracks_target(seed, live_mb):
    # Simulate the allocation clock: steady-state live bytes should be
    # within a factor of ~2 of the spec's live target.
    spec = make_tiny_spec(
        live_bytes=live_mb * MB, alloc_bytes=100 * MB,
        immortal_frac=0.0005,
    )
    run = WorkloadRun(spec, np.random.default_rng(seed), n_slices=8)
    sizes, deaths = run.draw_cohort_batch(0.0, 80 * MB)
    # Live set at clock = 60 MB: cohorts born before and dying after.
    probe = 60 * MB
    clock = 0.0
    live = 0
    for size, death in zip(sizes, deaths):
        if clock <= probe < death:
            live += size
        clock += size
        if clock > probe:
            break
    assert live_mb * MB / 3 < live < live_mb * MB * 3


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_generator_is_pure_function_of_seed(seed):
    a = WorkloadRun(make_tiny_spec(), np.random.default_rng(seed),
                    n_slices=8)
    b = WorkloadRun(make_tiny_spec(), np.random.default_rng(seed),
                    n_slices=8)
    assert [s.alloc_bytes for s in a.slices] == [
        s.alloc_bytes for s in b.slices
    ]
    assert a.draw_cohort_batch(0.0, 1 * MB)[0].tolist() == \
        b.draw_cohort_batch(0.0, 1 * MB)[0].tolist()
