"""Whole-array wiring against a one-object-at-a-time reference.

``ReferenceFactory.wire`` classifies a run of buffered uniforms into
edge tests and target draws in whole-array steps.  The reference here is
the per-object algorithm it replaced: every draw through
``BufferedUniform.next()``, one object after another.  Both sides share
one generator with the tracked-mutation draws the VM makes between
objects (a ``mutation_target`` draw and a ``record_mutation`` draw), so
any drift in where a block refill falls relative to those draws shows
up as different mutation draws, not just different edges.
"""

import numpy as np
import pytest

from repro.jvm.objects import SPACE_NURSERY, ObjectTable, ReferenceFactory
from repro.randutil import BufferedUniform

#: Objects per run: enough draws for several block refills.
N_OBJECTS = 3000
WINDOW = 64
MUTATION_STRIDE = 16


def cohorts(seed, n=N_OBJECTS):
    """Sizes and death times on the allocation clock, some immortal."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(2 * 1024, 64 * 1024, n)
    births = np.cumsum(sizes) - sizes
    deaths = births + rng.exponential(256 * 1024, n) + 1.0
    deaths[rng.random(n) < 0.02] = np.inf
    return deaths


def mutation_draws(rng):
    """The generator draws one tracked mutation makes (the target pick
    and the write barrier's source pick)."""
    return (rng.random(), int(rng.integers(0, 16)),
            int(rng.integers(0, 128)))


class CountingUniform(BufferedUniform):
    """Notes how many mutation draws preceded each block refill."""

    def __init__(self, rng, draws):
        self.draws, self.refills = draws, []
        super().__init__(rng)

    def _refill(self):
        self.refills.append(len(self.draws))
        super()._refill()


def reference_run(seed, deaths, points, max_refs, edge_prob, skip=None):
    """One object at a time: the scalar algorithm and draw order.

    Returns the edges, the mutation draws, the block cursor, the
    generator state, and how many mutation draws preceded each refill
    after the first block."""
    rng = np.random.default_rng(seed)
    recent, edges, draws = [], [], []
    uniform = CountingUniform(rng, draws)
    points = set(points)
    for handle, death in enumerate(deaths.tolist()):
        if skip is not None and handle == skip[0]:
            uniform.pos = skip[1]
        own = []
        n = len(recent)
        if n and max_refs > 0:
            for _ in range(max_refs):
                if uniform.next() < edge_prob:
                    target = recent[int(uniform.next() * n)]
                    if deaths[target] >= death and target != handle:
                        own.append(target)
        edges.append(own)
        recent.append(handle)
        if len(recent) > WINDOW:
            del recent[0]
        if handle in points:
            draws.append(mutation_draws(rng))
    return (edges, draws, uniform.pos, rng.bit_generator.state,
            uniform.refills[1:])


def vector_run(seed, deaths, points, max_refs, edge_prob, chunks,
               skip=None):
    """Through ``wire``, with mutation draws between calls as the VM
    makes them, and wiring requests cut at the *chunks* boundaries.
    ``skip=(k, pos)`` moves the block cursor to ``pos`` before object
    k, on both sides alike."""
    rng = np.random.default_rng(seed)
    table = ObjectTable()
    factory = ReferenceFactory(table, rng, max_refs=max_refs,
                               window=WINDOW, edge_prob=edge_prob)
    n = len(deaths)
    table.reserve(n)   # wiring runs ahead of the rows' appends
    handles = range(n)
    wired, draws, calls = 0, [], 0
    bounds = sorted(set(chunks) | {n})
    if skip is not None:
        bounds = sorted(set(bounds) | {skip[0]})
    for point in sorted(points):
        while wired <= point:
            if skip is not None and wired == skip[0]:
                factory._uniform.pos = skip[1]
            stop = next(b for b in bounds if b > wired)
            wired += factory.wire(handles[wired:stop], deaths[wired:stop])
            calls += 1
        draws.append(mutation_draws(rng))
    while wired < n:
        stop = next(b for b in bounds if b > wired)
        wired += factory.wire(handles[wired:stop], deaths[wired:stop])
        calls += 1
    table.append(np.full(n, 1024, dtype=np.int64), deaths, SPACE_NURSERY,
                 0)
    edges = [table.edges(h) for h in handles]
    assert table.nrefs[:n].tolist() == [len(e) for e in edges]
    return (edges, draws, factory._uniform.pos, rng.bit_generator.state,
            calls)


@pytest.mark.parametrize("edge_prob", [0.0, 1.0, 0.7])
@pytest.mark.parametrize("max_refs", [0, 1, 2, 3])
def test_wiring_matches_one_object_at_a_time(edge_prob, max_refs):
    seed = 17 + max_refs
    deaths = cohorts(seed)
    points = range(MUTATION_STRIDE - 1, N_OBJECTS, MUTATION_STRIDE)
    *expected, _ = reference_run(seed, deaths, points, max_refs,
                                 edge_prob)
    chunk_rng = np.random.default_rng(seed + 100)
    chunks = np.cumsum(chunk_rng.integers(1, 400, 40)).tolist()
    for cut in ([], chunks):
        *got, calls = vector_run(seed, deaths, points, max_refs, edge_prob,
                                 cut)
        assert got[0] == expected[0]          # every edge, in order
        assert got[1] == expected[1]          # mutation draws in place
        assert got[2:] == expected[2:]        # same block, same cursor
        # Whole-array steps: far fewer calls than objects.
        assert calls < N_OBJECTS // 4


def test_refills_fall_between_mutations():
    # The runs above must exercise block refills in mid-run, with
    # mutation draws on the shared generator before and after each.
    deaths = cohorts(19)
    _, draws, _, _, refills = reference_run(
        19, deaths, range(MUTATION_STRIDE - 1, N_OBJECTS, MUTATION_STRIDE),
        2, 0.7)
    assert len(refills) >= 2
    assert all(0 < before < len(draws) for before in refills)


def test_warming_window_draws_against_fewer_objects():
    # With fewer than WINDOW objects wired, target indices scale with
    # the current window size; a short run stays in the warm-up phase.
    deaths = cohorts(23, n=40)
    *expected, _ = reference_run(23, deaths, [5, 20], 2, 1.0)
    *got, _ = vector_run(23, deaths, [5, 20], 2, 1.0, [3, 17])
    assert got[0] == expected[0]
    assert got[1] == expected[1]
    assert any(expected[0][1:])


@pytest.mark.parametrize("left", [1, 2, 3])
def test_window_fills_at_a_block_end(left):
    # The warm-up ends (the window reaches WINDOW objects) with only
    # *left* draws in the block: the first full-window object refills,
    # and a wiring call that began in the warm-up must stop before it.
    deaths = cohorts(29, n=300)
    skip = (WINDOW - 1, 4096 - left)
    points = [WINDOW - 1, WINDOW, 100]
    *expected, _ = reference_run(29, deaths, points, 2, 0.7, skip=skip)
    *got, _ = vector_run(29, deaths, points, 2, 0.7, [WINDOW + 5],
                         skip=skip)
    assert got[0] == expected[0]
    assert got[1] == expected[1]


def test_allocation_clock_cumsum_is_bit_equal_to_running_adds():
    # The app phase computes the allocation clock in one float64 cumsum
    # seeded with ``now``; it must equal ``now += size`` per cohort.
    rng = np.random.default_rng(8)
    for now in (0.0, 123456789.0, float(2 ** 40)):
        sizes = rng.integers(2 * 1024, 256 * 1024, 5000)
        clock = np.cumsum(np.concatenate(([now], sizes)), dtype=np.float64)
        running, expected = now, [now]
        for size in sizes.tolist():
            running += size
            expected.append(running)
        assert clock.tolist() == expected
