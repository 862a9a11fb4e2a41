"""The offline stage's one operation: ``E = sum(P * dt)`` per component.

Every energy integral and per-component sum in the package goes through
this module, so a result's bytes depend only on its inputs — never on
the host, its CPU count or the BLAS build.  ``np.dot`` hands the
reduction to BLAS, which picks its summation order from its thread
count; a sum here always adds in the same order.

:func:`weighted_sum` reduces fixed blocks of :data:`BLOCK` elements
with NumPy's pairwise ``np.add.reduce`` and combines the block partials
with :func:`math.fsum`.  Block boundaries depend only on the number of
terms.  Blocking also bounds memory: one block's gathers and one
product buffer are the only temporaries, where a whole-array
``values * weights`` would cost 8 bytes per term.

:func:`group_indices` is the one per-component grouping: it hands each
ID its sample indices, ascending, so a gathered sum sees exactly the
elements of ``values[ids == cid]`` in order.
"""

import math

import numpy as np

#: Terms per pairwise block.  A constant, so the summation order is a
#: function of the array length alone.
BLOCK = 65536


def weighted_sum(values, weights=None, index=None):
    """``sum(values[index] * weights[index])`` as a Python float.

    *weights* ``None`` sums *values* alone; *index* ``None`` takes every
    element.  The gathered form adds exactly what the copied form
    ``weighted_sum(values[index], weights[index])`` adds, in the same
    order, without building either full-length copy.
    """
    n = len(values) if index is None else len(index)
    # Every block's product lands in one buffer: a fresh block-sized
    # temporary per block churns the allocator and raises peak RSS.
    product = None if weights is None else np.empty(min(n, BLOCK))
    partials = []
    for lo in range(0, n, BLOCK):
        take = slice(lo, lo + BLOCK)
        if index is not None:
            take = index[take]
        block = values[take]
        if weights is not None:
            block = np.multiply(block, weights[take],
                                out=product[:len(block)])
        partials.append(np.add.reduce(block))
    return math.fsum(partials)


def group_indices(ids):
    """``[(id, indices), ...]`` for every distinct ID, in ID order.

    Each ``indices`` array ascends.  An empty *ids* has no groups.
    """
    n = len(ids)
    if n == 0:
        return []
    # The runs of one ID (a few hundred in a million samples), sorted
    # stably by ID so each ID's runs stay in sample order; then every
    # run's indices are written where the run lands in the grouped
    # order.
    bounds = np.flatnonzero(ids[1:] != ids[:-1]) + 1
    bounds = np.concatenate(([0], bounds, [n]))
    starts, lengths = bounds[:-1], np.diff(bounds)
    order = np.argsort(ids[starts], kind="stable")
    starts, lengths = starts[order], lengths[order]
    landing = np.cumsum(lengths) - lengths
    index = np.repeat(starts - landing, lengths)
    index += np.arange(n)
    run_ids = ids[starts]
    first = np.flatnonzero(run_ids[1:] != run_ids[:-1]) + 1
    cuts = [0, *landing[first].tolist(), n]
    return [
        (cid, index[lo:hi]) for cid, lo, hi in zip(
            run_ids[np.concatenate(([0], first))].tolist(),
            cuts[:-1], cuts[1:],
        )
    ]
