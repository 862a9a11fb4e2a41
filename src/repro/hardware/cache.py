"""Cache behavior models.

Two models are provided:

* :class:`AnalyticCacheModel` — a closed-form working-set model used by the
  execution engine.  Each activity describes its memory behavior with a
  *hot* working set (repeatedly touched data, e.g. an interpreter's
  dispatch structures), a total *footprint* (e.g. the live bytes a garbage
  collector traces), the fraction of references directed at the hot set
  (``locality``), and a spatial-reuse factor describing how many distinct
  cache lines the cold references touch.  The model returns a miss rate for
  any cache capacity.  Fed with the actual footprints the simulated JVM
  produces, this reproduces the paper's Section VI-C observations (L2 miss
  rates around 54 % for generational collectors tracing tens of megabytes
  through a 1 MB L2, versus about 11 % for applications).

* :class:`SetAssociativeCache` — a reference-level set-associative LRU
  cache simulator.  It is used by unit tests and examples to validate the
  analytic model against concrete address streams, and is available for
  users who want trace-driven studies.
"""

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class MemoryBehavior:
    """Memory-reference character of one activity.

    ``locality`` is the probability that a reference targets the hot
    working set (``hot_bytes``); the remaining references stream over the
    cold region (``footprint_bytes - hot_bytes``).  ``spatial_factor`` is
    the fraction of cold references that touch a *new* cache line (1.0 is a
    pure pointer chase; 64-byte lines scanned word-by-word give 1/16th...).
    """

    footprint_bytes: int
    hot_bytes: int
    locality: float
    spatial_factor: float

    def __post_init__(self):
        if self.footprint_bytes < 0 or self.hot_bytes < 0:
            raise ConfigurationError("footprints must be non-negative")
        if not (0.0 <= self.locality <= 1.0):
            raise ConfigurationError("locality must be in [0, 1]")
        if not (0.0 < self.spatial_factor <= 1.0):
            raise ConfigurationError("spatial_factor must be in (0, 1]")


class AnalyticCacheModel:
    """Closed-form miss-rate estimator for a cache of a given capacity.

    The model splits references into hot and cold streams:

    * hot references miss with probability ``1 - coverage(hot)`` where
      ``coverage(hot) = min(1, capacity / hot_bytes)`` — the familiar
      working-set knee;
    * cold references sweep the cold region; whatever capacity is left
      after the hot set provides ``coverage(cold)``, and the remainder
      misses once per *new line* touched (``spatial_factor``).

    A small compulsory-miss floor models first-touch traffic.

    :meth:`miss_rate` is a pure function of the (frozen, hashable)
    behavior, so the rates of the last :attr:`MEMO_SIZE` distinct
    behaviors are memoized: the execution engine costs thousands of
    activities per run, and about 80% repeat a recent behavior.
    """

    COMPULSORY_FLOOR = 0.002
    #: Distinct behaviors remembered (oldest forgotten first), so a
    #: long run's memo holds a few dozen behaviors, not thousands.
    MEMO_SIZE = 64

    def __init__(self, capacity_bytes):
        if capacity_bytes <= 0:
            raise ConfigurationError("cache capacity must be positive")
        self.capacity_bytes = int(capacity_bytes)
        self._miss_rates = {}

    def miss_rate(self, behavior):
        """Estimated miss rate (misses per reference) for *behavior*."""
        memo = self._miss_rates
        rate = memo.get(behavior)
        if rate is None:
            rate = self._compute(behavior)
            if len(memo) >= self.MEMO_SIZE:
                del memo[next(iter(memo))]
            memo[behavior] = rate
        return rate

    def _compute(self, behavior):
        cap = float(self.capacity_bytes)
        hot = float(behavior.hot_bytes)
        cold = float(max(behavior.footprint_bytes - behavior.hot_bytes, 0))

        if hot > 0:
            hot_coverage = min(1.0, cap / hot)
        else:
            hot_coverage = 1.0
        cap_left = max(cap - min(hot, cap), 0.0)
        if cold > 0:
            cold_coverage = min(1.0, cap_left / cold)
        else:
            cold_coverage = 1.0

        hot_miss = (1.0 - hot_coverage) * behavior.spatial_factor
        cold_miss = (1.0 - cold_coverage) * behavior.spatial_factor
        rate = (
            behavior.locality * hot_miss
            + (1.0 - behavior.locality) * cold_miss
        )
        return min(1.0, max(self.COMPULSORY_FLOOR, rate))

    def miss_rates(self, footprint_bytes, hot_bytes, locality,
                   spatial_factor):
        """:meth:`miss_rate` over columns of footprints, hot-set sizes,
        localities and spatial factors (each but the footprints may be
        one value for every element); every element is bit-identical
        to the scalar rate of its behavior."""
        cap = float(self.capacity_bytes)
        hot_bytes = np.asarray(hot_bytes, dtype=np.int64)
        hot = hot_bytes.astype(np.float64)
        cold = np.maximum(
            np.asarray(footprint_bytes, dtype=np.int64) - hot_bytes, 0
        ).astype(np.float64)
        # Sizes are whole bytes, so a size of 0.5 stands in for an empty
        # set: the hot coverage comes out 1.0, as for an empty hot set.
        hot_coverage = np.minimum(1.0, cap / np.maximum(hot, 0.5))
        cap_left = cap - np.minimum(hot, cap)
        cold_coverage = np.where(
            cold > 0, np.minimum(1.0, cap_left / np.maximum(cold, 0.5)),
            1.0,
        )
        hot_miss = (1.0 - hot_coverage) * spatial_factor
        cold_miss = (1.0 - cold_coverage) * spatial_factor
        rate = locality * hot_miss + (1.0 - locality) * cold_miss
        return np.minimum(1.0, np.maximum(self.COMPULSORY_FLOOR, rate))


class SetAssociativeCache:
    """A concrete set-associative cache with true-LRU replacement.

    Intended for validation and trace-driven experiments; the execution
    engine itself uses :class:`AnalyticCacheModel` for speed.
    """

    def __init__(self, spec):
        self.spec = spec
        self._sets = [dict() for _ in range(spec.num_sets)]
        self._tick = 0
        self.hits = 0
        self.misses = 0

    def reset_stats(self):
        self.hits = 0
        self.misses = 0

    def flush(self):
        """Invalidate every line (stats are preserved)."""
        for s in self._sets:
            s.clear()

    def access(self, address):
        """Access one byte address; return ``True`` on hit.

        Uses true LRU within the set: on a miss with a full set, the
        least-recently-used line is evicted.
        """
        line = address // self.spec.line_bytes
        index = line % self.spec.num_sets
        tag = line // self.spec.num_sets
        cache_set = self._sets[index]
        self._tick += 1
        if tag in cache_set:
            cache_set[tag] = self._tick
            self.hits += 1
            return True
        self.misses += 1
        if len(cache_set) >= self.spec.associativity:
            victim = min(cache_set, key=cache_set.get)
            del cache_set[victim]
        cache_set[tag] = self._tick
        return False

    def access_range(self, start, length, stride=None):
        """Access every ``stride`` bytes in ``[start, start+length)``.

        Returns the number of misses incurred.  Default stride is one
        cache line (streaming read).
        """
        if stride is None:
            stride = self.spec.line_bytes
        before = self.misses
        addr = start
        end = start + length
        while addr < end:
            self.access(addr)
            addr += stride
        return self.misses - before

    @property
    def accesses(self):
        return self.hits + self.misses

    @property
    def miss_rate(self):
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    @property
    def occupancy(self):
        """Number of valid lines currently resident."""
        return sum(len(s) for s in self._sets)
