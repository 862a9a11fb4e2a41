"""Tests for the analytic cache model and the reference simulator."""

import pytest

from repro.errors import ConfigurationError
from repro.hardware.cache import (
    AnalyticCacheModel,
    MemoryBehavior,
    SetAssociativeCache,
)
from repro.hardware.cpu import CacheSpec
from repro.units import KB, MB


def behavior(footprint, hot=64 * KB, locality=0.5, spatial=0.6):
    return MemoryBehavior(
        footprint_bytes=footprint,
        hot_bytes=hot,
        locality=locality,
        spatial_factor=spatial,
    )


class TestMemoryBehavior:
    def test_rejects_bad_locality(self):
        with pytest.raises(ConfigurationError):
            behavior(1 * MB, locality=1.5)

    def test_rejects_zero_spatial(self):
        with pytest.raises(ConfigurationError):
            behavior(1 * MB, spatial=0.0)

    def test_rejects_negative_footprint(self):
        with pytest.raises(ConfigurationError):
            behavior(-1)


class TestAnalyticModel:
    def test_fits_entirely_floor(self):
        model = AnalyticCacheModel(1 * MB)
        rate = model.miss_rate(behavior(256 * KB))
        assert rate == pytest.approx(AnalyticCacheModel.COMPULSORY_FLOOR)

    def test_monotonic_in_footprint(self):
        model = AnalyticCacheModel(1 * MB)
        rates = [
            model.miss_rate(behavior(f, locality=0.2))
            for f in (512 * KB, 2 * MB, 8 * MB, 32 * MB)
        ]
        assert rates == sorted(rates)

    def test_monotonic_in_capacity(self):
        b = behavior(8 * MB, locality=0.2)
        small = AnalyticCacheModel(256 * KB).miss_rate(b)
        large = AnalyticCacheModel(4 * MB).miss_rate(b)
        assert small > large

    def test_locality_reduces_misses_when_hot_fits(self):
        model = AnalyticCacheModel(1 * MB)
        low = model.miss_rate(behavior(16 * MB, locality=0.1))
        high = model.miss_rate(behavior(16 * MB, locality=0.9))
        assert high < low

    def test_streaming_footprint_gives_gc_like_rates(self):
        # A GC tracing tens of MB through a 1 MB L2 misses on roughly
        # half its references (paper Section VI-C: 54-56 %).
        model = AnalyticCacheModel(1 * MB)
        rate = model.miss_rate(
            behavior(24 * MB, hot=256 * KB, locality=0.12, spatial=0.78)
        )
        assert 0.4 < rate < 0.8

    def test_bounded_by_one(self):
        model = AnalyticCacheModel(4 * KB)
        rate = model.miss_rate(
            behavior(1 * MB, hot=512 * KB, locality=0.5, spatial=1.0)
        )
        assert rate <= 1.0

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ConfigurationError):
            AnalyticCacheModel(0)

    @pytest.mark.parametrize("hot", [0, 64 * KB, 2 * MB])
    def test_miss_rates_equal_scalar_rates(self, hot):
        # Footprints below, at and far above the hot set and the L2.
        model = AnalyticCacheModel(1 * MB)
        footprints = [0, 1, hot, 64 * KB, 700 * KB, 1 * MB, 3 * MB,
                      48 * MB, 12_345_678]
        rates = model.miss_rates(footprints, hot, 0.37, 0.61)
        assert rates.tolist() == [
            model._compute(behavior(f, hot=hot, locality=0.37,
                                    spatial=0.61))
            for f in footprints
        ]


class TestSetAssociativeCache:
    def spec(self, size=4 * KB, assoc=2, line=64):
        return CacheSpec(size_bytes=size, associativity=assoc,
                         line_bytes=line, hit_cycles=1)

    def test_first_access_misses_then_hits(self):
        cache = SetAssociativeCache(self.spec())
        assert cache.access(0x1000) is False
        assert cache.access(0x1000) is True
        assert cache.access(0x1004) is True  # same line

    def test_lru_eviction(self):
        # 2-way set: three distinct tags mapping to one set evict the LRU.
        spec = self.spec()
        cache = SetAssociativeCache(spec)
        set_stride = spec.num_sets * spec.line_bytes
        a, b, c = 0, set_stride, 2 * set_stride
        cache.access(a)
        cache.access(b)
        cache.access(a)      # a is now MRU
        cache.access(c)      # evicts b
        assert cache.access(a) is True
        assert cache.access(b) is False

    def test_flush_invalidates(self):
        cache = SetAssociativeCache(self.spec())
        cache.access(0)
        cache.flush()
        assert cache.access(0) is False

    def test_streaming_range_misses_once_per_line(self):
        spec = self.spec()
        cache = SetAssociativeCache(spec)
        misses = cache.access_range(0, 64 * spec.line_bytes)
        assert misses == 64

    def test_occupancy_bounded_by_capacity(self):
        spec = self.spec()
        cache = SetAssociativeCache(spec)
        cache.access_range(0, 1 * MB)
        assert cache.occupancy <= spec.num_lines

    def test_miss_rate_accounting(self):
        cache = SetAssociativeCache(self.spec())
        cache.access(0)
        cache.access(0)
        assert cache.accesses == 2
        assert cache.miss_rate == pytest.approx(0.5)

    def test_reset_stats(self):
        cache = SetAssociativeCache(self.spec())
        cache.access(0)
        cache.reset_stats()
        assert cache.accesses == 0

    def test_working_set_larger_than_cache_thrashes(self):
        spec = self.spec(size=4 * KB)
        cache = SetAssociativeCache(spec)
        # Two passes over 64 KB: every line evicted before reuse.
        cache.access_range(0, 64 * KB)
        cache.reset_stats()
        cache.access_range(0, 64 * KB)
        assert cache.miss_rate == pytest.approx(1.0)

    def test_working_set_smaller_than_cache_reuses(self):
        spec = self.spec(size=64 * KB, assoc=16)
        cache = SetAssociativeCache(spec)
        cache.access_range(0, 2 * KB)
        cache.reset_stats()
        cache.access_range(0, 2 * KB)
        assert cache.miss_rate == pytest.approx(0.0)
