"""Tests for the ground-truth execution timeline."""

import pytest

from repro.errors import TimelineError
from repro.timeline import ExecutionTimeline, Segment

CLOCK = 1.0e9


def seg(start, end, component=0, power=10.0, instructions=None,
        wall=None):
    return Segment(
        start_cycle=start, end_cycle=end, component=component,
        instructions=instructions if instructions is not None
        else (end - start) // 2,
        cpu_power_w=power, mem_power_w=0.25, wall_s=wall,
    )


class TestAppend:
    def test_contiguous_appends(self):
        tl = ExecutionTimeline(CLOCK)
        tl.append(seg(0, 100))
        tl.append(seg(100, 300))
        assert len(tl) == 2
        assert tl.total_cycles == 300

    def test_gap_rejected(self):
        tl = ExecutionTimeline(CLOCK)
        tl.append(seg(0, 100))
        with pytest.raises(TimelineError):
            tl.append(seg(150, 200))

    def test_overlap_rejected(self):
        tl = ExecutionTimeline(CLOCK)
        tl.append(seg(0, 100))
        with pytest.raises(TimelineError):
            tl.append(seg(50, 200))

    def test_negative_length_rejected(self):
        tl = ExecutionTimeline(CLOCK)
        with pytest.raises(TimelineError):
            tl.append(seg(100, 50))

    def test_zero_length_dropped(self):
        tl = ExecutionTimeline(CLOCK)
        tl.append(seg(0, 0))
        assert len(tl) == 0

    def test_bad_clock_rejected(self):
        with pytest.raises(TimelineError):
            ExecutionTimeline(0)


class TestAccounting:
    def test_duration_from_cycles(self):
        tl = ExecutionTimeline(CLOCK)
        tl.append(seg(0, int(0.5 * CLOCK)))
        assert tl.duration_s == pytest.approx(0.5)

    def test_duration_prefers_wall_stamp(self):
        tl = ExecutionTimeline(CLOCK)
        tl.append(seg(0, int(0.5 * CLOCK), wall=1.0))  # throttled
        assert tl.duration_s == pytest.approx(1.0)

    def test_component_cycles(self):
        tl = ExecutionTimeline(CLOCK)
        tl.append(seg(0, 100, component=0))
        tl.append(seg(100, 150, component=1))
        tl.append(seg(150, 300, component=0))
        cycles = tl.component_cycles()
        assert cycles[0] == 250
        assert cycles[1] == 50

    def test_cpu_energy(self):
        tl = ExecutionTimeline(CLOCK)
        tl.append(seg(0, int(CLOCK), power=10.0))  # 1 s at 10 W
        assert tl.cpu_energy_j() == pytest.approx(10.0)

    def test_component_energy_split(self):
        tl = ExecutionTimeline(CLOCK)
        tl.append(seg(0, int(CLOCK), component=0, power=10.0))
        tl.append(
            seg(int(CLOCK), 2 * int(CLOCK), component=1, power=20.0)
        )
        split = tl.component_cpu_energy_j()
        assert split[0] == pytest.approx(10.0)
        assert split[1] == pytest.approx(20.0)

    def test_segment_derived_metrics(self):
        s = seg(0, 200, instructions=100)
        assert s.ipc == pytest.approx(0.5)
        s2 = Segment(0, 100, 0, l2_accesses=10, l2_misses=4)
        assert s2.l2_miss_rate == pytest.approx(0.4)


class TestArrays:
    def test_vectorized_view(self):
        tl = ExecutionTimeline(CLOCK)
        tl.append(seg(0, 1000, component=0))
        tl.append(seg(1000, 3000, component=1))
        arrays = tl.to_arrays()
        assert list(arrays.components) == [0, 1]
        assert arrays.ends_s[-1] == pytest.approx(3000 / CLOCK)
        assert arrays.starts_s[0] == 0.0

    def test_wall_stamps_in_arrays(self):
        tl = ExecutionTimeline(CLOCK)
        tl.append(seg(0, 1000, wall=2e-6))
        arrays = tl.to_arrays()
        assert arrays.ends_s[0] == pytest.approx(2e-6)

    def test_empty_timeline_rejected(self):
        tl = ExecutionTimeline(CLOCK)
        with pytest.raises(TimelineError):
            tl.to_arrays()

    def test_validate(self):
        tl = ExecutionTimeline(CLOCK)
        tl.append(seg(0, 100))
        tl.append(seg(100, 200))
        assert tl.validate()


class TestDurationConsistency:
    def test_duration_matches_vectorized_cumsum(self):
        # duration_s and to_arrays() must derive from the same
        # summation: for long timelines an independently accumulated
        # scalar drifts away from the vectorized cumulative sum.
        tl = ExecutionTimeline(CLOCK)
        cycle = 0
        for i in range(20_000):
            # Irregular wall stamps exercise float accumulation.
            wall = 1e-6 * (1.0 + 1e-7 * ((i * 2654435761) % 97))
            tl.append(seg(cycle, cycle + 1000, wall=wall))
            cycle += 1000
        arrays = tl.to_arrays()
        assert tl.duration_s == pytest.approx(
            float(arrays.ends_s[-1]), rel=1e-12, abs=0.0
        )
        assert tl.validate()

    def test_duration_is_exactly_rounded(self):
        import math

        tl = ExecutionTimeline(CLOCK)
        walls = [0.1, 1e-9, 1e-9, 1e-9]
        cycle = 0
        for w in walls:
            tl.append(seg(cycle, cycle + 100, wall=w))
            cycle += 100
        assert tl.duration_s == math.fsum(walls)

    def test_duration_updates_after_append(self):
        tl = ExecutionTimeline(CLOCK)
        tl.append(seg(0, 1000, wall=1e-3))
        assert tl.duration_s == pytest.approx(1e-3)
        tl.append(seg(1000, 2000, wall=2e-3))
        assert tl.duration_s == pytest.approx(3e-3)
        assert tl.validate()


class TestAppendBatch:
    """Column-array appends must be indistinguishable from scalar ones."""

    def _batch_args(self):
        import numpy as np

        start = np.array([0, 100, 300], dtype=np.int64)
        end = np.array([100, 300, 450], dtype=np.int64)
        return dict(
            start_cycles=start,
            end_cycles=end,
            component=2,
            instructions=np.array([50, 120, 80], dtype=np.int64),
            l2_accesses=np.array([5, 12, 8], dtype=np.int64),
            l2_misses=np.array([1, 2, 1], dtype=np.int64),
            mem_accesses=np.array([3, 7, 4], dtype=np.int64),
            cpu_power=np.array([10.0, 11.5, 9.25]),
            mem_power=np.array([0.5, 0.6, 0.4]),
            durations=(end - start) / CLOCK,
            tag="chunk",
        )

    def test_matches_scalar_appends(self):
        args = self._batch_args()
        batched = ExecutionTimeline(CLOCK)
        batched.append_batch(**args)
        scalar = ExecutionTimeline(CLOCK)
        for i in range(3):
            scalar.append(Segment(
                start_cycle=int(args["start_cycles"][i]),
                end_cycle=int(args["end_cycles"][i]),
                component=args["component"],
                instructions=int(args["instructions"][i]),
                l2_accesses=int(args["l2_accesses"][i]),
                l2_misses=int(args["l2_misses"][i]),
                mem_accesses=int(args["mem_accesses"][i]),
                cpu_power_w=float(args["cpu_power"][i]),
                mem_power_w=float(args["mem_power"][i]),
                wall_s=float(args["durations"][i]),
                tag="chunk",
            ))
        assert len(batched) == len(scalar) == 3
        for a, b in zip(batched, scalar):
            assert a == b
        assert batched.duration_s == scalar.duration_s
        assert batched.validate()

    def test_per_row_tags_round_trip_through_columns(self):
        args = self._batch_args()
        args["tags"] = ["base-compile:a", "base-compile:b", "chunk"]
        tl = ExecutionTimeline(CLOCK)
        tl.append(seg(0, 0 + 1))  # a leading row keeps the tags offset
        for name in ("start_cycles", "end_cycles"):
            args[name] = args[name] + 1
        tl.append_batch(**args)
        assert tl.tags == ["", "base-compile:a", "base-compile:b", "chunk"]
        restored = ExecutionTimeline.from_columns(tl.to_columns())
        assert restored.tags == tl.tags
        assert [s.tag for s in restored] == tl.tags
        assert list(restored) == list(tl)

    def test_per_row_tags_must_match_batch_length(self):
        args = self._batch_args()
        args["tags"] = ["only", "two"]
        tl = ExecutionTimeline(CLOCK)
        with pytest.raises(TimelineError):
            tl.append_batch(**args)
        assert len(tl) == 0 and tl.tags == []

    def test_batch_must_start_at_timeline_end(self):
        tl = ExecutionTimeline(CLOCK)
        tl.append(seg(0, 50))
        args = self._batch_args()  # starts at cycle 0, not 50
        with pytest.raises(TimelineError):
            tl.append_batch(**args)

    def test_internal_gap_rejected(self):
        args = self._batch_args()
        args["start_cycles"][2] += 10
        with pytest.raises(TimelineError):
            ExecutionTimeline(CLOCK).append_batch(**args)

    def test_zero_length_segment_rejected(self):
        args = self._batch_args()
        args["end_cycles"][1] = args["start_cycles"][1]
        with pytest.raises(TimelineError):
            ExecutionTimeline(CLOCK).append_batch(**args)

    def test_empty_batch_is_noop(self):
        import numpy as np

        tl = ExecutionTimeline(CLOCK)
        empty = np.array([], dtype=np.int64)
        tl.append_batch(
            start_cycles=empty, end_cycles=empty, component=0,
            instructions=empty, l2_accesses=empty, l2_misses=empty,
            mem_accesses=empty, cpu_power=empty.astype(float),
            mem_power=empty.astype(float),
            durations=empty.astype(float),
        )
        assert len(tl) == 0

    def test_growth_across_many_batches(self):
        import numpy as np

        tl = ExecutionTimeline(CLOCK)
        cycle = 0
        for _ in range(64):
            start = np.arange(cycle, cycle + 400, 40, dtype=np.int64)
            end = start + 40
            k = len(start)
            tl.append_batch(
                start_cycles=start, end_cycles=end, component=1,
                instructions=np.full(k, 20, dtype=np.int64),
                l2_accesses=np.zeros(k, dtype=np.int64),
                l2_misses=np.zeros(k, dtype=np.int64),
                mem_accesses=np.zeros(k, dtype=np.int64),
                cpu_power=np.full(k, 5.0),
                mem_power=np.full(k, 0.1),
                durations=(end - start) / CLOCK,
            )
            cycle += 400
        assert len(tl) == 64 * 10
        assert tl.total_cycles == 64 * 400
        assert tl.validate()
