"""Tests for the execution model (activities -> segments)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hardware.activity import Activity, ActivityRows, ExecutionModel
from repro.hardware.cache import MemoryBehavior
from repro.hardware.cpu import CPU, PENTIUM_M, PXA255
from repro.hardware.memory import MemoryModel, P6_SDRAM, PXA255_SDRAM
from repro.hardware.power import CPUPowerModel
from repro.units import KB, MB


def model_for(spec, mem_spec):
    cpu = CPU(spec)
    return ExecutionModel(cpu, MemoryModel(mem_spec),
                          CPUPowerModel(spec)), cpu


def activity(instructions=1_000_000, footprint=2 * MB, locality=0.8,
             l1=0.05, refs=0.35, spatial=0.55, mix=1.0, cpi_scale=1.0,
             component=0):
    return Activity(
        component=component,
        instructions=instructions,
        behavior=MemoryBehavior(
            footprint_bytes=footprint,
            hot_bytes=256 * KB,
            locality=locality,
            spatial_factor=spatial,
        ),
        refs_per_instr=refs,
        l1_miss_rate=l1,
        mix_factor=mix,
        cpi_scale=cpi_scale,
    )


class TestValidation:
    def test_rejects_negative_instructions(self):
        with pytest.raises(ConfigurationError):
            activity(instructions=-1)

    def test_rejects_bad_l1_rate(self):
        with pytest.raises(ConfigurationError):
            activity(l1=1.5)


class TestCostModel:
    def test_zero_instructions_zero_segment(self):
        model, _ = model_for(PENTIUM_M, P6_SDRAM)
        seg = model.run(activity(instructions=0), start_cycle=10)
        assert seg.cycles == 0

    def test_cycles_at_least_instructions_times_base_cpi(self):
        model, _ = model_for(PENTIUM_M, P6_SDRAM)
        cycles, *_ = model.cost(activity(l1=0.0))
        assert cycles >= 1_000_000 * PENTIUM_M.base_cpi * 0.99

    def test_more_misses_more_cycles(self):
        model, _ = model_for(PENTIUM_M, P6_SDRAM)
        fast, *_ = model.cost(activity(footprint=256 * KB))
        slow, *_ = model.cost(
            activity(footprint=32 * MB, locality=0.1)
        )
        assert slow > fast

    def test_l2_misses_become_memory_accesses(self):
        model, _ = model_for(PENTIUM_M, P6_SDRAM)
        _, l2a, l2m, mem, _ = model.cost(
            activity(footprint=32 * MB, locality=0.1)
        )
        assert l2a > 0
        assert 0 < l2m <= l2a
        assert mem == pytest.approx(l2m)

    def test_pxa255_has_no_l2_traffic(self):
        model, _ = model_for(PXA255, PXA255_SDRAM)
        _, l2a, l2m, mem, _ = model.cost(activity())
        assert l2a == 0
        assert l2m == 0
        assert mem > 0  # L1 misses go straight to SDRAM

    def test_in_order_core_exposes_full_latency(self):
        # Identical activity: the PXA255 (no overlap) pays relatively
        # more stall per miss than the Pentium M.
        p6_model, _ = model_for(PENTIUM_M, P6_SDRAM)
        px_model, _ = model_for(PXA255, PXA255_SDRAM)
        a = activity(footprint=16 * MB, locality=0.1)
        _, _, _, _, p6_ipc = p6_model.cost(a)
        _, _, _, _, px_ipc = px_model.cost(a)
        assert px_ipc < p6_ipc

    def test_cpi_scale(self):
        model, _ = model_for(PENTIUM_M, P6_SDRAM)
        normal, *_ = model.cost(activity())
        slowed, *_ = model.cost(activity(cpi_scale=2.0))
        assert slowed > normal * 1.5


class TestSegments:
    def test_segment_power_set(self):
        model, _ = model_for(PENTIUM_M, P6_SDRAM)
        seg = model.run(activity(), start_cycle=0)
        assert seg.cpu_power_w > PENTIUM_M.idle_power_w
        assert seg.mem_power_w >= P6_SDRAM.idle_power_w

    def test_segment_contiguity_fields(self):
        model, _ = model_for(PENTIUM_M, P6_SDRAM)
        seg = model.run(activity(), start_cycle=1000)
        assert seg.start_cycle == 1000
        assert seg.end_cycle > 1000

    def test_high_ipc_draws_more_power(self):
        model, _ = model_for(PENTIUM_M, P6_SDRAM)
        hot = model.run(activity(footprint=128 * KB, l1=0.01), 0)
        cold = model.run(
            activity(footprint=32 * MB, locality=0.05, l1=0.08), 0
        )
        assert hot.ipc > cold.ipc
        assert hot.cpu_power_w > cold.cpu_power_w

    def test_idle_segment(self):
        model, _ = model_for(PENTIUM_M, P6_SDRAM)
        seg = model.idle(7, start_cycle=0, cycles=16000)
        assert seg.cycles == 16000
        assert seg.instructions == 0
        assert seg.cpu_power_w == pytest.approx(4.5)

    def test_throttled_cpu_stretches_wall_time(self):
        model, cpu = model_for(PENTIUM_M, P6_SDRAM)
        seg_fast = model.run(activity(), 0)
        cpu.throttled = True
        seg_slow = model.run(activity(), seg_fast.end_cycle)
        assert seg_slow.cycles == seg_fast.cycles
        # Wall time comes from the effective clock at run time; the
        # scheduler stamps it — here we compute it directly.
        assert cpu.effective_clock_hz == pytest.approx(0.8e9)


class TestCostRows:
    """cost_rows/run_rows are bitwise-equal, row by row, to cost/run of
    each row's activity."""

    @pytest.mark.parametrize("spec, mem_spec", [(PENTIUM_M, P6_SDRAM),
                                                (PXA255, PXA255_SDRAM)])
    def test_rows_equal_scalar_path(self, spec, mem_spec):
        model, cpu = model_for(spec, mem_spec)
        instructions = np.array([1, 777, 40_000, 3_000_000, 91_000_017])
        footprints = np.array([0, 64 * KB, 700 * KB, 3 * MB, 40 * MB])
        tags = np.array([f"r{i}" for i in range(5)], dtype=object)
        shared = ActivityRows(
            component=3, instructions=instructions,
            footprint_bytes=footprints, tags=tags,
            hot_bytes=256 * KB, locality=0.7, spatial_factor=0.55,
            refs_per_instr=0.33, l1_miss_rate=0.04, mix_factor=1.07,
            cpi_scale=0.93,
        )
        # One component and profile per row, as in a slice's stream;
        # one hot set is empty and one covers the whole footprint.
        per_row = ActivityRows(
            component=np.array([3, 1, 7, 3, 2]),
            instructions=instructions, footprint_bytes=footprints,
            tags=tags,
            hot_bytes=np.array([1 * MB, 384 * KB, 128 * KB, 3 * MB, 0]),
            locality=np.array([0.7, 0.45, 0.95, 0.6, 0.3]),
            spatial_factor=np.array([0.55, 0.25, 0.6, 0.5, 0.41]),
            refs_per_instr=np.array([0.33, 0.2, 0.41, 0.3, 0.28]),
            l1_miss_rate=np.array([0.04, 0.012, 0.024, 0.06, 0.08]),
            mix_factor=np.array([1.07, 1.12, 0.9, 1.0, 0.96]),
            cpi_scale=np.array([0.93, 0.45, 1.1, 1.0, 1.3]),
        )
        cpu.throttled = True
        cpu.set_dvfs(0.75)
        for rows in (shared, per_row):
            costed = model.cost_rows(rows)
            batch = model.run_rows(costed[1:], start_cycle=100)
            cycle = 100
            for i in range(1, len(rows)):
                activity = rows.activity(i)
                assert costed.activity(i) == activity
                assert int(costed.component[i]) == activity.component
                cost = model.cost(activity)
                assert costed.cycles[i] == cost[0]
                seg = model.run(activity, cycle, cost=cost)
                assert (int(batch.start_cycles[i - 1]),
                        int(batch.end_cycles[i - 1])) == (seg.start_cycle,
                                                          seg.end_cycle)
                assert int(batch.instructions[i - 1]) == seg.instructions
                assert int(batch.l2_accesses[i - 1]) == seg.l2_accesses
                assert int(batch.l2_misses[i - 1]) == seg.l2_misses
                assert int(batch.mem_accesses[i - 1]) == seg.mem_accesses
                assert float(batch.cpu_power_w[i - 1]) == seg.cpu_power_w
                assert float(batch.mem_power_w[i - 1]) == seg.mem_power_w
                assert float(batch.durations_s[i - 1]) == (
                    seg.cycles / cpu.effective_clock_hz)
                cycle = seg.end_cycle

    def test_zero_instruction_row_costs_nothing(self):
        model, _ = model_for(PENTIUM_M, P6_SDRAM)
        rows = ActivityRows(
            component=0, instructions=np.array([0, 5]),
            footprint_bytes=np.array([1, 1]),
            tags=np.array(["a", "b"], dtype=object), hot_bytes=0,
            locality=0.5, spatial_factor=0.5, refs_per_instr=0.3,
            l1_miss_rate=0.01,
        )
        costed = model.cost_rows(rows)
        assert model.cost(rows.activity(0)) == (0, 0.0, 0.0, 0.0, 0.0)
        assert (int(costed.cycles[0]), float(costed.l2_accesses[0]),
                float(costed.power_terms[0])) == (0, 0.0, 0.0)
        assert int(costed.cycles[1]) == model.cost(rows.activity(1))[0]

    def test_rows_reject_negative_instructions(self):
        with pytest.raises(ConfigurationError):
            ActivityRows(
                component=0, instructions=np.array([5, -1]),
                footprint_bytes=np.array([1, 1]),
                tags=np.array(["a", "b"], dtype=object), hot_bytes=0,
                locality=0.5, spatial_factor=0.5, refs_per_instr=0.3,
                l1_miss_rate=0.01,
            )
