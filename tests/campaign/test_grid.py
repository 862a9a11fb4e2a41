"""Tests for campaign grid expansion and per-cell seeding."""

import pytest

from repro.campaign import derive_cell_seed, expand_grid
from repro.campaign.grid import collector_supported
from repro.errors import ConfigurationError
from repro.spec import ScenarioSpec


class TestExpansion:
    def test_full_product(self):
        campaign = ScenarioSpec(
            benchmarks=("_202_jess", "_209_db"),
            collectors=("SemiSpace", "GenCopy"),
            heap_mbs=(32, 64),
            seeds=(1, 2),
        )
        cells = campaign.cells()
        assert len(cells) == 2 * 2 * 2 * 2
        assert len(set(cells)) == len(cells)

    def test_grid_order_is_deterministic(self):
        campaign = ScenarioSpec(
            benchmarks=("_202_jess", "_209_db"),
            heap_mbs=(32, 64, 128),
        )
        assert campaign.cells() == campaign.cells()
        assert [c.benchmark for c in campaign.cells()[:3]] == \
            ["_202_jess"] * 3

    def test_unsupported_vm_collector_pairs_skipped(self):
        campaign = ScenarioSpec(
            benchmarks=("_202_jess",),
            vms=("jikes", "kaffe"),
            collectors=("SemiSpace", "KaffeGC"),
        )
        cells = campaign.cells()
        assert len(cells) == 2
        assert {(c.vm, c.collector) for c in cells} == {
            ("jikes", "SemiSpace"), ("kaffe", "KaffeGC"),
        }

    def test_default_collector_fits_all_vms(self):
        assert collector_supported("jikes", None)
        assert collector_supported("kaffe", None)
        assert not collector_supported("kaffe", "GenMS")

    def test_scalar_axes_normalized(self):
        campaign = ScenarioSpec(benchmarks="_202_jess", heap_mbs=32)
        assert campaign.benchmarks == ("_202_jess",)
        assert len(campaign.cells()) == 1

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(benchmarks=())

    def test_all_unsupported_rejected(self):
        campaign = ScenarioSpec(
            benchmarks=("_202_jess",),
            vms=("kaffe",),
            collectors=("SemiSpace",),
        )
        with pytest.raises(ConfigurationError):
            expand_grid(campaign)

    def test_cell_fields_propagate(self):
        campaign = ScenarioSpec(
            benchmarks=("_202_jess",),
            input_scales=(0.5,),
            repetitions=2,
            daq_periods_s=(1e-3,),
        )
        (cell,) = campaign.cells()
        assert cell.input_scale == 0.5
        assert cell.repetitions == 2
        assert cell.daq_period_s == 1e-3


class TestSeeds:
    def test_fixed_seeds_by_default(self):
        campaign = ScenarioSpec(
            benchmarks=("_202_jess", "_209_db"), seeds=(7,)
        )
        assert all(c.seed == 7 for c in campaign.cells())

    def test_derived_seeds_are_stable(self):
        a = derive_cell_seed(42, "_202_jess", "jikes", "p6",
                             "SemiSpace", 32)
        b = derive_cell_seed(42, "_202_jess", "jikes", "p6",
                             "SemiSpace", 32)
        assert a == b

    def test_derived_seeds_differ_across_cells(self):
        campaign = ScenarioSpec(
            benchmarks=("_202_jess", "_209_db"),
            heap_mbs=(32, 64),
            derive_seeds=True, version=1,
        )
        seeds = [c.seed for c in campaign.cells()]
        assert len(set(seeds)) == len(seeds)

    def test_derived_seed_survives_grid_growth(self):
        # Adding an axis value must not change unrelated cells' seeds.
        small = ScenarioSpec(
            benchmarks=("_202_jess",), heap_mbs=(32,),
            derive_seeds=True, version=1,
        )
        big = ScenarioSpec(
            benchmarks=("_202_jess", "_209_db"), heap_mbs=(32, 64),
            derive_seeds=True, version=1,
        )
        (anchor,) = small.cells()
        match = [
            c for c in big.cells()
            if c.benchmark == anchor.benchmark
            and c.heap_mb == anchor.heap_mb
        ]
        assert match[0].seed == anchor.seed
