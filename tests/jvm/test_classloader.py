"""Tests for the dynamic class loader."""

import pytest

from repro.jvm.classloader import (
    ClassLoader,
    ClassSpec,
    KAFFE_LOADER_FACTOR,
    LOAD_FIXED_INSTR,
    LOAD_INSTR_PER_BYTE,
)
from repro.jvm.components import Component


def app_class(name="A", size=5000):
    return ClassSpec(name=name, file_bytes=size, is_system=False)


def sys_class(name="java.lang.S", size=4000):
    return ClassSpec(name=name, file_bytes=size, is_system=True)


class TestSemantics:
    def test_first_load_returns_activity(self):
        cl = ClassLoader("p6", lazy_system_classes=False)
        act = cl.load(app_class())
        assert act is not None
        assert act.component == Component.CL

    def test_second_load_is_free(self):
        cl = ClassLoader("p6", lazy_system_classes=False)
        cl.load(app_class())
        assert cl.load(app_class()) is None
        assert cl.loads == 1

    def test_jikes_system_classes_from_boot_image(self):
        # Jikes merges system classes into the VM binary: no loader work.
        cl = ClassLoader("p6", lazy_system_classes=False)
        assert cl.load(sys_class()) is None
        assert cl.loads == 0

    def test_kaffe_loads_system_classes(self):
        # Kaffe "does not merge system classes with the JVM binary ...
        # which generates more calls to the class loader" (Section VI-E).
        cl = ClassLoader("p6", lazy_system_classes=True,
                         loader_factor=KAFFE_LOADER_FACTOR)
        assert cl.load(sys_class()) is not None
        assert cl.loads == 1

    def test_preload_system(self):
        cl = ClassLoader("p6", lazy_system_classes=True)
        cl.preload_system([sys_class("a", 1), sys_class("b", 1)])
        assert cl.loaded_count == 2
        assert cl.load(sys_class("a", 1)) is None


class TestCosts:
    def test_cost_scales_with_file_size(self):
        cl = ClassLoader("p6", lazy_system_classes=False)
        small = cl.load(app_class("s", 1000))
        large = cl.load(app_class("l", 20000))
        assert large.instructions > small.instructions

    def test_cost_formula(self):
        cl = ClassLoader("p6", lazy_system_classes=False)
        act = cl.load(app_class(size=1000))
        assert act.instructions == (
            1000 * LOAD_INSTR_PER_BYTE + LOAD_FIXED_INSTR
        )

    def test_cold_load_costs_more(self):
        warm_cl = ClassLoader("p6", lazy_system_classes=False)
        cold_cl = ClassLoader("p6", lazy_system_classes=False)
        warm = warm_cl.load(app_class(), warm=True)
        cold = cold_cl.load(app_class(), warm=False)
        assert cold.instructions > warm.instructions

    def test_kaffe_loader_slower(self):
        jikes = ClassLoader("p6", lazy_system_classes=False)
        kaffe = ClassLoader("p6", lazy_system_classes=True,
                            loader_factor=KAFFE_LOADER_FACTOR)
        j = jikes.load(app_class())
        k = kaffe.load(app_class())
        assert k.instructions > j.instructions

    def test_pxa255_storage_penalty(self):
        p6 = ClassLoader("p6", lazy_system_classes=True)
        pxa = ClassLoader("pxa255", lazy_system_classes=True)
        a = p6.load(app_class())
        b = pxa.load(app_class())
        assert b.instructions > a.instructions

    def test_footprint_grows_with_loaded_metadata(self):
        cl = ClassLoader("p6", lazy_system_classes=False)
        first = cl.load(app_class("a", 8000))
        for i in range(200):
            cl.load(app_class(f"c{i}", 8000))
        last = cl.load(app_class("z", 8000))
        assert (
            last.behavior.footprint_bytes
            > first.behavior.footprint_bytes
        )


class TestActivityRows:
    @pytest.mark.parametrize("platform_name", ["p6", "pxa255"])
    @pytest.mark.parametrize("lazy, factor", [(False, 1.0),
                                              (True, KAFFE_LOADER_FACTOR)])
    @pytest.mark.parametrize("warm", [True, False])
    def test_rows_price_the_loads_in_order(self, platform_name, lazy,
                                           factor, warm):
        # Repeats, boot-image system classes and a growing footprint.
        specs = [app_class("a", 5000), sys_class("s", 4100),
                 app_class("b", 700_001), app_class("a", 5000),
                 *[app_class(f"c{i}", 3000 + 97 * i) for i in range(9)]]
        rows_loader = ClassLoader(platform_name, lazy, loader_factor=factor)
        loop_loader = ClassLoader(platform_name, lazy, loader_factor=factor)
        rows_loader.load(app_class("before", 9000))
        loop_loader.load(app_class("before", 9000))
        rows = rows_loader.activity_rows(specs, warm=warm)
        assert rows_loader.loads == 1  # pricing loads nothing
        loads = [act for act in (loop_loader.load(spec, warm=warm)
                                 for spec in specs) if act is not None]
        assert [rows.activity(i) for i in range(len(rows))] == loads
        assert rows_loader.load_all(specs) == len(loads)
        assert (rows_loader.loads, rows_loader.loaded_bytes) == (
            loop_loader.loads, loop_loader.loaded_bytes)
