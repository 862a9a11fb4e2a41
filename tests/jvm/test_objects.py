"""Tests for the object table, the root registry, and tracing."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.jvm.objects import (
    IMMORTAL,
    MIN_COMPACT_ROWS,
    ObjectTable,
    ReferenceFactory,
    RootSet,
    SPACE_MATURE,
    SPACE_NURSERY,
    cohort_columns,
    trace_closure,
)


@pytest.fixture
def table():
    return ObjectTable()


def obj(table, size=1000, birth=0.0, death=100.0, space=0):
    return table.new(size, birth, death, space=space)


class TestObjectTable:
    def test_liveness(self, table):
        o = obj(table, death=50.0)
        assert table.is_live(o, 49.9)
        assert not table.is_live(o, 50.0)

    def test_immortal(self, table):
        o = obj(table, death=IMMORTAL)
        assert table.death[o] == IMMORTAL
        assert table.is_live(o, 1e18)

    def test_rejects_bad_size(self, table):
        with pytest.raises(ConfigurationError):
            obj(table, size=0)

    def test_rejects_death_before_birth(self, table):
        with pytest.raises(ConfigurationError):
            table.new(10, birth=100.0, death=50.0)

    def test_batch_columns_validated(self):
        with pytest.raises(ConfigurationError):
            cohort_columns([10, -1], [0.0, 0.0], [5.0, 5.0])
        with pytest.raises(ConfigurationError):
            cohort_columns([10, 10], [0.0, 9.0], [5.0, 5.0])

    def test_real_object_count(self, table):
        assert table.real_object_count(obj(table, size=56 * 10)) == 10
        assert table.real_object_count(obj(table, size=8)) == 1

    def test_handles_are_rows_in_allocation_order(self, table):
        sizes, births, deaths = cohort_columns(
            [10, 20, 30], [0.0, 10.0, 30.0], [5e3, 6e3, 7e3])
        first = table.append(sizes, deaths, SPACE_NURSERY, [100, 110, 130])
        second = table.append(sizes[:1], deaths[:1], SPACE_MATURE, [7])
        assert list(first) == [0, 1, 2] and list(second) == [3]
        assert table.size[:4].tolist() == [10, 20, 30, 10]
        assert table.addr[:4].tolist() == [100, 110, 130, 7]
        assert table.space[:4].tolist() == [SPACE_NURSERY] * 3 + [
            SPACE_MATURE]
        assert not table.age[:4].any() and not table.pinned[:4].any()

    def test_growth_keeps_rows_and_edges(self, table):
        first = table.capacity
        handles = [obj(table, death=float(i + 1)) for i in range(first)]
        table.add_edge(handles[5], handles[30])
        table.add_edge(handles[5], handles[31])   # widens the edge rows
        table.reserve(first + 10)
        table.add_edge(first + 3, handles[7])     # a row not appended yet
        more = [obj(table, death=-1.0 - i, birth=-1e9) for i in range(5)]
        assert table.capacity > first
        assert table.death[handles].tolist() == [
            float(i + 1) for i in range(first)]
        assert table.edges(handles[5]) == [handles[30], handles[31]]
        assert more[3] == first + 3
        assert table.edges(more[3]) == [handles[7]]

    def test_edge_lists_keep_creation_order(self, table):
        a, b, c, d = (obj(table) for _ in range(4))
        for target in (c, b, d):
            table.add_edge(a, target)
        assert table.edges(a) == [c, b, d]
        assert table.nrefs[a] == 3

    def test_compaction_renumbers_in_order(self, table):
        handles = [obj(table, size=100 + i, death=float(i + 1))
                   for i in range(10)]
        table.add_edge(handles[2], handles[7])
        table.add_edge(handles[2], handles[4])
        table.add_edge(handles[7], handles[9])
        keep = np.zeros(table.n, dtype=bool)
        keep[[2, 7, 9]] = True
        mapping = table.compact(keep)
        assert table.n == 3
        assert mapping[:10].tolist() == [-1, -1, 0, -1, -1, -1, -1, 1, -1, 2]
        assert table.size[:3].tolist() == [102, 107, 109]
        # Kept targets are renumbered; dropped ones leave no edge.
        assert table.edges(0) == [1]
        assert table.nrefs[0] == 2
        assert table.edges(1) == [2]
        assert table.compact_at == MIN_COMPACT_ROWS


class TestRootSet:
    def test_add_and_len(self, table):
        roots = RootSet(table)
        roots.add([obj(table)])
        assert len(roots) == 1

    def test_expire_in_death_order(self, table):
        roots = RootSet(table)
        early = obj(table, death=10.0)
        late = obj(table, death=20.0)
        roots.add([late])
        roots.add([early])
        expired = roots.expire(15.0)
        assert expired == [early]
        assert late in roots
        assert early not in roots

    def test_expire_boundary_inclusive(self, table):
        roots = RootSet(table)
        o = obj(table, death=10.0)
        roots.add([o])
        assert roots.expire(10.0) == [o]

    def test_live_bytes(self, table):
        roots = RootSet(table)
        roots.add([obj(table, size=100, death=10.0)])
        roots.add([obj(table, size=200, death=20.0)])
        assert roots.live_bytes() == 300
        roots.expire(10.0)
        assert roots.live_bytes() == 200

    def test_live_objects_iteration(self, table):
        roots = RootSet(table)
        objs = [obj(table, death=float(i + 1)) for i in range(5)]
        roots.add(objs)
        roots.expire(2.0)
        assert set(roots.live_objects().tolist()) == set(objs[2:])

    def test_equal_deaths_keep_allocation_order(self, table):
        roots = RootSet(table)
        objs = [obj(table, death=IMMORTAL) for _ in range(6)]
        roots.add(objs)
        assert roots.live_objects().tolist() == objs

    def test_batch_add_matches_one_at_a_time(self, table):
        deaths = np.random.default_rng(4).exponential(100.0, 50)
        objs = [obj(table, death=float(d)) for d in deaths]
        one, batch = RootSet(table), RootSet(table)
        for h in objs:
            one.add([h])
        batch.add(objs, deaths.tolist())
        assert batch._heap == one._heap

    def test_remap_keeps_heap_layout(self, table):
        roots = RootSet(table)
        objs = [obj(table, death=float(d)) for d in (5, 3, 9, 1, 7, 2)]
        roots.add(objs[::2])
        before = roots.live_objects().tolist()
        keep = np.zeros(table.n, dtype=bool)
        keep[objs[::2]] = True
        mapping = table.compact(keep)
        roots.remap(mapping)
        assert roots.live_objects().tolist() == mapping[before].tolist()
        assert roots.expire(6.0) == [mapping[objs[0]]]

    def test_clear(self, table):
        roots = RootSet(table)
        roots.add([obj(table)])
        roots.clear()
        assert len(roots) == 0


def wire_all(factory, handles, deaths):
    done = 0
    while done < len(handles):
        done += factory.wire(handles[done:], deaths[done:])


class TestReferenceFactory:
    def test_edges_respect_death_ordering(self, rng, table):
        factory = ReferenceFactory(table, rng, max_refs=3, edge_prob=1.0)
        deaths = rng.integers(1, 1000, 200).astype(float)
        objs = [obj(table, death=d) for d in deaths]
        wire_all(factory, objs, deaths)
        assert table.nrefs[objs].sum() > 0
        for o in objs:
            for target in table.edges(o):
                assert table.death[target] >= table.death[o]

    def test_no_self_edges(self, rng, table):
        factory = ReferenceFactory(table, rng, max_refs=3, edge_prob=1.0)
        for _ in range(100):
            o = obj(table, death=50.0)
            factory.wire([o], [50.0])
            assert o not in table.edges(o)

    def test_window_bounded(self, rng, table):
        factory = ReferenceFactory(table, rng, window=16)
        objs = [obj(table) for _ in range(100)]
        wire_all(factory, objs, [100.0] * 100)
        assert len(factory.held_handles()) <= 16

    def test_zero_edge_probability(self, rng, table):
        factory = ReferenceFactory(table, rng, edge_prob=0.0)
        objs = [obj(table) for _ in range(50)]
        wire_all(factory, objs, [100.0] * 50)
        assert not table.nrefs[objs].any()

    def test_rejects_bad_window(self, rng, table):
        with pytest.raises(ConfigurationError):
            ReferenceFactory(table, rng, window=0)


class TestTraceClosure:
    def test_reaches_roots(self, table):
        a, b = obj(table), obj(table)
        visited, live_bytes, edges = trace_closure(table, [a, b])
        assert set(visited.tolist()) == {a, b}
        assert live_bytes == table.size[a] + table.size[b]

    def test_follows_edges(self, table):
        a, b, c = obj(table), obj(table), obj(table)
        table.add_edge(a, b)
        table.add_edge(b, c)
        visited, _, edges = trace_closure(table, [a])
        assert visited.tolist() == [a, b, c]
        assert edges == 2

    def test_handles_cycles(self, table):
        a, b = obj(table), obj(table)
        table.add_edge(a, b)
        table.add_edge(b, a)
        visited, _, edges = trace_closure(table, [a])
        assert set(visited.tolist()) == {a, b}
        assert edges == 2

    def test_space_filter(self, table):
        young = obj(table, space=SPACE_NURSERY)
        old = obj(table, space=SPACE_MATURE)
        table.add_edge(young, old)
        visited, _, edges = trace_closure(
            table, [young, old], include={SPACE_NURSERY}
        )
        assert visited.tolist() == [young]
        assert edges == 1   # the excluded target's edge is still looked at

    def test_duplicate_roots_counted_once(self, table):
        a = obj(table)
        visited, live_bytes, _ = trace_closure(table, [a, a])
        assert visited.tolist() == [a]
        assert live_bytes == table.size[a]

    def test_depth_first_discovery_order(self, table):
        # Roots first, in order; then the last root's walk, depth first.
        r1, r2, a, b, c, d = (obj(table) for _ in range(6))
        table.add_edge(r1, a)
        table.add_edge(r2, b)
        table.add_edge(r2, c)
        table.add_edge(b, d)
        visited, _, edges = trace_closure(table, [r1, r2])
        assert visited.tolist() == [r1, r2, b, c, d, a]
        assert edges == 4

    def test_reachability_equals_liveness(self, rng, table):
        # The core invariant: with death-ordered edges and a root set of
        # exactly the live objects, the traced closure is the live set.
        factory = ReferenceFactory(table, rng, max_refs=2, edge_prob=0.8)
        roots = RootSet(table)
        deaths = rng.integers(1, 500, 300).astype(float)
        objs = [obj(table, death=d) for d in deaths]
        wire_all(factory, objs, deaths)
        roots.add(objs)
        now = 250.0
        roots.expire(now)
        live = {o for o in objs if table.is_live(o, now)}
        visited, live_bytes, edges = trace_closure(
            table, roots.live_objects())
        assert set(visited.tolist()) == live
        assert live_bytes == sum(int(table.size[o]) for o in live)
        assert edges == sum(len(table.edges(o)) for o in live)
