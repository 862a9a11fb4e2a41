"""Property-based tests over all collectors (hypothesis).

Invariants checked on randomized allocation/lifetime sequences:

* no live object is ever lost by a collection (safety),
* collector occupancy always covers the live bytes (accounting),
* collections reclaim everything that is unreachable for copying
  collectors (completeness; mark-sweep may retain cell rounding and
  Kaffe may conservatively pin).
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import SpaceExhausted
from repro.jvm.gc import make_collector
from repro.jvm.objects import ReferenceFactory, RootSet
from repro.units import KB, MB

COLLECTORS = ["SemiSpace", "MarkSweep", "GenCopy", "GenMS", "KaffeGC"]


@st.composite
def allocation_scripts(draw):
    """A random allocation script: (size_kb, lifetime_kb) pairs."""
    n = draw(st.integers(min_value=20, max_value=120))
    sizes = draw(
        st.lists(st.integers(min_value=4, max_value=128),
                 min_size=n, max_size=n)
    )
    lifetimes = draw(
        st.lists(st.integers(min_value=8, max_value=4000),
                 min_size=n, max_size=n)
    )
    return list(zip(sizes, lifetimes))


def run_script(collector_name, script, seed=3):
    rng = np.random.default_rng(seed)
    collector = make_collector(collector_name, 8 * MB, rng)
    table = collector.table
    roots = RootSet(table)
    refs = ReferenceFactory(table, rng)
    now = 0.0
    objects = []
    for size_kb, lifetime_kb in script:
        size = size_kb * KB
        death = now + lifetime_kb * KB
        try:
            obj = collector.allocate([size], [now], [death])[0]
        except SpaceExhausted:
            roots.expire(now)
            collector.collect(roots, now)
            obj = collector.allocate([size], [now], [death])[0]
        roots.add([obj], [death])
        refs.wire([obj], [death])
        objects.append(obj)
        now += size
    return collector, roots, objects, now


def live_handles(table, objects, now):
    return [o for o in objects if table.is_live(o, now)]


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(script=allocation_scripts(),
       name=st.sampled_from(COLLECTORS))
def test_live_objects_never_lost(script, name):
    collector, roots, objects, now = run_script(name, script)
    roots.expire(now)
    collector.collect(roots, now)
    live = live_handles(collector.table, objects, now)
    # Every live object must still be registered and intact.
    for obj in live:
        assert obj in roots
        assert collector.table.size[obj] > 0


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(script=allocation_scripts(),
       name=st.sampled_from(COLLECTORS))
def test_occupancy_covers_live_bytes(script, name):
    collector, roots, objects, now = run_script(name, script)
    roots.expire(now)
    collector.collect(roots, now)
    live_bytes = int(collector.table.size[
        live_handles(collector.table, objects, now)].sum())
    assert collector.used_bytes() >= live_bytes


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(script=allocation_scripts())
def test_semispace_collection_is_complete(script):
    # Copying collection retains exactly the live bytes: nothing more.
    collector, roots, objects, now = run_script("SemiSpace", script)
    roots.expire(now)
    collector.collect(roots, now)
    live_bytes = int(collector.table.size[
        live_handles(collector.table, objects, now)].sum())
    assert collector.used_bytes() == live_bytes


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(script=allocation_scripts(),
       name=st.sampled_from(COLLECTORS))
def test_freed_never_exceeds_allocated(script, name):
    collector, roots, objects, now = run_script(name, script)
    roots.expire(now)
    collector.collect(roots, now)
    allocated = int(collector.table.size[objects].sum())
    assert collector.stats.freed_bytes <= allocated


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(script=allocation_scripts(),
       name=st.sampled_from(COLLECTORS))
def test_reports_internally_consistent(script, name):
    collector, roots, objects, now = run_script(name, script)
    roots.expire(now)
    for report in collector.collect(roots, now):
        assert report.traced_bytes >= 0
        assert report.freed_bytes >= 0
        assert report.footprint_bytes >= 0
        assert 0.0 <= report.survival_rate <= 1.0
