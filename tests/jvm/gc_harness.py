"""Shared driver for collector tests: a miniature mutator."""

import numpy as np

from repro.errors import SpaceExhausted
from repro.jvm.objects import ReferenceFactory, RootSet
from repro.units import KB


class MiniMutator:
    """Allocates a stream of cohorts against a collector, expiring roots
    and invoking collections exactly the way the VM does (one cohort per
    batch allocation)."""

    def __init__(self, collector, seed=99, obj_bytes=16 * KB,
                 young_mean=64 * KB, survivor_frac=0.1,
                 survivor_life=4 * 1024 * KB, edge_prob=0.7):
        self.collector = collector
        self.table = collector.table
        self.rng = np.random.default_rng(seed)
        self.roots = RootSet(self.table)
        self.refs = ReferenceFactory(self.table, self.rng,
                                     edge_prob=edge_prob)
        self.now = 0.0
        self.obj_bytes = obj_bytes
        self.young_mean = young_mean
        self.survivor_frac = survivor_frac
        self.survivor_life = survivor_life
        self.reports = []
        self.allocated_bytes = 0
        self.objects = []   # handles, in allocation order

    def _draw_death(self):
        if self.rng.random() < self.survivor_frac:
            life = self.rng.exponential(self.survivor_life)
        else:
            life = self.rng.exponential(self.young_mean)
        return self.now + max(life, 1.0)

    def allocate_one(self, size, death):
        """Allocate one cohort, collecting first if the heap is full."""
        try:
            return self.collector.allocate([size], [self.now], [death])[0]
        except SpaceExhausted:
            self.roots.expire(self.now)
            self.reports.extend(
                self.collector.collect(self.roots, self.now)
            )
            return self.collector.allocate([size], [self.now], [death])[0]

    def allocate_bytes(self, total):
        """Allocate ``total`` bytes of cohorts, collecting as needed."""
        done = 0
        while done < total:
            size = self.obj_bytes
            death = self._draw_death()
            handle = self.allocate_one(size, death)
            self.roots.add([handle], [death])
            self.refs.wire([handle], [death])
            self.objects.append(handle)
            self.now += size
            done += size
            self.allocated_bytes += size
        return done

    def live_objects(self):
        return [h for h in self.objects if self.table.death[h] > self.now]

    def live_bytes(self):
        return int(sum(self.table.size[h] for h in self.live_objects()))

    def force_collection(self):
        self.roots.expire(self.now)
        reports = self.collector.collect(self.roots, self.now)
        self.reports.extend(reports)
        return reports
