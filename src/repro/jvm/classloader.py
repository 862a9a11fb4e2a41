"""Dynamic class loading.

The two VMs differ in a way the paper shows matters enormously on the
embedded platform (Section VI-E):

* the **Jikes RVM** merges the system classes into its boot image, so only
  *application* classes pass through the dynamic loader at run time;
* **Kaffe** keeps its binary small and lazily class-loads *both* user and
  system classes, producing a long initialization period dominated by
  loader calls — which makes the class loader the single largest JVM
  energy consumer on the PXA255 (about 18 % on average).

Loading a class costs parsing + verification + installation work
proportional to the class-file size; a cold (first-ever) load additionally
pays a storage-read stall, which the paper's warm-up run removes — the
:class:`~repro.core.experiment.Experiment` runner performs the same
warm-up before measuring.
"""

import copy
from dataclasses import dataclass

import numpy as np

from repro.hardware.activity import Activity, ActivityRows
from repro.hardware.cache import MemoryBehavior
from repro.jvm.components import Component
from repro.jvm.profiles import profile_for

#: Instructions per class-file byte (parse + verify + link + initialize).
LOAD_INSTR_PER_BYTE = 60

#: Fixed per-class overhead (symbol interning, registry insertion).
LOAD_FIXED_INSTR = 30_000

#: Extra instructions-equivalent stall for a cold (uncached) file read.
COLD_READ_INSTR_PER_BYTE = 25

#: Kaffe's loader path is slower (portable C, extra indirection).
KAFFE_LOADER_FACTOR = 1.5

#: Class-file reads on the DBPXA255 come from slow FLASH/MMC storage and a
#: small page cache; the extra per-byte stall makes class loading the
#: dominant JVM energy consumer there (Section VI-E).
PXA255_STORAGE_FACTOR = 1.5


@dataclass(frozen=True)
class ClassSpec:
    """A loadable class: name, class-file size, and origin."""

    name: str
    file_bytes: int
    is_system: bool = False


class ClassLoader:
    """Tracks loaded classes and prices each load as an activity."""

    def __init__(self, platform_name, lazy_system_classes,
                 loader_factor=1.0):
        self.platform_name = platform_name
        #: Kaffe loads system classes dynamically; Jikes boot-images them.
        self.lazy_system_classes = lazy_system_classes
        self.loader_factor = loader_factor
        self._loaded = set()
        self.loads = 0
        self.loaded_bytes = 0

    @property
    def loaded_count(self):
        return len(self._loaded)

    def needs_load(self, spec):
        """Whether touching this class triggers the dynamic loader."""
        if spec.name in self._loaded:
            return False
        if spec.is_system and not self.lazy_system_classes:
            return False  # merged into the boot image
        return True

    def preload_system(self, specs):
        """Mark system classes as present without loader work (used by the
        Jikes boot sequence for its merged boot image)."""
        for spec in specs:
            if spec.is_system:
                self._loaded.add(spec.name)

    def _admit(self, spec):
        """Record the dynamic load of *spec* if it needs one; return
        whether it did."""
        if not self.needs_load(spec):
            return False
        self._loaded.add(spec.name)
        self.loads += 1
        self.loaded_bytes += spec.file_bytes
        return True

    def load_all(self, specs):
        """Record the dynamic loads that touching each of *specs* in
        turn triggers; return how many there were.  Their work is
        priced beforehand, by :meth:`activity_rows`."""
        return sum(map(self._admit, specs))

    def load(self, spec, warm=True):
        """Load *spec*; return the :class:`Activity` performing the work.

        Returns ``None`` when no dynamic load is needed (already loaded,
        or system class satisfied by the boot image).
        """
        if not self._admit(spec):
            return None
        instr = (
            spec.file_bytes * LOAD_INSTR_PER_BYTE + LOAD_FIXED_INSTR
        )
        if not warm:
            instr += spec.file_bytes * COLD_READ_INSTR_PER_BYTE
        instr = int(instr * self.loader_factor)
        if self.platform_name == "pxa255":
            instr = int(instr * PXA255_STORAGE_FACTOR)

        profile = profile_for(self.platform_name, "classloader")
        # The loader's working set grows with the metadata already
        # installed: repeated loads touch an ever-larger class registry.
        footprint = max(self.loaded_bytes * 2, 512 * 1024)
        return Activity(
            component=Component.CL,
            instructions=instr,
            behavior=MemoryBehavior(
                footprint_bytes=footprint,
                hot_bytes=profile.hot_bytes,
                locality=profile.locality,
                spatial_factor=profile.spatial,
            ),
            refs_per_instr=profile.refs_per_instr,
            l1_miss_rate=profile.l1_miss_rate,
            mix_factor=profile.mix,
            cpi_scale=profile.cpi_scale,
            tag=f"classload:{spec.name}",
        )

    def activity_rows(self, specs, warm=True):
        """:meth:`load` of each of *specs* in turn, as
        :class:`~repro.hardware.activity.ActivityRows` of the loads it
        triggers, in load order.  Nothing is loaded: a copy of this
        loader does the bookkeeping."""
        probe = copy.copy(self)
        probe._loaded = set(self._loaded)
        loads = [spec for spec in specs if probe._admit(spec)]
        sizes = np.array([spec.file_bytes for spec in loads],
                         dtype=np.int64)
        instr = sizes * LOAD_INSTR_PER_BYTE + LOAD_FIXED_INSTR
        if not warm:
            instr += sizes * COLD_READ_INSTR_PER_BYTE
        instr = (instr * self.loader_factor).astype(np.int64)
        if self.platform_name == "pxa255":
            instr = (instr * PXA255_STORAGE_FACTOR).astype(np.int64)
        profile = profile_for(self.platform_name, "classloader")
        tags = np.empty(len(loads), dtype=object)
        tags[:] = [f"classload:{spec.name}" for spec in loads]
        return ActivityRows(
            component=Component.CL,
            instructions=instr,
            footprint_bytes=np.maximum(
                (self.loaded_bytes + np.cumsum(sizes)) * 2, 512 * 1024
            ),
            tags=tags,
            hot_bytes=profile.hot_bytes,
            locality=profile.locality,
            spatial_factor=profile.spatial,
            refs_per_instr=profile.refs_per_instr,
            l1_miss_rate=profile.l1_miss_rate,
            mix_factor=profile.mix,
            cpi_scale=profile.cpi_scale,
        )
