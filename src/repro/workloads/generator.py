"""Deterministic workload generation.

Binding a :class:`~repro.workloads.spec.BenchmarkSpec` to a seeded random
generator yields a :class:`WorkloadRun`: the concrete program the VM
executes.  The run is presented to the VM as a sequence of
:class:`Slice` records — equal shares of the benchmark's bytecode volume,
each carrying the classes first touched, the methods first invoked, the
allocation demand, and the slice's execution "weather" (IPC/mix jitter,
which is what gives the application its bursty power profile and peaks).

First-touch behavior follows the classic startup curve: the probability
mass of class first-touches and method first-invocations is concentrated
early in the run (drawn as ``u^3`` over run position), producing the long
initialization period the paper observes for Kaffe on the PXA255.
"""

import math
from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.errors import ConfigurationError
from repro.jvm.classloader import ClassSpec
from repro.jvm.compiler.method import MethodTable

#: Default number of slices a run is divided into.
DEFAULT_SLICES = 160

#: Exponent of the first-touch position distribution (u^k over [0,1]).
FIRST_TOUCH_EXPONENT = 3.0


@dataclass
class Slice:
    """One unit of application progress handed to the VM."""

    index: int
    bytecodes: float
    alloc_bytes: int
    class_loads: List[ClassSpec] = field(default_factory=list)
    #: Rows of the methods first called in this slice, in the run's
    #: method table (in table order).
    method_ids: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64))
    mutations: int = 0
    cpi_jitter: float = 1.0
    mix_jitter: float = 1.0


class WorkloadRun:
    """A benchmark instance: concrete classes, methods, and slices."""

    def __init__(self, spec, rng, input_scale=1.0, n_slices=DEFAULT_SLICES):
        if n_slices < 4:
            raise ConfigurationError("need at least 4 slices")
        self.spec = spec if input_scale == 1.0 else spec.scaled(input_scale)
        self.base_spec = spec
        self.rng = rng
        self.n_slices = n_slices
        self._build_classes()
        self._build_methods()
        self._build_slices()

    # -- program structure -------------------------------------------

    def _build_classes(self):
        spec = self.spec
        rng = self.rng
        app_sizes = np.clip(
            rng.lognormal(math.log(spec.class_file_bytes), 0.5,
                          size=spec.app_classes),
            1024, 64 * 1024,
        ).astype(np.int64)
        sys_sizes = np.clip(
            rng.lognormal(math.log(4096), 0.5, size=spec.system_classes),
            1024, 48 * 1024,
        ).astype(np.int64)
        classes = [
            ClassSpec(name=f"{spec.name}.C{i}", file_bytes=size,
                      is_system=False)
            for i, size in enumerate(app_sizes.tolist())
        ] + [
            ClassSpec(name=f"java.sys.S{i}", file_bytes=size,
                      is_system=True)
            for i, size in enumerate(sys_sizes.tolist())
        ]
        self.classes = classes
        # First-touch position of each class, as a fraction of the run.
        self._class_touch = rng.random(len(classes)) ** FIRST_TOUCH_EXPONENT

    def _build_methods(self):
        spec = self.spec
        rng = self.rng
        ranks = np.arange(1, spec.methods + 1, dtype=np.float64)
        weights = ranks ** (-spec.zipf_s)
        weights /= weights.sum()
        sizes = np.clip(
            rng.lognormal(math.log(spec.method_bytecode_bytes), 0.6,
                          size=spec.methods),
            40, 16 * 1024,
        ).astype(np.int64)
        self.method_table = MethodTable.from_columns(
            [f"{spec.name}.m{i}" for i in range(spec.methods)],
            sizes, weights,
        )
        # Hot methods tend to be invoked early; colder ones later.
        order = rng.random(spec.methods) ** FIRST_TOUCH_EXPONENT
        hot_pull = weights / weights.max()
        self._method_touch = order * (1.0 - 0.6 * hot_pull)

    def _build_slices(self):
        spec = self.spec
        rng = self.rng
        n = self.n_slices

        # Allocation intensity profile across the run (mild phase shape).
        phase = 1.0 + 0.25 * np.sin(
            np.linspace(0.0, 2.0 * math.pi, n) + rng.random() * math.pi
        )
        phase /= phase.mean()

        bytecodes_per = spec.bytecodes / n
        jitter_sigma = 0.05 * spec.burstiness
        cpi_jitter = rng.lognormal(0.0, jitter_sigma, size=n)
        mix_jitter = np.clip(
            1.0 + 0.06 * spec.burstiness * rng.standard_normal(n),
            0.80,
            1.35,
        )

        # Assign first touches to slices.
        class_slices = np.minimum(
            (self._class_touch * n).astype(int), n - 1
        )
        method_slices = np.minimum(
            (self._method_touch * n).astype(int), n - 1
        )

        slices = []
        alloc_total = 0
        for i in range(n):
            alloc = int(spec.alloc_bytes * phase[i] / n)
            alloc_total += alloc
            slices.append(
                Slice(
                    index=i,
                    bytecodes=bytecodes_per,
                    alloc_bytes=alloc,
                    cpi_jitter=float(cpi_jitter[i]),
                    mix_jitter=float(mix_jitter[i]),
                )
            )
        # Fix rounding drift so total allocation matches the spec.
        slices[-1].alloc_bytes += spec.alloc_bytes - alloc_total

        for ci, si in enumerate(class_slices):
            slices[si].class_loads.append(self.classes[ci])
        # Each slice's first calls, in table order.
        by_slice = np.argsort(method_slices, kind="stable")
        bounds = np.concatenate(
            ([0], np.cumsum(np.bincount(method_slices, minlength=n)))
        )
        for s, lo, hi in zip(slices, bounds[:-1].tolist(),
                             bounds[1:].tolist()):
            s.method_ids = by_slice[lo:hi]

        # Tracked pointer mutations per slice.
        for s in slices:
            expected = spec.mutation_rate_per_mb * s.alloc_bytes / (1 << 20)
            s.mutations = int(rng.poisson(max(expected, 0.0)))
        self._slices = slices

    # -- VM interface ----------------------------------------------------

    @property
    def slices(self):
        return self._slices

    def draw_cohort_batch(self, now, alloc_bytes):
        """Vectorized cohort draw covering at least ``alloc_bytes``.

        Returns ``(sizes, deaths)`` as int64 and float64 arrays; sizes
        sum to at least ``alloc_bytes`` (the last cohort may overshoot
        slightly, as a real allocator's final request would).  Deaths
        are computed against the running allocation clock starting at
        ``now``.
        """
        spec = self.spec
        rng = self.rng
        if alloc_bytes <= 0:
            return np.empty(0, dtype=np.int64), np.empty(0)
        est = max(int(alloc_bytes / spec.cohort_bytes * 1.15) + 8, 8)
        while True:
            raw = rng.lognormal(math.log(spec.cohort_bytes), 0.45, size=est)
            sizes = np.clip(raw, 2 * 1024, 256 * 1024).astype(np.int64)
            cumulative = np.cumsum(sizes)
            if cumulative[-1] >= alloc_bytes:
                break
            est = int(est * 1.5) + 8
        count = int(np.searchsorted(cumulative, alloc_bytes)) + 1
        sizes = sizes[:count]
        cumulative = cumulative[:count]

        # Mixture lifetimes: immortal / young / mid.
        u = rng.random(count)
        lifetimes = np.where(
            u < spec.immortal_frac + spec.young_frac,
            rng.exponential(spec.young_mean_bytes, size=count),
            rng.exponential(spec.mid_mean_bytes(), size=count),
        )
        deaths = (now + cumulative - sizes) + lifetimes  # birth + lifetime
        deaths = deaths.astype(np.float64)
        deaths[u < spec.immortal_frac] = np.inf
        return sizes, deaths

    def mutation_target(self, candidates, deaths):
        """Pick which just-allocated object a tracked mutation stores.

        ``candidates`` are handles and ``deaths`` their death times (a
        parallel list).  Real remembered-set entries disproportionately
        target objects being installed into long-lived structures; the
        spec's ``long_lived_mutation_bias`` selects the longest-lived
        candidate (the first of equals) with that probability.
        """
        if not candidates:
            return None
        if self.rng.random() < self.spec.long_lived_mutation_bias:
            return candidates[max(range(len(candidates)),
                                  key=deaths.__getitem__)]
        return candidates[int(self.rng.integers(0, len(candidates)))]
