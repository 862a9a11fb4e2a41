"""Methods: the unit of compilation and of execution-time accounting.

A method's ``weight`` is its share of total application bytecode
execution; weights across a benchmark's method table sum to 1.  Execution
speed depends on the *code quality* of the tier that most recently
compiled the method: the application's effective instructions-per-bytecode
is the base cost divided by the method's quality.
"""

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

#: Native instructions needed to execute one bytecode at quality 1.0
#: (Jikes baseline-compiled code).
INSTR_PER_BYTECODE = 6.5

#: Code-quality levels by tier.
QUALITY_BASELINE = 1.0
QUALITY_KAFFE_JIT = 0.85   # Kaffe JIT does no extensive optimization
QUALITY_INTERPRETER = 0.22  # bytecode dispatch costs ~4-5x JIT'd code


@dataclass
class JavaMethod:
    """One compilable method."""

    name: str
    bytecode_bytes: int
    weight: float
    quality: float = 0.0      # 0.0 = not yet compiled (not executable)
    tier: str = "none"        # none | baseline | jit | opt0 | opt1 | opt2
    compile_count: int = 0
    samples: int = 0

    #: Global generation counter bumped on every quality write, letting
    #: :meth:`MethodTable.effective_instr_per_bytecode` cache its O(n)
    #: aggregate between (re)compilations.
    quality_epoch = 0

    def __post_init__(self):
        if self.bytecode_bytes <= 0:
            raise ConfigurationError("method bytecode size must be positive")
        if self.weight < 0:
            raise ConfigurationError("method weight cannot be negative")

    @property
    def compiled(self):
        return self.quality > 0.0

    def instructions_per_bytecode(self):
        """Native instructions per bytecode at the current tier."""
        if not self.compiled:
            raise ConfigurationError(
                f"method {self.name} executed before compilation"
            )
        return INSTR_PER_BYTECODE / self.quality


def _get_quality(method):
    return method._quality


def _set_quality(method, value):
    """Store a quality, bump the epoch and sync the table's column."""
    JavaMethod.quality_epoch += 1
    column = getattr(method, "_table_quality", None)
    if column is not None:
        column[method._table_idx] = value
    method._quality = value


# Installed after the dataclass is built so ``quality`` stays an
# ordinary init/repr/eq field; only quality writes pay for the epoch.
JavaMethod.quality = property(_get_quality, _set_quality)


class MethodTable:
    """The benchmark's methods with a normalized weight distribution.

    Provides the aggregate the VM's inner loop needs: the effective
    instructions-per-bytecode across currently compiled tiers, weighted by
    each method's execution share.  As the adaptive system upgrades hot
    methods, this aggregate drops and the application speeds up — the
    mechanism behind Jikes' performance advantage over Kaffe.
    """

    def __init__(self, methods):
        if not methods:
            raise ConfigurationError("a method table cannot be empty")
        total = sum(m.weight for m in methods)
        if total <= 0:
            raise ConfigurationError("method weights must sum to > 0")
        for m in methods:
            m.weight = m.weight / total
        self.methods = list(methods)
        # Weights are immutable after normalization, so that column is
        # captured once; the quality column is kept in sync by
        # the :attr:`JavaMethod.quality` setter so the aggregate recompute
        # never has to walk the method objects.
        self._weights_arr = np.array(
            [m.weight for m in self.methods], dtype=np.float64
        )
        self._quality_arr = np.array(
            [m.quality for m in self.methods], dtype=np.float64
        )
        # Each method holds the quality column, not the table, so a
        # table and its methods form no reference cycle: a finished
        # run's methods are freed with the run, not whenever the cyclic
        # collector next runs.
        for i, m in enumerate(self.methods):
            object.__setattr__(m, "_table_idx", i)
            object.__setattr__(m, "_table_quality", self._quality_arr)
        self._effective_cache = (None, None)

    def __len__(self):
        return len(self.methods)

    def __iter__(self):
        return iter(self.methods)

    def effective_instr_per_bytecode(self):
        """Weight-averaged instructions per bytecode over compiled
        methods (uncompiled methods don't execute yet and are skipped).

        The aggregate only moves when some method's code quality moves,
        so it is cached against the global quality generation counter;
        every recompute performs the identical reduction over the same
        columns, keeping repeat runs bit-identical.
        """
        epoch = JavaMethod.quality_epoch
        cached_epoch, cached = self._effective_cache
        if cached_epoch == epoch:
            return cached
        q = self._quality_arr
        compiled = q > 0.0
        den = float(self._weights_arr[compiled].sum())
        if den == 0.0:
            value = INSTR_PER_BYTECODE
        else:
            num = float(
                (self._weights_arr[compiled]
                 * (INSTR_PER_BYTECODE / q[compiled])).sum()
            )
            value = num / den
        self._effective_cache = (epoch, value)
        return value

    def hottest(self, n):
        """The *n* highest-weight methods."""
        return sorted(self.methods, key=lambda m: -m.weight)[:n]

    def total_bytecode_bytes(self):
        return sum(m.bytecode_bytes for m in self.methods)
