"""Methods: the unit of compilation and of execution-time accounting.

A method's ``weight`` is its share of total application bytecode
execution; weights across a benchmark's method table sum to 1.  Execution
speed depends on the *code quality* of the tier that most recently
compiled the method: the application's effective instructions-per-bytecode
is the base cost divided by the method's quality.

A :class:`MethodTable` keeps its methods' state as columns
(:class:`MethodColumns`), so the VM compiles a slice's first calls and
the adaptive system adds its samples with one array write each; a
:class:`JavaMethod` is a view of one row.
"""

import numpy as np

from repro.errors import ConfigurationError

#: Native instructions needed to execute one bytecode at quality 1.0
#: (Jikes baseline-compiled code).
INSTR_PER_BYTECODE = 6.5

#: Code-quality levels by tier.
QUALITY_BASELINE = 1.0
QUALITY_KAFFE_JIT = 0.85   # Kaffe JIT does no extensive optimization
QUALITY_INTERPRETER = 0.22  # bytecode dispatch costs ~4-5x JIT'd code


class MethodColumns:
    """Per-method state, one row per method.

    ``quality`` 0.0 means not yet compiled (not executable); ``tier`` is
    ``"none"``, ``"baseline"``, ``"jit"``, ``"interp"`` or an optimization
    level's name; ``queued`` marks a pending recompilation job.
    ``version`` counts quality writes, so aggregates over the quality
    column can be cached between (re)compilations.
    """

    __slots__ = ("bytecode_bytes", "weight", "quality", "tier",
                 "compile_count", "samples", "queued", "version")

    def __init__(self, bytecode_bytes, weight, quality=None, tier=None,
                 compile_count=None, samples=None):
        self.bytecode_bytes = np.asarray(bytecode_bytes, dtype=np.int64)
        self.weight = np.asarray(weight, dtype=np.float64)
        n = len(self.bytecode_bytes)
        if (self.bytecode_bytes <= 0).any():
            raise ConfigurationError("method bytecode size must be positive")
        if (self.weight < 0).any():
            raise ConfigurationError("method weight cannot be negative")
        self.quality = (np.zeros(n) if quality is None
                        else np.asarray(quality, dtype=np.float64))
        self.tier = np.full(n, "none", dtype=object)
        if tier is not None:
            self.tier[:] = tier
        self.compile_count = (
            np.zeros(n, dtype=np.int64) if compile_count is None
            else np.asarray(compile_count, dtype=np.int64))
        self.samples = (np.zeros(n, dtype=np.int64) if samples is None
                        else np.asarray(samples, dtype=np.int64))
        self.queued = np.zeros(n, dtype=bool)
        self.version = 0

    def __len__(self):
        return len(self.bytecode_bytes)

    def mark_compiled(self, rows, quality, tier):
        """Record one compile of each of *rows* at *quality*/*tier*."""
        self.set_quality(rows, quality, tier)
        self.compile_count[rows] += 1

    def set_quality(self, rows, quality, tier):
        """Run *rows* at *quality*, as *tier*, from now on (with no
        compile, as the interpreter does)."""
        self.quality[rows] = quality
        self.tier[rows] = tier
        self.version += 1


def _column_view(column, cast, doc, writable=True):
    def get(method):
        return cast(getattr(method._cols, column)[method.row])

    def set_(method, value):
        getattr(method._cols, column)[method.row] = value

    return property(get, set_ if writable else None, doc=doc)


class JavaMethod:
    """One compilable method: a view of row :attr:`row` of its columns.

    A method built on its own owns a one-row :class:`MethodColumns`;
    a :class:`MethodTable` moves it onto the table's columns.
    """

    __slots__ = ("name", "_cols", "row")

    def __init__(self, name, bytecode_bytes, weight, quality=0.0,
                 tier="none", compile_count=0, samples=0):
        self.name = name
        self._cols = MethodColumns([bytecode_bytes], [weight], [quality],
                                   [tier], [compile_count], [samples])
        self.row = 0

    @classmethod
    def _view(cls, name, cols, row):
        method = cls.__new__(cls)
        method.name = name
        method._cols = cols
        method.row = row
        return method

    bytecode_bytes = _column_view("bytecode_bytes", int,
                                  "Bytecode size.", writable=False)
    weight = _column_view("weight", float,
                          "Share of bytecode execution.", writable=False)
    tier = _column_view("tier", str, "Tier that compiled it last.")
    compile_count = _column_view("compile_count", int,
                                 "Compiles so far.")
    samples = _column_view("samples", int, "AOS samples so far.")

    @property
    def quality(self):
        """Code quality; 0.0 = not yet compiled (not executable)."""
        return float(self._cols.quality[self.row])

    @quality.setter
    def quality(self, value):
        cols = self._cols
        cols.quality[self.row] = value
        cols.version += 1

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

    def __repr__(self):
        return (f"JavaMethod(name={self.name!r}, "
                f"bytecode_bytes={self.bytecode_bytes}, "
                f"weight={self.weight!r}, quality={self.quality!r}, "
                f"tier={self.tier!r})")


class MethodTable:
    """The benchmark's methods with a normalized weight distribution.

    Provides the aggregate the VM's inner loop needs: the effective
    instructions-per-bytecode across currently compiled tiers, weighted by
    each method's execution share.  As the adaptive system upgrades hot
    methods, this aggregate drops and the application speeds up — the
    mechanism behind Jikes' performance advantage over Kaffe.

    The methods' state lives in :attr:`columns`; each method holds the
    columns, not the table, so a table and its methods form no
    reference cycle and a finished run's methods are freed with it.
    """

    def __init__(self, methods):
        if not methods:
            raise ConfigurationError("a method table cannot be empty")
        cols = MethodColumns(
            [m.bytecode_bytes for m in methods],
            _normalized([m.weight for m in methods]),
            [m.quality for m in methods], [m.tier for m in methods],
            [m.compile_count for m in methods],
            [m.samples for m in methods],
        )
        for i, m in enumerate(methods):
            m._cols, m.row = cols, i
        self._init(list(methods), cols)

    @classmethod
    def from_columns(cls, names, bytecode_bytes, weights):
        """A table of uncompiled methods named *names*, built from
        their size and weight columns."""
        if not len(names):
            raise ConfigurationError("a method table cannot be empty")
        cols = MethodColumns(bytecode_bytes,
                             _normalized(np.asarray(weights).tolist()))
        table = cls.__new__(cls)
        view = JavaMethod._view
        table._init([view(name, cols, i) for i, name in enumerate(names)],
                     cols)
        return table

    def _init(self, methods, cols):
        self.methods = methods
        self.columns = cols
        self._effective_cache = (None, None)

    @property
    def version(self):
        """Count of quality writes to this table's methods."""
        return self.columns.version

    def __len__(self):
        return len(self.methods)

    def __iter__(self):
        return iter(self.methods)

    def effective_instr_per_bytecode(self):
        """Weight-averaged instructions per bytecode over compiled
        methods (uncompiled methods don't execute yet and are skipped).

        The aggregate only moves when some method's code quality moves,
        so it is cached against the table's :attr:`version`; every
        recompute performs the identical reduction over the same
        columns, keeping repeat runs bit-identical.
        """
        cols = self.columns
        cached_version, cached = self._effective_cache
        if cached_version == cols.version:
            return cached
        q = cols.quality
        compiled = q > 0.0
        den = float(cols.weight[compiled].sum())
        if den == 0.0:
            value = INSTR_PER_BYTECODE
        else:
            num = float(
                (cols.weight[compiled]
                 * (INSTR_PER_BYTECODE / q[compiled])).sum()
            )
            value = num / den
        self._effective_cache = (cols.version, value)
        return value

    def hottest(self, n):
        """The *n* highest-weight methods."""
        return sorted(self.methods, key=lambda m: -m.weight)[:n]


def _normalized(weights):
    """*weights* (a list) over their left-to-right sum."""
    total = sum(weights)
    if total <= 0:
        raise ConfigurationError("method weights must sum to > 0")
    return np.asarray(weights, dtype=np.float64) / total
