"""The Jikes RVM baseline compiler.

"When a method is loaded for the first time, a fast but simple baseline
compiler is used to translate the Java bytecodes" (Section IV-A).  The
baseline compiler is a single pass over the bytecode with small, hot
translation tables — which is why the paper finds its energy share below
1 % on every benchmark (Section VI-A) and its power *higher* than the
GC's (good locality, high IPC).
"""

import numpy as np

from repro.hardware.activity import ActivityRows
from repro.jvm.components import Component
from repro.jvm.compiler.method import QUALITY_BASELINE
from repro.jvm.profiles import profile_for

#: Instructions per bytecode byte translated (single pass, no IR).
BASELINE_INSTR_PER_BYTE = 35

#: Fixed per-method overhead (prologue/epilogue emission, tables).
BASELINE_FIXED_INSTR = 5_000


class BaselineCompiler:
    """Fast single-pass bytecode -> native translation.

    A VM compiles whole columns of a method table at once: it costs
    every method's compile up front (:meth:`activity_rows`) and marks a
    slice's first calls compiled with :meth:`compile_rows`.
    """

    tier = "baseline"

    def __init__(self, platform_name):
        self.platform_name = platform_name
        self.methods_compiled = 0
        self.bytes_compiled = 0

    def compile(self, method):
        """Baseline-compile *method*; return the compilation activity."""
        method.quality = QUALITY_BASELINE
        method.tier = self.tier
        method.compile_count += 1
        self.methods_compiled += 1
        self.bytes_compiled += method.bytecode_bytes
        return self._rows([method.bytecode_bytes], [method.name]).activity(0)

    def compile_rows(self, table, rows):
        """Baseline-compile rows *rows* (an index array) of *table*."""
        cols = table.columns
        cols.mark_compiled(rows, QUALITY_BASELINE, self.tier)
        self.methods_compiled += len(rows)
        self.bytes_compiled += int(cols.bytecode_bytes[rows].sum())

    def activity_rows(self, table):
        """The compile activity of every method of *table*, as
        :class:`~repro.hardware.activity.ActivityRows` in table order."""
        return self._rows(table.columns.bytecode_bytes,
                          [m.name for m in table.methods])

    def _rows(self, bytecode_bytes, names):
        sizes = np.asarray(bytecode_bytes, dtype=np.int64)
        profile = profile_for(self.platform_name, "baseline")
        tags = np.empty(len(names), dtype=object)
        tags[:] = [f"base-compile:{name}" for name in names]
        return ActivityRows(
            component=Component.BASE,
            instructions=sizes * BASELINE_INSTR_PER_BYTE
            + BASELINE_FIXED_INSTR,
            footprint_bytes=np.maximum(sizes * 6, 64 * 1024),
            tags=tags,
            hot_bytes=profile.hot_bytes,
            locality=profile.locality,
            spatial_factor=profile.spatial,
            refs_per_instr=profile.refs_per_instr,
            l1_miss_rate=profile.l1_miss_rate,
            mix_factor=profile.mix,
            cpi_scale=profile.cpi_scale,
        )
