"""Kaffe's just-in-time compiler.

"Kaffe JIT translates opcodes to native instructions without performing
extensive code optimizations.  This creates longer execution times for
benchmarks causing it to consume larger amounts of energy" (Section VI-D).

Every method is JIT-compiled on first invocation — there is no tiering
and no recompilation.  The produced code quality is *below* the Jikes
baseline (0.85), which is the mechanism behind Kaffe's 2-3x longer
benchmark runtimes and correspondingly diluted JVM-component energy
shares in Figure 9.
"""

from repro.jvm.components import Component
from repro.jvm.compiler.baseline import BaselineCompiler
from repro.jvm.compiler.method import QUALITY_KAFFE_JIT

#: Instructions per bytecode byte translated (single pass + peephole).
JIT_INSTR_PER_BYTE = 110

#: Fixed per-method overhead.
JIT_FIXED_INSTR = 18_000


class KaffeJIT(BaselineCompiler):
    """Compile-on-first-use JIT with fixed (modest) code quality: a
    single-pass translator like the Jikes baseline compiler, with its
    own prices."""

    component = Component.JIT
    tier = "jit"
    quality = QUALITY_KAFFE_JIT
    instr_per_byte = JIT_INSTR_PER_BYTE
    fixed_instr = JIT_FIXED_INSTR
    footprint_factor = 8
    profile = "jit"
    tag = "jit-compile"
    traced = True

    def compile(self, method):
        """JIT-compile *method*; return the compilation activity."""
        return super().compile(method)
