"""The Jikes RVM optimizing compiler.

The optimizing compiler recompiles methods the adaptive system labels
"hot", at one of three optimization levels with increasing cost and
increasing code quality (Section IV-A, reference [25]).  Its energy share
averages about 3 % with a 7 % maximum on `_222_mpegaudio` (Section VI-A).
"""

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.hardware.activity import Activity
from repro.hardware.cache import MemoryBehavior
from repro.jvm.components import Component
from repro.jvm.profiles import profile_for


@dataclass(frozen=True)
class OptLevel:
    """One optimization level: compile cost vs delivered code quality."""

    name: str
    instr_per_byte: int
    quality: float


#: Jikes' O0/O1/O2, calibrated to the published cost/quality ratios:
#: each level costs several times more than the last and the returns
#: diminish.
OPT_LEVELS = (
    OptLevel(name="opt0", instr_per_byte=1050, quality=1.7),
    OptLevel(name="opt1", instr_per_byte=2900, quality=2.3),
    OptLevel(name="opt2", instr_per_byte=6600, quality=2.7),
)

OPT_FIXED_INSTR = 120_000


class OptimizingCompiler:
    """IR-based recompilation at a selectable optimization level."""

    tier = "opt"          # names the compiler.opt_compiles count
    tag = "opt-compile"   # timeline tag prefix, and trace span name

    def __init__(self, platform_name):
        self.platform_name = platform_name
        self.methods_compiled = 0
        self.bytes_compiled = 0
        self.instructions_spent = 0

    @staticmethod
    def level(index):
        try:
            return OPT_LEVELS[index]
        except IndexError:
            raise ConfigurationError(
                f"no optimization level {index}; have 0.."
                f"{len(OPT_LEVELS) - 1}"
            ) from None

    def compile(self, method, level):
        """Recompile *method* at *level*; return the activity."""
        if level.quality <= method.quality:
            raise ConfigurationError(
                f"recompiling {method.name} at {level.name} would not "
                f"improve quality ({level.quality} <= {method.quality})"
            )
        method.quality = level.quality
        method.tier = level.name
        method.compile_count += 1
        self.methods_compiled += 1
        self.bytes_compiled += method.bytecode_bytes

        instr = (
            method.bytecode_bytes * level.instr_per_byte + OPT_FIXED_INSTR
        )
        self.instructions_spent += instr
        profile = profile_for(self.platform_name, "optimizing")
        return Activity(
            component=Component.OPT,
            instructions=instr,
            behavior=MemoryBehavior(
                footprint_bytes=max(method.bytecode_bytes * 40, 256 * 1024),
                hot_bytes=profile.hot_bytes,
                locality=profile.locality,
                spatial_factor=profile.spatial,
            ),
            refs_per_instr=profile.refs_per_instr,
            l1_miss_rate=profile.l1_miss_rate,
            mix_factor=profile.mix,
            cpi_scale=profile.cpi_scale,
            tag=f"{self.tag}:{method.name}:{level.name}",
        )
