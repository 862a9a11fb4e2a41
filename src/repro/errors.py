"""Exception hierarchy for the repro package.

All package-specific errors derive from :class:`ReproError` so callers can
catch everything raised by the simulator with a single ``except`` clause.
"""

import re


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigurationError(ReproError):
    """An experiment, platform, or VM was configured inconsistently."""


class SpecValidationError(ConfigurationError):
    """A scenario spec failed validation.

    Carries the *complete* list of problems found in one pass
    (collect-and-report), so ``repro spec validate`` and the experiment
    service's 400 responses can show everything wrong at once instead
    of one error per attempt.
    """

    def __init__(self, problems, context=""):
        self.problems = list(problems)
        self.context = context
        prefix = f"{context}: " if context else ""
        super().__init__(prefix + "; ".join(self.problems))


class OutOfMemoryError(ReproError):
    """The simulated heap cannot satisfy an allocation even after a full
    garbage collection.

    Mirrors ``java.lang.OutOfMemoryError``: raised when the live data of the
    running benchmark no longer fits in the configured fixed-size heap.
    """

    def __init__(self, requested_bytes, heap_bytes, live_bytes):
        self.requested_bytes = requested_bytes
        self.heap_bytes = heap_bytes
        self.live_bytes = live_bytes
        super().__init__(
            f"cannot allocate {requested_bytes} bytes: "
            f"heap={heap_bytes} bytes, live={live_bytes} bytes"
        )

    @classmethod
    def from_message(cls, message):
        """Rebuild the error from its message, the form in which a
        campaign cell's out-of-memory payload records it."""
        return cls(*(int(n) for n in re.findall(r"\d+", message)))


class SpaceExhausted(ReproError):
    """Internal signal: an allocation space is full and a collection is
    required before the allocation can be retried.

    Raised by allocators, caught by the VM, never surfaced to users.  A
    collector's batch allocation raises it with ``allocated`` set to the
    handles it placed before the cohort that did not fit.
    """

    def __init__(self, message="", allocated=range(0)):
        super().__init__(message)
        self.allocated = allocated


class UnknownBenchmarkError(ReproError, KeyError):
    """The requested benchmark name is not in the workload registry."""

    # KeyError's __str__ quotes the message (it expects a bare key).
    __str__ = Exception.__str__


class UnknownCollectorError(ReproError, KeyError):
    """The requested garbage collector name is not supported by the VM."""

    __str__ = Exception.__str__


class CampaignError(ReproError):
    """A campaign was configured or driven incorrectly."""


class CellTimeoutError(ReproError):
    """A campaign cell exceeded its per-cell wall-clock budget."""


class MeasurementError(ReproError):
    """The measurement infrastructure was used incorrectly (for example,
    reading a trace before any samples were acquired)."""


class TimelineError(ReproError):
    """An execution timeline invariant was violated (overlapping or
    out-of-order segments)."""
