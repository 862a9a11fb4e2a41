"""Structured JSON-lines logging with bound context.

One log record is one JSON object on one line::

    {"ts": 1722950400.123456, "level": "info", "event": "experiment.start",
     "benchmark": "_202_jess", "vm": "jikes", "seed": 42}

Loggers are immutable once built; :meth:`JsonLogger.bind` returns a
child logger whose records carry extra key/value context, which is how
run-scoped fields (benchmark, vm, platform, seed, campaign cell index)
ride along on every record without threading them through call sites.

The CLI configures one process-wide logger at the top level
(:func:`configure`, driven by ``--verbose``/``--quiet``); library code
asks for it with :func:`get_logger`.  The default, unconfigured state
is the silent :class:`NullLogger`, so importing the package never
produces output.
"""

import json
import sys
import time

#: Numeric severity per level name, syslog-ish ordering.
LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}


class NullLogger:
    """Silent logger: every method is a no-op, ``bind`` returns self."""

    enabled = False
    level = "error"

    def bind(self, **context):
        return self

    def debug(self, event, **fields):
        pass

    def info(self, event, **fields):
        pass

    def warning(self, event, **fields):
        pass

    def error(self, event, **fields):
        pass


class JsonLogger(NullLogger):
    """JSON-lines logger writing records at or above ``level``.

    ``clock`` is injectable for tests (defaults to ``time.time``);
    ``stream`` defaults to stderr so structured logs never mix with the
    CLI's tabular stdout output.  The default is looked up at write
    time, not stored: ``sys.stderr`` can be swapped (and the old stream
    closed) after the logger was built.
    """

    enabled = True

    def __init__(self, stream=None, level="info", context=None,
                 clock=time.time):
        if level not in LEVELS:
            raise ValueError(
                f"unknown log level {level!r}; expected one of "
                f"{sorted(LEVELS)}"
            )
        self.stream = stream
        self.level = level
        self.context = dict(context or {})
        self.clock = clock

    def bind(self, **context):
        """Child logger carrying ``context`` on every record."""
        merged = dict(self.context)
        merged.update(context)
        return JsonLogger(stream=self.stream, level=self.level,
                          context=merged, clock=self.clock)

    def _emit(self, level, event, fields):
        if LEVELS[level] < LEVELS[self.level]:
            return
        record = {"ts": round(self.clock(), 6), "level": level,
                  "event": event}
        record.update(self.context)
        record.update(fields)
        stream = self.stream if self.stream is not None else sys.stderr
        stream.write(json.dumps(record, default=str) + "\n")

    def debug(self, event, **fields):
        self._emit("debug", event, fields)

    def info(self, event, **fields):
        self._emit("info", event, fields)

    def warning(self, event, **fields):
        self._emit("warning", event, fields)

    def error(self, event, **fields):
        self._emit("error", event, fields)


#: Process-wide logger handed out by :func:`get_logger`.
_global_logger = NullLogger()


def configure(verbose=False, quiet=False, stream=None):
    """Set up the process-wide logger once, at the top level.

    ``--verbose`` lowers the threshold to ``debug``; ``--quiet``
    silences everything (the null logger); the default records
    ``warning`` and above.  Returns the configured logger.
    """
    global _global_logger
    if quiet:
        _global_logger = NullLogger()
    else:
        _global_logger = JsonLogger(
            stream=stream, level="debug" if verbose else "warning"
        )
    return _global_logger


def get_logger(**context):
    """The process-wide logger, optionally with extra bound context."""
    if context:
        return _global_logger.bind(**context)
    return _global_logger
