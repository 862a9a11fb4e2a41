"""Tests for structured JSON-lines logging."""

import io
import json

import pytest

from repro.obs import logging as obs_logging
from repro.obs.logging import JsonLogger, NullLogger, configure, get_logger


@pytest.fixture(autouse=True)
def _restore_global_logger():
    """Tests that call configure() must not leak a live logger."""
    yield
    obs_logging._global_logger = NullLogger()


def make_logger(level="info"):
    stream = io.StringIO()
    log = JsonLogger(stream=stream, level=level, clock=lambda: 123.0)
    return log, stream


def records(stream):
    return [json.loads(line) for line in stream.getvalue().splitlines()]


class TestJsonLogger:
    def test_emits_one_json_object_per_line(self):
        log, stream = make_logger()
        log.info("experiment.start", benchmark="_202_jess")
        log.warning("gc.out_of_memory", heap_mb=16)
        recs = records(stream)
        assert len(recs) == 2
        assert recs[0] == {"ts": 123.0, "level": "info",
                           "event": "experiment.start",
                           "benchmark": "_202_jess"}
        assert recs[1]["level"] == "warning"

    def test_level_filtering(self):
        log, stream = make_logger(level="info")
        log.debug("dropped")
        log.info("kept")
        assert [r["event"] for r in records(stream)] == ["kept"]

    def test_bind_adds_context_immutably(self):
        log, stream = make_logger()
        child = log.bind(benchmark="_209_db", seed=7)
        child.info("vm.run.start")
        log.info("bare")
        recs = records(stream)
        assert recs[0]["benchmark"] == "_209_db"
        assert recs[0]["seed"] == 7
        assert "benchmark" not in recs[1]

    def test_bind_chains_and_overrides(self):
        log, stream = make_logger()
        log.bind(a=1).bind(b=2, a=3).info("x")
        (rec,) = records(stream)
        assert rec["a"] == 3 and rec["b"] == 2

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            JsonLogger(stream=io.StringIO(), level="loud")

    def test_non_json_values_stringified(self):
        log, stream = make_logger()
        log.info("x", path=object())
        (rec,) = records(stream)
        assert isinstance(rec["path"], str)


class TestNullLogger:
    def test_silent_and_self_binding(self):
        log = NullLogger()
        assert not log.enabled
        assert log.bind(a=1) is log
        log.info("nothing")  # must not raise


class TestConfigure:
    def test_default_level_is_warning(self):
        stream = io.StringIO()
        log = configure(stream=stream)
        log.info("dropped")
        log.warning("kept")
        assert [r["event"] for r in records(stream)] == ["kept"]

    def test_verbose_enables_debug(self):
        stream = io.StringIO()
        configure(verbose=True, stream=stream)
        get_logger().debug("kept")
        assert [r["event"] for r in records(stream)] == ["kept"]

    def test_quiet_wins(self):
        log = configure(verbose=True, quiet=True)
        assert isinstance(log, NullLogger)

    def test_get_logger_binds_context(self):
        stream = io.StringIO()
        configure(stream=stream)
        get_logger(cell=4).warning("x")
        (rec,) = records(stream)
        assert rec["cell"] == 4

    def test_default_stream_follows_a_swapped_stderr(self, monkeypatch):
        # A caller (an in-process CLI run, a test's capture) may replace
        # and close sys.stderr after configure(); later records must go
        # to the current stderr, not the closed one.
        stale = io.StringIO()
        monkeypatch.setattr("sys.stderr", stale)
        configure()
        current = io.StringIO()
        monkeypatch.setattr("sys.stderr", current)
        stale.close()
        get_logger(cell=1).warning("kept")
        (rec,) = records(current)
        assert rec["event"] == "kept"
