"""Chrome trace-event JSON export and import.

The exporter emits the *JSON array format* of the Trace Event spec —
the lowest common denominator that Perfetto, chrome://tracing, and
speedscope all accept.  Every duration event carries the full required
key set (``name``/``ph``/``ts``/``dur``/``pid``/``tid``), timestamps in
microseconds.

The tracer's two clocks map to two synthetic *processes* so their time
bases are never conflated on one row:

* pid 1 — "wall clock" (pipeline phases, campaign cells);
* pid 2 — "simulated clock" (JVM components, GC cycles, throttling).

Each (clock, track) pair becomes one numbered *thread* inside its
process, labeled with ``thread_name`` metadata.  An optional metrics
snapshot rides along as one ``repro_metrics`` metadata event, so a
single trace file is a complete observability artifact.
"""

import json
from pathlib import Path

from repro.errors import MeasurementError
from repro.obs.tracer import SIM_CLOCK, WALL_CLOCK

#: Process IDs per clock (also the Perfetto row grouping).
CLOCK_PIDS = {WALL_CLOCK: 1, SIM_CLOCK: 2}

#: Human names attached via ``process_name`` metadata.
CLOCK_LABELS = {WALL_CLOCK: "wall clock", SIM_CLOCK: "simulated clock"}


def to_us(seconds):
    """Seconds -> microseconds, rounded to 3 decimals (ns precision)."""
    return round(seconds * 1e6, 3)


def thread_rows(events):
    """A ``tid_for(pid, track)`` that numbers each process's tracks
    from 1 in order of first sighting, appending each new row's
    ``thread_name`` metadata event to *events*."""
    tids = {}   # (pid, track) -> tid

    def tid_for(pid, track):
        tid = tids.get((pid, track))
        if tid is None:
            tid = tids[pid, track] = sum(p == pid for p, _ in tids) + 1
            events.append({
                "name": "thread_name", "ph": "M", "ts": 0,
                "pid": pid, "tid": tid, "args": {"name": track},
            })
        return tid

    return tid_for


def to_chrome_events(tracer, metrics=None):
    """Convert a tracer's record into a list of trace-event dicts.

    Returns the plain event list (JSON array format).  ``metrics``, if
    given, is embedded as one metadata event named ``repro_metrics``.
    """
    events = []
    tid_for = thread_rows(events)

    for clock, pid in CLOCK_PIDS.items():
        events.append({
            "name": "process_name", "ph": "M", "ts": 0, "pid": pid,
            "tid": 0, "args": {"name": CLOCK_LABELS[clock]},
        })

    for span in tracer.spans:
        pid = CLOCK_PIDS[span.clock]
        event = {
            "name": span.name,
            "cat": span.track,
            "ph": "X",
            "ts": to_us(span.start_s),
            "dur": to_us(span.dur_s),
            "pid": pid,
            "tid": tid_for(pid, span.track),
        }
        if span.args:
            event["args"] = span.args
        events.append(event)

    for inst in tracer.instants:
        pid = CLOCK_PIDS[inst.clock]
        event = {
            "name": inst.name,
            "cat": inst.track,
            "ph": "i",
            "ts": to_us(inst.at_s),
            "pid": pid,
            "tid": tid_for(pid, inst.track),
            "s": "t",
        }
        if inst.args:
            event["args"] = inst.args
        events.append(event)

    if metrics is not None and getattr(metrics, "enabled", False):
        events.append({
            "name": "repro_metrics", "ph": "M", "ts": 0, "pid": 0,
            "tid": 0, "args": metrics.as_dict(),
        })
    return events


def write_chrome_trace(path, tracer, metrics=None):
    """Write a tracer (plus optional metrics) as Chrome trace JSON."""
    path = Path(path)
    events = to_chrome_events(tracer, metrics=metrics)
    path.write_text(json.dumps(events, indent=None,
                               separators=(",", ":")))
    return path


def load_trace(path):
    """Load a trace-event file; accepts the array and object formats.

    Returns the event list.  Raises
    :class:`~repro.errors.MeasurementError` for files that are valid
    JSON but not a trace (so the CLI can fail with a useful message).
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise MeasurementError(
            f"{path} is not valid JSON: {exc}"
        ) from None
    if isinstance(data, dict):
        data = data.get("traceEvents")
    if not isinstance(data, list):
        raise MeasurementError(
            f"{path} is not a Chrome trace (expected an event array "
            "or an object with a 'traceEvents' key)"
        )
    return data
