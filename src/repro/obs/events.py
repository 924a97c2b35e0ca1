"""Live telemetry event bus: typed run events in a bounded buffer.

The ledger records *what a run was* after it finished; this module
streams *what a run is doing* while it happens.  Instrumented code
publishes small typed events — per-iteration solver progress
(``solver.iteration``), LP solves (``lp.solve``), fuzz cases
(``fuzz.case``), benchmark cases (``bench.case``) and run boundaries
(``run.start`` / ``run.end``) — into a process-global, thread-safe,
bounded ring buffer.  Consumers attach two ways:

* :func:`recent` — snapshot the newest buffered events (the live view
  behind ``repro-defender tail``);
* the **JSONL sink** — when enabled with a directory, every event is
  appended to ``events.jsonl`` under it (``.repro/events/`` by default),
  so ``repro-defender tail --follow`` can stream a run from another
  process and finished runs replay exactly.

The bus is **opt-in and near-free when off**: :func:`publish` is a
single boolean check while disabled (the default; switches in
:mod:`repro.obs.jsonl`).  Event schema::

    {"schema": "repro.obs/event/v1", "seq": 17, "ts": 1754640000.123,
     "type": "solver.iteration", "payload": {...}}

``seq`` is a process-wide monotone sequence number, so interleaved
multi-threaded streams have a total order independent of clock ties.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from pathlib import Path
from time import sleep, time
from typing import Any, Callable, Dict, Iterator, List, Optional

import repro.obs.jsonl as _jsonl
import repro.obs.metrics as _metrics

__all__ = [
    "EVENT_SCHEMA",
    "EVENT_TYPES",
    "DEFAULT_EVENTS_DIR",
    "DEFAULT_CAPACITY",
    "enable_events",
    "disable_events",
    "events_enabled",
    "events_sink_path",
    "publish",
    "recent",
    "clear_events",
    "read_events",
    "tail_events",
]

EVENT_SCHEMA = "repro.obs/event/v1"
DEFAULT_EVENTS_DIR = ".repro/events"
SINK_FILENAME = "events.jsonl"

#: Ring-buffer capacity: events kept for :func:`recent` (oldest dropped).
DEFAULT_CAPACITY = 4096

#: The typed event vocabulary.  Publishing an unknown type is allowed
#: (forward compatibility for downstream subsystems) but counted in
#: ``events.unknown_type.count`` so drift is visible.
EVENT_TYPES = frozenset({
    "run.start",
    "run.end",
    "solver.iteration",
    "lp.solve",
    "fuzz.case",
    "bench.case",
    "slo.breach",
})


class _BusState:
    """Process-global bus: switch, ring buffer and sequence number."""

    __slots__ = ("enabled", "buffer", "seq", "lock")

    def __init__(self) -> None:
        self.enabled = False  # repro: lock(lock)
        self.buffer: deque = deque(maxlen=DEFAULT_CAPACITY)  # repro: lock(lock)
        self.seq = 0  # repro: lock(lock)
        self.lock = threading.Lock()


_STATE = _BusState()
#: The optional file sink; written under the bus lock so file order is
#: ``seq`` order.
_SINK = _jsonl.JsonlSink("events", SINK_FILENAME)
if _jsonl.env_flag("REPRO_EVENTS"):
    _STATE.enabled = True
    _SINK.open(os.environ.get("REPRO_EVENTS_DIR", DEFAULT_EVENTS_DIR))


def enable_events(directory: Optional[os.PathLike] = None,
                  sink: bool = True) -> None:
    """Turn the bus on, optionally persisting events under ``directory``.

    With ``sink=True`` (the default) every event is appended to
    ``<directory>/events.jsonl`` (``.repro/events/`` when no directory is
    given; the sink is on only while that file is open); ``sink=False``
    keeps events purely in-memory — the mode the overhead benchmark
    uses.
    """
    with _STATE.lock:
        if sink:
            _SINK.open(DEFAULT_EVENTS_DIR if directory is None else directory)
        else:
            _SINK.close()
        _STATE.enabled = True


def disable_events() -> None:
    """Turn the bus off and close the JSONL sink (buffer is kept)."""
    with _STATE.lock:
        _STATE.enabled = False
        _SINK.close()


def events_enabled() -> bool:
    """True while :func:`publish` is recording events."""
    with _STATE.lock:
        return _STATE.enabled


def events_sink_path() -> Optional[Path]:
    """The JSONL file events are appended to (None when sink-less)."""
    return _SINK.path


def clear_events() -> None:
    """Drop all buffered events (the sink is kept)."""
    with _STATE.lock:
        _STATE.buffer.clear()


def publish(event_type: str, **payload: Any) -> Optional[Dict[str, Any]]:
    """Publish one event; a no-op single boolean check while disabled.

    Returns the event dict when published (None while the bus is off),
    so instrumentation can assert on what it emitted in tests.
    """
    # Deliberate benign race: a stale read of the boolean switch costs
    # one event around enable/disable, and keeps the disabled-path
    # overhead to a single attribute load.
    if not _STATE.enabled:  # repro: noqa[LCK001]
        return None
    return _publish(event_type, payload)


def _publish(event_type: str, payload: Dict[str, Any]) -> Dict[str, Any]:
    with _STATE.lock:
        _STATE.seq += 1
        event = {
            "schema": EVENT_SCHEMA,
            "seq": _STATE.seq,
            "ts": time(),
            "type": event_type,
            "payload": payload,
        }
        _STATE.buffer.append(event)
        _SINK.write(event)
    _metrics.counter("events.published.count").inc()
    if event_type not in EVENT_TYPES:
        _metrics.counter("events.unknown_type.count").inc()
    return event


def recent(count: Optional[int] = None,
           types: Optional[List[str]] = None) -> List[Dict[str, Any]]:
    """Snapshot the newest buffered events, oldest first.

    ``count`` caps the result (newest kept); ``types`` filters to the
    given event types.
    """
    with _STATE.lock, _metrics.timer("events.recent.seconds"):
        events = list(_STATE.buffer)
    if types is not None:
        wanted = set(types)
        events = [e for e in events if e.get("type") in wanted]
    if count is not None and count >= 0:
        events = events[len(events) - min(count, len(events)):]
    return events


# --------------------------------------------------------------------------
# reading a sink back (the `repro-defender tail` engine)


def read_events(path: os.PathLike,
                types: Optional[List[str]] = None) -> List[Dict[str, Any]]:
    """Parse an event sink (a file, or a directory holding
    ``events.jsonl``); torn lines are skipped and counted."""
    with _metrics.timer("events.read.seconds"):
        wanted = set(types) if types is not None else None
        return [
            event
            for event in _jsonl.iter_records(path, "events", SINK_FILENAME)
            if wanted is None or event.get("type") in wanted
        ]


def tail_events(
    path: os.PathLike,
    types: Optional[List[str]] = None,
    follow: bool = False,
    poll_interval: float = 0.25,
    stop: Optional[Callable[[], bool]] = None,
) -> Iterator[Dict[str, Any]]:
    """Yield events from a sink file, optionally following appends.

    Without ``follow`` this yields the current file contents and stops.
    With it, the file is polled every ``poll_interval`` seconds for new
    lines until ``stop()`` (when given) returns True — the generator the
    ``repro-defender tail --follow`` loop drains (Ctrl-C breaks it).
    """
    with _metrics.timer("events.tail.setup.seconds"):
        target = Path(path)
        wanted = set(types) if types is not None else None
        offset = 0
    while True:
        try:
            with open(target, "r", encoding="utf-8") as handle:
                handle.seek(offset)
                chunk = handle.read()
        except OSError:
            chunk = ""
        if chunk:
            # Only consume whole lines; a torn tail stays for next poll.
            complete = chunk.rfind("\n") + 1
            offset += len(chunk[:complete].encode("utf-8"))
            for event in _jsonl.parse_lines(
                    chunk[:complete].splitlines(), "events", target.name):
                if wanted is None or event.get("type") in wanted:
                    yield event
        if not follow or (stop is not None and stop()):
            return
        sleep(poll_interval)
