"""The one JSONL sink behind the ledger, the event bus and the access log.

Each of the three telemetry families is a stream of key-sorted JSON
lines appended under ``.repro/<family>/``, switched on by a ``REPRO_X``
environment variable (:func:`env_flag`).  :func:`open_append` is the
single append site; :class:`JsonlSink` holds one file open (the access
log, the event bus's file sink) and is on exactly while it is open; the
ledger opens one file per entry point and record instead.  The reader
(:func:`iter_records` over a file or a directory, :func:`parse_lines`
per line) skips a torn line — a live append-only file can end in one —
and counts it on ``<family>.read.corrupt_lines.count``.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, Optional, TextIO

import repro.obs.metrics as _metrics
from repro.obs.log import get_logger

__all__ = ["env_flag", "dumps_line", "open_append", "JsonlSink",
           "parse_lines", "iter_records"]

_log = get_logger("repro.obs.jsonl")


def env_flag(name: str) -> bool:
    """True unless env var ``name`` is unset or, stripped and lower-cased,
    empty, ``0``, ``false``, ``no`` or ``off``."""
    value = os.environ.get(name, "").strip().lower()
    return value not in ("", "0", "false", "no", "off")


def dumps_line(record: Dict[str, Any]) -> str:
    """One record as a newline-terminated, key-sorted JSON line."""
    return json.dumps(record, sort_keys=True, default=str) + "\n"


def open_append(path: Path) -> TextIO:
    """Open ``path`` for appending, creating its directory; raises OSError."""
    path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "a", encoding="utf-8")


class JsonlSink:
    """``<directory>/<filename>`` held open for append; on while open.

    ``family`` prefixes the metric and log names.  Failures are counted
    and logged, never raised: telemetry must not break the workload.
    """

    __slots__ = ("family", "filename", "handle", "target", "lock")

    def __init__(self, family: str, filename: str) -> None:
        self.family = family
        self.filename = filename
        self.handle: Optional[TextIO] = None  # repro: lock(lock)
        self.target: Optional[Path] = None  # repro: lock(lock)
        self.lock = threading.Lock()

    @property
    def path(self) -> Optional[Path]:
        """The open file (None while the sink is off)."""
        with self.lock:
            return self.target

    def open(self, directory: "os.PathLike[str] | str") -> bool:
        """(Re)open the sink under ``directory``; False when that fails."""
        with self.lock:
            self._close_locked()
            target = Path(directory) / self.filename
            try:
                self.handle = open_append(target)
            except OSError as exc:
                _log.warning(f"{self.family}.sink.open_failed",
                             directory=str(directory),
                             error=type(exc).__name__)
                return False
            self.target = target
            return True

    def close(self) -> None:
        """Close the file; the sink is off until the next :meth:`open`."""
        with self.lock:
            self._close_locked()

    def _close_locked(self) -> None:
        handle, self.handle, self.target = self.handle, None, None
        if handle is not None:
            with contextlib.suppress(OSError):
                handle.close()

    def write(self, record: Dict[str, Any]) -> bool:
        """Append one line; False while off or when the write fails (the
        sink then closes and counts ``<family>.sink_errors.count``)."""
        # Deliberate benign race: a stale read drops one line around
        # open/close and keeps the off path to a single attribute load.
        if self.handle is None:  # repro: noqa[LCK001]
            return False
        with self.lock:
            if self.handle is None:
                return False
            try:
                self.handle.write(dumps_line(record))
                self.handle.flush()
            except (OSError, ValueError) as exc:
                _metrics.counter(f"{self.family}.sink_errors.count").inc()
                _log.warning(f"{self.family}.sink.write_failed",
                             error=type(exc).__name__)
                self._close_locked()
                return False
        return True


def parse_lines(lines: Iterable[str], family: str,
                source: str = "") -> Iterator[Dict[str, Any]]:
    """Yield the JSON objects among ``lines``; a torn line is counted and
    skipped, a JSON value that is not an object skipped silently."""
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            _metrics.counter(f"{family}.read.corrupt_lines.count").inc()
            _log.warning(f"{family}.read.corrupt_line", file=source)
            continue
        if isinstance(record, dict):
            yield record


def iter_records(path: "os.PathLike[str] | str", family: str,
                 pattern: str) -> Iterator[Dict[str, Any]]:
    """Yield the records of a JSONL file, or of the files matching
    ``pattern`` in a directory (name order); a missing file yields none."""
    root = Path(path)
    for file in sorted(root.glob(pattern)) if root.is_dir() else [root]:
        try:
            lines = file.read_text(encoding="utf-8").splitlines()
        except OSError:
            continue
        yield from parse_lines(lines, family, file.name)
