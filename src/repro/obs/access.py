"""Structured per-request access log for the solve service.

One JSONL line per HTTP request — the operational record the SLO engine
(:mod:`repro.obs.slo`), ``repro-defender slo check`` and post-hoc
latency forensics consume.  Schema ``repro.obs/access/v1``::

    {"schema": "repro.obs/access/v1", "ts": 1754640000.123,
     "trace_id": "4bf92f3577b34da6a3ce929d0e0e4736", "method": "POST",
     "endpoint": "/solve", "status": 200, "error_code": null,
     "latency_s": 0.0123, "cache_hit": false, "inflight": 1}

``trace_id`` is the request's W3C trace id (also echoed in the
``X-Request-Id`` response header and stamped into the ledger record and
run events — see :mod:`repro.obs.tracing`), so one grep joins the
access line with everything else the request produced.  ``error_code``
is the stable machine code of the error contract (``null`` on success);
``cache_hit`` is ``null`` for non-solver endpoints; ``inflight`` is the
worker-pool occupancy sampled at completion.

The log is **opt-in and near-free when off** (the default):
:func:`log_request` is a single attribute check while disabled.  It is a
:class:`repro.obs.jsonl.JsonlSink`, on exactly while ``access.jsonl`` is
open (switches: :func:`enable_access_log`, ``--access-log``,
``REPRO_ACCESS``).
"""

from __future__ import annotations

import os
from pathlib import Path
from time import time
from typing import Any, Dict, List, Optional

import repro.obs.jsonl as _jsonl
import repro.obs.metrics as _metrics

__all__ = [
    "ACCESS_SCHEMA",
    "DEFAULT_ACCESS_DIR",
    "enable_access_log",
    "disable_access_log",
    "access_log_enabled",
    "access_log_path",
    "log_request",
    "read_access",
]

ACCESS_SCHEMA = "repro.obs/access/v1"
DEFAULT_ACCESS_DIR = ".repro/access"
SINK_FILENAME = "access.jsonl"

_SINK = _jsonl.JsonlSink("access", SINK_FILENAME)
if _jsonl.env_flag("REPRO_ACCESS"):
    _SINK.open(os.environ.get("REPRO_ACCESS_DIR", DEFAULT_ACCESS_DIR))


def enable_access_log(directory: Optional[os.PathLike] = None) -> None:
    """Turn the access log on, appending to ``<directory>/access.jsonl``
    (``.repro/access/`` when no directory is given).  It stays off when
    that file cannot be opened."""
    _SINK.open(DEFAULT_ACCESS_DIR if directory is None else directory)


def disable_access_log() -> None:
    """Turn the access log off and close the sink."""
    _SINK.close()


def access_log_enabled() -> bool:
    """True while :func:`log_request` is recording request lines."""
    return _SINK.path is not None


def access_log_path() -> Optional[Path]:
    """The JSONL file request lines are appended to (None while off)."""
    return _SINK.path


def log_request(
    trace_id: Optional[str],
    method: str,
    endpoint: str,
    status: int,
    error_code: Optional[str],
    latency_s: float,
    cache_hit: Optional[bool] = None,
    inflight: int = 0,
) -> Optional[Dict[str, Any]]:
    """Append one ``repro.obs/access/v1`` line; no-op while disabled.

    Returns the record dict when written (None while off), so the serve
    layer's tests can assert on exactly what was logged.
    """
    # Deliberate benign race: a stale read of the sink handle costs one
    # line around enable/disable, and keeps the disabled-path overhead
    # to a single attribute load (the obs cost contract).
    if _SINK.handle is None:  # repro: noqa[LCK001]
        return None
    record: Dict[str, Any] = {
        "schema": ACCESS_SCHEMA,
        "ts": time(),
        "trace_id": trace_id,
        "method": method,
        "endpoint": endpoint,
        "status": status,
        "error_code": error_code,
        "latency_s": latency_s,
        "cache_hit": cache_hit,
        "inflight": inflight,
    }
    with _metrics.timer("access.append.seconds"):
        if not _SINK.write(record):
            return None
    _metrics.counter("access.lines.count").inc()
    return record


def read_access(path: os.PathLike) -> List[Dict[str, Any]]:
    """Parse an access log (a file, or a directory holding
    ``access.jsonl``); torn lines are skipped and counted."""
    with _metrics.timer("access.read.seconds"):
        return list(_jsonl.iter_records(path, "access", SINK_FILENAME))
