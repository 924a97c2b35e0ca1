"""Run-provenance ledger: a durable, append-only record of every solve.

PR 1 made runs *observable*; this module makes them *durable*.  Every
wrapped entry point — ``equilibria.solve``, each ``repro.solvers`` route,
the fuzz runner, the benchmark session — appends one JSON line to a
ledger file under ``.repro/ledger/`` describing what ran, on what, where,
for how long and with what outcome:

* a **content-addressed run id** (sha256 over the record itself);
* a **game/config fingerprint** (sha256 of the canonical
  :func:`repro.core.serialize.game_to_json` dump, so identical games are
  identical fingerprints across machines and sessions);
* an **environment capture** (python, platform, CPU count, git revision);
* the full **metrics snapshot** and the **span tree** collected during
  the run;
* the **trace id** correlating the record with the run's spans, events
  and (for served requests) the access-log line and ``X-Request-Id``
  response header (see :mod:`repro.obs.tracing`);
* the **outcome**: ``ok`` or ``error`` with the exception type/message.

The ledger is **opt-in and near-free when off** (the default): wrapped
entry points call :func:`run`, which returns a shared no-op context
manager unless the ledger is on (:func:`enable_ledger`, ``--ledger``,
``REPRO_LEDGER``; see :mod:`repro.obs.jsonl`).  Records go to one JSONL
file per entry point (``equilibria.solve.jsonl``, ...), append-only.

Reading back: :func:`read_runs` (with entry-point / status / fingerprint
filters), :func:`find_run` and :func:`run_diff` (field-by-field and
metric-by-metric comparison of two records).
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import platform
import sys
import threading
from pathlib import Path
from time import perf_counter, time
from typing import Any, Dict, List, Optional

import repro.obs.events as _events
import repro.obs.jsonl as _jsonl
import repro.obs.metrics as _metrics
import repro.obs.resources as _resources
import repro.obs.tracing as _tracing
import repro.obs.watchdog as _watchdog
from repro.obs.log import get_logger

__all__ = [
    "RECORD_SCHEMA",
    "RECORD_SCHEMA_V1",
    "RECORD_SCHEMA_V2",
    "DEFAULT_LEDGER_DIR",
    "enable_ledger",
    "disable_ledger",
    "ledger_enabled",
    "ledger_directory",
    "run",
    "canonical_json",
    "canonical_sha256",
    "fingerprint_game",
    "capture_environment",
    "read_runs",
    "find_run",
    "run_diff",
]

_log = get_logger("repro.obs.ledger")

RECORD_SCHEMA = "repro.obs/ledger-record/v3"
#: Previous record schemas, still accepted by the readers (v2 added the
#: ``resources`` block; v3 added the ``trace_id`` correlation field —
#: every other field is unchanged).
RECORD_SCHEMA_V2 = "repro.obs/ledger-record/v2"
RECORD_SCHEMA_V1 = "repro.obs/ledger-record/v1"
DEFAULT_LEDGER_DIR = ".repro/ledger"


class _LedgerState:
    """Process-global on/off switch and target directory."""

    __slots__ = ("enabled", "directory", "lock")

    def __init__(self) -> None:
        self.enabled = _jsonl.env_flag("REPRO_LEDGER")  # repro: lock(lock)
        self.directory = Path(  # repro: lock(lock)
            os.environ.get("REPRO_LEDGER_DIR", DEFAULT_LEDGER_DIR)
        )
        self.lock = threading.Lock()


_STATE = _LedgerState()


def enable_ledger(directory: Optional[os.PathLike] = None) -> None:
    """Start recording wrapped runs (optionally into ``directory``)."""
    with _STATE.lock:
        if directory is not None:
            _STATE.directory = Path(directory)
        _STATE.enabled = True


def disable_ledger() -> None:
    """Stop recording wrapped runs."""
    with _STATE.lock:
        _STATE.enabled = False


def ledger_enabled() -> bool:
    """True when wrapped entry points are currently being recorded."""
    with _STATE.lock:
        return _STATE.enabled


def ledger_directory() -> Path:
    """The directory records are appended under."""
    with _STATE.lock:
        return _STATE.directory


# --------------------------------------------------------------------------
# fingerprints and environment capture


def _canonicalize(value: Any) -> Any:
    """Recursively reduce ``value`` to deterministic JSON-encodable data.

    The previous encoder leaned on ``json.dumps(..., default=str)``,
    which hashed sets in ``PYTHONHASHSEED``-dependent iteration order and
    silently stringified anything unknown — two runs of the same record
    could produce different content addresses.  This canonicalizer is
    explicit instead:

    * dicts keep their (string) keys — ``sort_keys`` orders them at
      encode time; non-string keys are rejected;
    * lists/tuples canonicalize elementwise;
    * sets/frozensets become lists sorted by their canonical JSON
      encoding, independent of hash seed;
    * non-finite floats become tagged objects (``{"__nonfinite__":
      "nan" | "inf" | "-inf"}``) so the document never carries the
      non-RFC ``NaN``/``Infinity`` tokens;
    * any other type raises ``TypeError`` — an unknown type in a record
      is a bug at the call site, not something to stringify silently.
    """
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        if value != value:
            return {"__nonfinite__": "nan"}
        if value == float("inf"):
            return {"__nonfinite__": "inf"}
        if value == float("-inf"):
            return {"__nonfinite__": "-inf"}
        return value
    if isinstance(value, dict):
        for key in value:
            if not isinstance(key, str):
                raise TypeError(
                    f"canonical JSON requires string keys; got {key!r}"
                )
        return {key: _canonicalize(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonicalize(item) for item in value]
    if isinstance(value, (set, frozenset)):
        members = [_canonicalize(item) for item in value]
        return sorted(
            members,
            key=lambda m: json.dumps(m, sort_keys=True, separators=(",", ":")),
        )
    raise TypeError(
        f"cannot canonically encode {type(value).__name__!r} value {value!r}"
    )


def canonical_json(payload: Any) -> str:
    """The canonical JSON encoding of ``payload`` (see :func:`_canonicalize`).

    Key-sorted, whitespace-free, hash-seed independent; raises
    ``TypeError`` on values with no canonical encoding.  The result cache
    (:mod:`repro.cache`) stores this text as the human-readable half of
    its ``(fingerprint, solver, params)`` key.
    """
    return json.dumps(_canonicalize(payload), sort_keys=True,
                      separators=(",", ":"), allow_nan=False)


def canonical_sha256(payload: Any) -> str:
    """sha256 hex digest of the canonical JSON encoding of ``payload``.

    Deterministic across processes and hash seeds: see
    :func:`_canonicalize` for the exact normalization.  Raises
    ``TypeError`` on values with no canonical encoding.
    """
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


#: Backward-compatible alias — tools/check_obs.py and older callers used
#: the underscored name before the canonicalizer became public API.
_canonical_sha256 = canonical_sha256


def fingerprint_game(game) -> Dict[str, Any]:
    """Content fingerprint of a plain or weighted tuple game.

    Hashes the canonical serialization, so two structurally identical
    games fingerprint identically regardless of construction order — and
    two :class:`~repro.weighted.game.WeightedTupleGame` instances that
    differ only in their vertex weights fingerprint *differently* (the
    serialization carries the weight vector).
    """
    # Deliberate layering inversion (obs -> core), deferred to call time:
    # the ledger is layer 0 so every solver may import it, and only runs
    # that actually record pay for the serialization machinery.
    from repro.core.serialize import game_to_json

    return {
        "kind": (
            "weighted-tuple-game"
            if getattr(game, "weights", None) is not None
            else "tuple-game"
        ),
        "sha256": hashlib.sha256(game_to_json(game).encode("utf-8")).hexdigest(),
        "n": game.graph.n,
        "m": game.graph.m,
        "k": game.k,
        "nu": game.nu,
    }


@functools.lru_cache(maxsize=None)
def _git_revision() -> str:
    """The current short git revision (cached; ``"unknown"`` off-repo)."""
    return _watchdog.git_revision(Path(__file__).resolve().parent)


def capture_environment() -> Dict[str, Any]:
    """Where this run happened: interpreter, platform, CPUs, git rev."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
        "git_rev": _git_revision(),
        "argv0": Path(sys.argv[0]).name if sys.argv else "",
    }


# --------------------------------------------------------------------------
# recording


class _NullRunContext:
    """Shared no-op context manager returned while the ledger is off."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_RUN = _NullRunContext()


class _RunContext:
    """Live run recorder: times the block, snapshots telemetry on exit.

    Also the run-boundary publisher for the telemetry bus: a
    ``run.start`` / ``run.end`` event pair brackets every wrapped run
    while :mod:`repro.obs.events` is enabled — even for runs the ledger
    itself is not recording (``record=False``)."""

    __slots__ = ("entry_point", "fingerprint", "attributes", "record_run",
                 "_game", "_start", "_started_at", "_trace_mark",
                 "_auto_trace", "_trace_id")

    def __init__(
        self,
        entry_point: str,
        game,
        fingerprint: Optional[Dict[str, Any]],
        attributes: Dict[str, Any],
        record_run: bool = True,
    ) -> None:
        self.entry_point = entry_point
        self.fingerprint = fingerprint
        self.attributes = attributes
        self.record_run = record_run
        self._game = game
        self._start = 0.0
        self._started_at = 0.0
        self._trace_mark = 0
        self._auto_trace = False
        self._trace_id: Optional[str] = None

    def __enter__(self) -> "_RunContext":
        if self.record_run:
            if self.fingerprint is None and self._game is not None:
                self.fingerprint = fingerprint_game(self._game)
            # Runs always carry a span tree: turn tracing on for the
            # duration when nobody else has.
            if not _tracing.tracing_enabled():
                _tracing.enable_tracing(True)
                self._auto_trace = True
            # Correlation: recorded runs always carry a trace id — the
            # request's when one is active (the serve layer starts a
            # trace per HTTP request), a freshly minted one otherwise.
            self._trace_id = _tracing.current_trace_id(create=True)
            self._trace_mark = len(_tracing.get_trace())
            _resources.start_sampler()
        else:
            self._trace_id = _tracing.current_trace_id()
        _events.publish("run.start", entry_point=self.entry_point,
                        trace_id=self._trace_id)
        self._started_at = time()
        self._start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = perf_counter() - self._start
        status = "ok" if exc_type is None else "error"
        _events.publish("run.end", entry_point=self.entry_point,
                        status=status, duration_s=duration,
                        trace_id=self._trace_id)
        if not self.record_run:
            return False
        try:
            spans = [
                s.to_dict() for s in _tracing.get_trace()[self._trace_mark:]
            ]
            resources = _resources.snapshot()
            record: Dict[str, Any] = {
                "schema": RECORD_SCHEMA,
                "entry_point": self.entry_point,
                "started_at": self._started_at,
                "duration_s": duration,
                "status": status,
                "trace_id": self._trace_id,
                "fingerprint": self.fingerprint,
                "attributes": self.attributes,
                "env": capture_environment(),
                "metrics": _metrics.get_registry().snapshot(),
                "resources": resources,
                "spans": spans,
            }
            if exc_type is not None:
                record["error"] = {
                    "type": exc_type.__name__,
                    "message": str(exc),
                }
            record["run_id"] = _canonical_sha256(record)[:16]
            _append(record)
        except Exception as inner:  # recording must never break the solve
            _metrics.counter("ledger.errors.count").inc()
            _log.warning(
                "ledger.append.failed", entry_point=self.entry_point,
                error=type(inner).__name__,
            )
        finally:
            # Cleanup must survive a failed record build: a serialization
            # error must not leave auto-enabled tracing (or the sampler)
            # running for the rest of the process.
            if self._auto_trace:
                _tracing.enable_tracing(False)
            _resources.stop_sampler()
        return False


def _record_path(entry_point: str) -> Path:
    safe = "".join(c if c.isalnum() or c in "._-" else "_"
                   for c in entry_point)
    return ledger_directory() / f"{safe}.jsonl"


def _append(record: Dict[str, Any]) -> Path:
    """Append one record to its entry point's JSONL file (atomic line)."""
    with _metrics.timer("ledger.append.seconds"):
        path = _record_path(record["entry_point"])
        line = _jsonl.dumps_line(record)
        with _STATE.lock, _jsonl.open_append(path) as handle:
            handle.write(line)
        _metrics.counter("ledger.records.count").inc()
    return path


def run(entry_point: str, game=None,
        fingerprint: Optional[Dict[str, Any]] = None, **attributes):
    """Record one run of ``entry_point`` in the ledger.

    Usage (this is what the instrumented entry points do)::

        with ledger.run("equilibria.solve", game=game, seed=seed):
            ...solve...

    Passing ``game`` fingerprints it via :func:`fingerprint_game`;
    game-less workloads (fuzz batches, benchmark sessions) pass an
    explicit ``fingerprint`` dict instead.  Extra keyword arguments land
    in the record's ``attributes``.  While the ledger is disabled (the
    default) this returns a shared no-op context manager — unless the
    telemetry bus is on, in which case a lightweight context still
    publishes the ``run.start`` / ``run.end`` event pair without
    fingerprinting, tracing or appending anything.
    """
    # Deliberate benign race: a stale read of the switch misclassifies
    # one run around enable/disable and keeps the disabled path to a
    # single attribute load on every wrapped entry point.
    if _STATE.enabled:  # repro: noqa[LCK001]
        return _RunContext(entry_point, game, fingerprint, attributes)
    return _RunContext(entry_point, game, fingerprint, attributes,
                       record_run=False) \
        if _events.events_enabled() else _NULL_RUN


# --------------------------------------------------------------------------
# reading back


def read_runs(
    directory: Optional[os.PathLike] = None,
    entry_point: Optional[str] = None,
    status: Optional[str] = None,
    fingerprint_sha256: Optional[str] = None,
    since: Optional[float] = None,
    limit: Optional[int] = None,
) -> List[Dict[str, Any]]:
    """Read ledger records, oldest first, with optional filters.

    ``entry_point`` / ``status`` filter exactly; ``fingerprint_sha256``
    matches the game-fingerprint hash; ``since`` keeps runs whose
    ``started_at`` is at or after the given UNIX timestamp; ``limit``
    keeps only the *newest* matching records.
    """
    with _metrics.timer("ledger.read.seconds"):
        root = Path(directory) if directory is not None \
            else ledger_directory()
        records = []
        for record in _jsonl.iter_records(root, "ledger", "*.jsonl"):
            if entry_point is not None \
                    and record.get("entry_point") != entry_point:
                continue
            if status is not None and record.get("status") != status:
                continue
            if fingerprint_sha256 is not None:
                fp = record.get("fingerprint") or {}
                if fp.get("sha256") != fingerprint_sha256:
                    continue
            if since is not None \
                    and record.get("started_at", 0.0) < since:
                continue
            records.append(record)
        records.sort(key=lambda r: r.get("started_at", 0.0))
        if limit is not None and limit >= 0:
            records = records[len(records) - min(limit, len(records)):]
    return records


def find_run(run_id: str,
             directory: Optional[os.PathLike] = None) -> Optional[Dict[str, Any]]:
    """The record with the given (possibly abbreviated) run id, or None.

    An abbreviation matching more than one distinct run id raises
    ``ValueError`` listing the candidates — silently returning the first
    of several matches would diff or report the wrong run.
    """
    with _metrics.timer("ledger.find.seconds"):
        matches: List[Dict[str, Any]] = []
        seen_ids: List[str] = []
        for record in read_runs(directory=directory):
            rid = str(record.get("run_id", ""))
            if rid.startswith(run_id):
                if rid not in seen_ids:
                    matches.append(record)
                    seen_ids.append(rid)
        if len(matches) > 1:
            raise ValueError(
                f"run id prefix {run_id!r} is ambiguous: matches "
                + ", ".join(sorted(seen_ids))
            )
    return matches[0] if matches else None


def _metric_deltas(a: Dict[str, Any], b: Dict[str, Any]) -> Dict[str, float]:
    deltas: Dict[str, float] = {}
    for name in sorted(set(a) | set(b)):
        va, vb = a.get(name, 0.0), b.get(name, 0.0)
        if isinstance(va, dict) or isinstance(vb, dict):  # histograms
            va = (va or {}).get("mean", 0.0)
            vb = (vb or {}).get("mean", 0.0)
        if va != vb:
            deltas[name] = float(vb) - float(va)
    return deltas


def run_diff(a: Dict[str, Any], b: Dict[str, Any]) -> Dict[str, Any]:
    """Structured comparison of two ledger records.

    Returns duration delta, whether the game fingerprints match, the
    environment fields that changed, and per-metric deltas (counter and
    gauge values; histogram means).
    """
    with _metrics.timer("ledger.diff.seconds"):
        fp_a = (a.get("fingerprint") or {}).get("sha256")
        fp_b = (b.get("fingerprint") or {}).get("sha256")
        env_a, env_b = a.get("env", {}), b.get("env", {})
        env_changes = {
            key: {"a": env_a.get(key), "b": env_b.get(key)}
            for key in sorted(set(env_a) | set(env_b))
            if env_a.get(key) != env_b.get(key)
        }
        metrics_a = a.get("metrics", {})
        metrics_b = b.get("metrics", {})
    return {
        "run_a": a.get("run_id"),
        "run_b": b.get("run_id"),
        "entry_points": [a.get("entry_point"), b.get("entry_point")],
        "same_fingerprint": fp_a is not None and fp_a == fp_b,
        "duration_delta_s": (
            b.get("duration_s", 0.0) - a.get("duration_s", 0.0)
        ),
        "env_changes": env_changes,
        "metrics": {
            "counters": _metric_deltas(
                metrics_a.get("counters", {}), metrics_b.get("counters", {})
            ),
            "gauges": _metric_deltas(
                metrics_a.get("gauges", {}), metrics_b.get("gauges", {})
            ),
            "histogram_means": _metric_deltas(
                metrics_a.get("histograms", {}),
                metrics_b.get("histograms", {}),
            ),
        },
    }
