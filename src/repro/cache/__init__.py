"""Persistent, content-addressed solve-result cache.

The solver stack's workload profile is *heavy repeated traffic*: sweeps,
fuzz sessions and analysis pipelines solve the same ``(game, solver,
params)`` triple over and over.  This package memoizes those solves
across processes and sessions: results are stored by content address —
``(game fingerprint, solver name, canonical params)`` — in an
LRU-over-SQLite store (:mod:`repro.cache.store`), so a repeated solve
replays the serialized result instead of recomputing it.

Correctness rests on the identity layer: the game fingerprint is the
sha256 of the canonical :func:`repro.core.serialize.game_to_json`
document, which serializes the weight vector of weighted games — two
games differing only in weights therefore occupy *different* cache
entries (the bug this package's PR fixed before building on it).

Like the ledger, the cache is **opt-in and near-free when off** (the
default): instrumented solvers run through :func:`cached_solve`, whose
:func:`lookup` returns a shared no-op miss unless caching was enabled
via :func:`enable_cache`, the CLI ``--cache`` flag, or ``REPRO_CACHE=1``
(``REPRO_CACHE_DIR`` overrides the directory, default ``.repro/cache``).
The disabled path is a single attribute load — no fingerprinting, no
I/O — and the solver's output is byte-identical with the cache on or
off (hits replay the exact serialized payload a cold solve produced).

Failures never break a solve: a probe or store that raises (corrupt
file, full disk) is logged, counted in ``cache.errors.count`` and
treated as a miss.
"""

from __future__ import annotations

import json
import os
import threading
from contextlib import ExitStack
from pathlib import Path
from typing import Any, Callable, ContextManager, Dict, Iterable, Optional

from repro.core.game import GameError
from repro.obs import get_logger, metrics
from repro.obs import ledger as obs_ledger
from repro.obs.jsonl import env_flag

from repro.cache.keys import game_sha256
from repro.cache.store import ResultCache

__all__ = [
    "DEFAULT_CACHE_DIR",
    "CacheProbe",
    "ResultCache",
    "enable_cache",
    "disable_cache",
    "cache_enabled",
    "cache_directory",
    "get_cache",
    "open_store",
    "lookup",
    "cached_solve",
    "decode_result",
]

_log = get_logger("repro.cache")

DEFAULT_CACHE_DIR = ".repro/cache"
_STORE_FILENAME = "results.sqlite3"


class _CacheState:
    """Process-global on/off switch, target directory and open store."""

    __slots__ = ("enabled", "directory", "store", "lock")

    def __init__(self) -> None:
        self.enabled = env_flag("REPRO_CACHE")  # repro: lock(lock)
        self.directory = Path(  # repro: lock(lock)
            os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)
        )
        self.store: Optional[ResultCache] = None  # repro: lock(lock)
        self.lock = threading.Lock()


_STATE = _CacheState()


def enable_cache(directory: Optional[os.PathLike] = None) -> None:
    """Start caching wrapped solves (optionally under ``directory``)."""
    with _STATE.lock:
        if directory is not None and Path(directory) != _STATE.directory:
            if _STATE.store is not None:
                _STATE.store.close()
                _STATE.store = None
            _STATE.directory = Path(directory)
        _STATE.enabled = True


def disable_cache() -> None:
    """Stop caching (the store file stays on disk for the next enable)."""
    with _STATE.lock:
        _STATE.enabled = False
        if _STATE.store is not None:
            _STATE.store.close()
            _STATE.store = None


def cache_enabled() -> bool:
    """True when instrumented solvers currently consult the cache."""
    with _STATE.lock:
        return _STATE.enabled


def cache_directory() -> Path:
    """The directory the store file lives under."""
    with _STATE.lock:
        return _STATE.directory


def get_cache() -> ResultCache:
    """The process-wide store at the configured directory (lazily opened)."""
    with _STATE.lock:
        if _STATE.store is None:
            _STATE.store = ResultCache(_STATE.directory / _STORE_FILENAME)
        return _STATE.store


def open_store(directory: Optional[os.PathLike] = None) -> ResultCache:
    """A standalone store handle (CLI inspection), no global state touched."""
    root = Path(directory) if directory is not None else cache_directory()
    return ResultCache(root / _STORE_FILENAME)


class CacheProbe:
    """Outcome of one cache lookup, and the handle to fill a miss.

    ``hit`` / ``payload`` report the lookup; on a miss the solver calls
    :meth:`store` with the serialized result it just computed.  The
    shared no-op instance (returned while caching is off) ignores
    :meth:`store`, so solver code is identical either way
    (:func:`cached_solve` is that code).
    """

    __slots__ = ("hit", "payload", "_fingerprint", "_solver", "_params",
                 "_active")

    def __init__(self, hit: bool = False, payload: Optional[str] = None,
                 fingerprint: str = "", solver: str = "",
                 params: Optional[Dict[str, Any]] = None,
                 active: bool = False) -> None:
        self.hit = hit
        self.payload = payload
        self._fingerprint = fingerprint
        self._solver = solver
        self._params = params or {}
        self._active = active

    def store(self, payload: str) -> None:
        """Record the freshly computed payload (no-op when caching is off)."""
        if not self._active or self.hit:
            return
        try:
            get_cache().store(self._fingerprint, self._solver,
                              self._params, payload)
        except Exception as exc:  # caching must never break the solve
            metrics.counter("cache.errors.count").inc()
            _log.warning("cache.store.failed", solver=self._solver,
                         error=type(exc).__name__)

    def replay(self, decoder: Any) -> Any:
        """Decode the hit payload via ``decoder``, or ``None`` on failure.

        A payload that no longer parses — a corrupt row, or a format tag
        from an older library version — is demoted to a miss: the error
        is counted on ``cache.errors.count``, ``hit`` flips to ``False``
        so the caller's compute path runs and its :meth:`store` call
        overwrites the bad entry with a fresh payload.  (The ledger
        record keeps the ``cache_hit`` stamped at probe time; the error
        counter and warning log carry the demotion.)
        """
        if not self.hit:
            return None
        try:
            return decoder(self.payload)
        except Exception as exc:  # caching must never break the solve
            metrics.counter("cache.errors.count").inc()
            _log.warning("cache.replay.failed", solver=self._solver,
                         error=type(exc).__name__)
            self.hit = False
            self.payload = None
            return None

    def __repr__(self) -> str:
        return f"CacheProbe(hit={self.hit}, solver={self._solver!r})"


#: Shared miss returned while the cache is disabled.
_MISS = CacheProbe()


def _active_probe(game: Any, solver: str,
                  params: Dict[str, Any]) -> CacheProbe:
    try:
        fingerprint = game_sha256(game)
        payload = get_cache().probe(fingerprint, solver, params)
    except Exception as exc:  # caching must never break the solve
        metrics.counter("cache.errors.count").inc()
        _log.warning("cache.lookup.failed", solver=solver,
                     error=type(exc).__name__)
        return _MISS
    return CacheProbe(hit=payload is not None, payload=payload,
                      fingerprint=fingerprint, solver=solver,
                      params=params, active=True)


def lookup(game: Any, solver: str, params: Dict[str, Any]) -> CacheProbe:
    """Probe the cache for ``(game, solver, params)``.

    The instrumented-solver entry point: returns the shared no-op miss
    (one attribute load, no fingerprinting or I/O) while caching is
    disabled, otherwise a live :class:`CacheProbe`.
    """
    # Deliberate benign race (same pattern as the ledger switch): a stale
    # read misclassifies one solve around enable/disable and keeps the
    # disabled path free of locking.
    if not _STATE.enabled:  # repro: noqa[LCK001]
        return _MISS
    return _active_probe(game, solver, params)


def cached_solve(
    game: Any, solver: str, params: Dict[str, Any],
    compute: Callable[[], Any], encode: Callable[[Any], str],
    decode: Callable[[str], Any], attributes: Dict[str, Any],
    scope: Optional[Callable[[], Iterable[ContextManager]]] = None,
) -> Any:
    """One cache-aware solve, replayed or computed and stored.

    Probe, open the ledger run ``solver`` (``attributes`` plus
    ``cache_hit``), enter the contexts ``scope()`` returns (spans and
    timers, built once the run has switched tracing on), then replay the
    hit through ``decode`` — or ``compute()`` and store
    ``encode(result)``."""
    probe = lookup(game, solver, params)
    with obs_ledger.run(solver, game=game, **attributes,
                        cache_hit=probe.hit), ExitStack() as stack:
        for context in (scope() if scope is not None else ()):
            stack.enter_context(context)
        result = probe.replay(decode)
        if result is None:
            result = compute()
            probe.store(encode(result))
        return result


def decode_result(text: str, format_tag: str, what: str,
                  build: Callable[[Dict[str, Any]], Any]) -> Any:
    """Parse a result document tagged ``format_tag`` via ``build(payload)``.

    Every defect is a :class:`~repro.core.game.GameError` naming
    ``what``."""
    with metrics.timer("cache.decode.seconds"):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise GameError(f"invalid {what} document: {exc}") from exc
        if not isinstance(payload, dict) \
                or payload.get("format") != format_tag:
            raise GameError(
                f"unrecognized {what} format (expected {format_tag!r})"
            )
        try:
            return build(payload)
        except (KeyError, TypeError, ValueError) as exc:
            raise GameError(f"malformed {what} payload: {exc}") from exc
