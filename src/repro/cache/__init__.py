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
default): instrumented solvers run through a :class:`CachedCall`, whose
:func:`lookup` returns a shared no-op miss unless caching was enabled
via :func:`enable_cache`, the CLI ``--cache`` flag, or ``REPRO_CACHE=1``
(``REPRO_CACHE_DIR`` overrides the directory, default ``.repro/cache``).
The disabled path is a single attribute load — no fingerprinting, no
encoding, no I/O — and the solver's output is byte-identical with the
cache on or off (hits replay the exact payload a cold solve produced).

Failures never break a solve: a probe or store that raises (corrupt
file, full disk) is logged, counted in ``cache.errors.count`` and
treated as a miss.
"""

from __future__ import annotations

import json
import os
import threading
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any, Callable, ContextManager, Dict, Iterable, Optional, Tuple,
)

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
    "CachedCall",
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


@dataclass
class CacheProbe:
    """Outcome of one cache lookup, and the handle to fill a miss.

    ``hit`` / ``payload`` report the lookup; on a miss the solver calls
    :meth:`store` with the serialized result it just computed.  The
    shared no-op instance (returned while caching is off) is not
    ``active``: it ignores :meth:`store`, and :meth:`CachedCall.run`
    skips the encode for it.
    """

    hit: bool = False
    payload: Optional[str] = field(default=None, repr=False)
    fingerprint: str = field(default="", repr=False)
    solver: str = ""
    params: Dict[str, Any] = field(default_factory=dict, repr=False)
    active: bool = False

    def store(self, payload: str) -> None:
        """Record the freshly computed payload (no-op when caching is off)."""
        if not self.active or self.hit:
            return
        try:
            get_cache().store(self.fingerprint, self.solver, self.params,
                              payload)
        except Exception as exc:  # caching must never break the solve
            metrics.counter("cache.errors.count").inc()
            _log.warning("cache.store.failed", solver=self.solver,
                         error=type(exc).__name__)

    def replay(self, decoder: Any) -> Any:
        """Decode the hit payload via ``decoder``, or ``None`` on failure.

        A payload that no longer parses — a corrupt row, or a format tag
        from an older library version — is demoted to a miss: the error
        is counted on ``cache.errors.count``, ``hit`` flips to ``False``
        so the caller's compute path runs and its :meth:`store` call
        overwrites the bad entry with a fresh payload.  A found row
        counts into ``cache.hits.count`` only here, once it decodes; a
        demoted one counts into ``cache.misses.count``.  (A library
        ledger run keeps the ``cache_hit`` stamped at probe time; the
        service replays before it opens a run, so it records a plain
        miss.)
        """
        if not self.hit:
            return None
        try:
            result = decoder(self.payload)
        except Exception as exc:  # caching must never break the solve
            metrics.counter("cache.errors.count").inc()
            metrics.counter("cache.misses.count").inc()
            _log.warning("cache.replay.failed", solver=self.solver,
                         error=type(exc).__name__)
            self.hit = False
            self.payload = None
            return None
        metrics.counter("cache.hits.count").inc()
        return result


#: Shared miss returned while the cache is disabled.
_MISS = CacheProbe()


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


@dataclass(frozen=True)
class CachedCall:
    """One library entry point's cache identity, and the way to run it.

    ``solver`` names the cache entries and the ledger run; the call's
    keyword parameters are the cache params and the run's attributes,
    verbatim.  ``compute(game, **params)`` solves cold; ``encode`` writes
    the result document, stamped ``format_tag``, and ``build(payload)``
    rebuilds the result from the parsed document (:meth:`decode`).
    ``scope(game, params)`` is called as the run opens and returns the
    spans and timers to enter, and ``finish(game, params, result)`` runs
    after every call that returns.

    Calling it is the library path: :meth:`probe`, then :meth:`run`.
    The service splits the two: it probes inline, answers a hit checked
    by :meth:`check`, and runs a miss on a worker with the same probe.
    """

    solver: str
    compute: Callable[..., Any]
    encode: Callable[[Any], str]
    build: Callable[[Dict[str, Any]], Any]
    format_tag: str
    scope: Optional[
        Callable[[Any, Dict[str, Any]], Iterable[ContextManager]]] = None
    finish: Optional[Callable[[Any, Dict[str, Any], Any], None]] = None

    def __call__(self, game: Any, **params: Any) -> Any:
        return self.run(game, params, self.probe(game, params))[0]

    def probe(self, game: Any, params: Dict[str, Any]) -> CacheProbe:
        return lookup(game, self.solver, params)

    def check(self, text: str) -> Dict[str, Any]:
        """Parse a stored document and check its format tag, without
        rebuilding the result: the served hit's decoder, and the first
        half of :meth:`decode`."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise GameError(
                f"invalid {self.solver} document: {exc}") from exc
        if not isinstance(payload, dict) \
                or payload.get("format") != self.format_tag:
            raise GameError(f"unrecognized {self.solver} format "
                            f"(expected {self.format_tag!r})")
        return payload

    def decode(self, text: str) -> Any:
        """Rebuild the result from a stored document; every defect is a
        :class:`~repro.core.game.GameError` naming the solver."""
        with metrics.timer("cache.decode.seconds"):
            payload = self.check(text)
            try:
                return self.build(payload)
            except (KeyError, TypeError, ValueError) as exc:
                raise GameError(
                    f"malformed {self.solver} payload: {exc}") from exc

    def run(self, game: Any, params: Dict[str, Any], probe: CacheProbe,
            text: bool = False) -> Tuple[Any, Optional[str]]:
        """Replay ``probe``'s hit, or compute and store: ``(result, text)``.

        A cold result is encoded once, and only when the store keeps it
        or the caller asks for ``text``; that one document is both the
        stored payload and the returned text.  A hit returns its payload.
        """
        with obs_ledger.run(self.solver, game=game, **params,
                            cache_hit=probe.hit), ExitStack() as stack:
            for context in self.scope(game, params) if self.scope else ():
                stack.enter_context(context)
            result = probe.replay(self.decode)
            encoded = probe.payload
            if result is None:
                result = self.compute(game, **params)
                if probe.active or text:
                    encoded = self.encode(result)
                    probe.store(encoded)
        if self.finish is not None:
            self.finish(game, params, result)
        return result, encoded
