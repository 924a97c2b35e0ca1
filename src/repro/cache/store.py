"""LRU-over-SQLite store for content-addressed solve results.

One :class:`ResultCache` wraps one SQLite file (default
``.repro/cache/results.sqlite3``) holding serialized solve payloads
keyed by :func:`repro.cache.keys.cache_key`.  SQLite gives the three
properties a persistent cache actually needs for free: atomic writes
(a crashed process never leaves a torn payload), concurrent readers
across processes, and indexed eviction scans — all stdlib, no services.

Policy
------
* **LRU over ``last_access``**: a hit writes nothing; it records the
  entry's new ``last_access`` and ``hits`` tally in memory, and the next
  :meth:`~ResultCache.store`, :meth:`~ResultCache.gc`,
  :meth:`~ResultCache.stats`, :meth:`~ResultCache.entries` or
  :meth:`~ResultCache.close` flushes them inside its own transaction.
  When the store exceeds ``max_entries`` or ``max_bytes`` after an
  insert, the least recently used entries (ties by key) are evicted
  until it fits, in the same transaction as the insert.
* **Age**: :meth:`ResultCache.gc` (and the ``repro-defender cache gc``
  CLI) drops entries whose ``last_access`` is older than a cutoff.
* **Size**: the entry count and byte total are read from the covering
  ``(last_access, size_bytes)`` index, never from the payload rows, once
  per write.
* **Schema versioning**: the file carries ``PRAGMA user_version``;
  :mod:`repro.cache.migrations` upgrades old stores in place and refuses
  to touch stores newer than this library.

Telemetry
---------
Probes run under a ``cache.lookup`` span; a missing row counts into
``cache.misses.count``, and a found row into ``cache.hits.count`` once
its reader has checked it (a row that fails the check is a miss);
inserts count into ``cache.stores.count``; every eviction into
``cache.evictions.count``.
``cache.entries`` / ``cache.bytes`` gauges track the store size.  All of
it lands in ledger records via the usual metrics snapshot, so a recorded
run shows exactly how the cache behaved.

Thread safety: one connection guarded by one lock; SQLite-level locking
covers cross-process use.
"""

from __future__ import annotations

import sqlite3
import threading
from pathlib import Path
from time import time
from typing import Any, Dict, List, Optional, Tuple

from repro.obs import get_logger, metrics, tracing

from repro.cache.keys import cache_key, params_json
from repro.cache.migrations import apply_migrations

__all__ = ["ResultCache", "DEFAULT_MAX_ENTRIES", "DEFAULT_MAX_BYTES"]

_log = get_logger("repro.cache.store")

DEFAULT_MAX_ENTRIES = 4096
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

#: Entry count and byte total; answered from the covering LRU index.
SIZE_SQL = ("SELECT COUNT(*), COALESCE(SUM(size_bytes), 0) "
            "FROM cache_entries")


class ResultCache:
    """A persistent, content-addressed solve-result cache.

    Parameters
    ----------
    path:
        The SQLite file (parent directories are created).
    max_entries / max_bytes:
        LRU eviction thresholds, enforced after every insert.
    """

    def __init__(
        self,
        path: Path,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        max_bytes: int = DEFAULT_MAX_BYTES,
    ) -> None:
        self.path = Path(path)
        self.max_entries = int(max_entries)
        self.max_bytes = int(max_bytes)
        self._lock = threading.Lock()
        # Hits not yet written: key -> (last_access, hits since flush).
        self._touches: Dict[str, Tuple[float, int]] = {}  # repro: lock(_lock)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # One connection shared across threads, serialized by our lock
        # (sqlite3's own check is per-thread-affinity, stricter than
        # needed once every access is lock-guarded).
        self._conn = sqlite3.connect(  # repro: lock(_lock)
            str(self.path), check_same_thread=False
        )
        with self._lock:
            self._conn.execute("PRAGMA journal_mode = WAL")
            # A commit appends to the WAL without an fsync; a power loss
            # may drop the newest entries, a crash loses none, and the
            # store stays consistent either way.
            self._conn.execute("PRAGMA synchronous = NORMAL")
            applied = apply_migrations(self._conn)
        if applied:
            _log.info("cache.migrated", path=str(self.path),
                      steps=",".join(str(v) for v in applied))

    # ------------------------------------------------------------------
    # lookup / store
    # ------------------------------------------------------------------

    def probe(self, fingerprint: str, solver: str,
              params: Dict[str, Any]) -> Optional[str]:
        """The cached payload for ``(fingerprint, solver, params)``, or None.

        A missing row counts into ``cache.misses.count``.  A found row
        is counted by its reader, once the row checks out
        (:meth:`repro.cache.CacheProbe.replay`), since only the reader
        can tell a hit from a torn or stale row.  A found row writes
        nothing: its LRU clock and hit tally wait in memory for the next
        flush.
        """
        key = cache_key(fingerprint, solver, params_json(params))
        with tracing.span("cache.lookup", solver=solver), \
                metrics.timer("cache.lookup.seconds"):
            with self._lock:
                row = self._conn.execute(
                    "SELECT payload FROM cache_entries WHERE key = ?",
                    (key,),
                ).fetchone()
                if row is not None:
                    hits = self._touches.get(key, (0.0, 0))[1]
                    self._touches[key] = (time(), hits + 1)
            if row is None:
                metrics.counter("cache.misses.count").inc()
                return None
            return str(row[0])

    def store(self, fingerprint: str, solver: str,
              params: Dict[str, Any], payload: str) -> str:
        """Insert (or refresh) one payload; returns its key.

        The pending hits, the insert and the LRU eviction it calls for
        commit as one transaction.
        """
        key = cache_key(fingerprint, solver, params_json(params))
        now = time()
        size = len(payload.encode("utf-8"))
        with metrics.timer("cache.store.seconds"):
            with self._lock, self._conn:
                self._flush_touches_locked()
                self._conn.execute(
                    "INSERT INTO cache_entries (key, fingerprint, "
                    "solver, params, payload, size_bytes, created_at, "
                    "last_access, hits) VALUES (?,?,?,?,?,?,?,?,0) "
                    "ON CONFLICT(key) DO UPDATE SET payload = ?, "
                    "size_bytes = ?, last_access = ?",
                    (key, fingerprint, solver, params_json(params),
                     payload, size, now, now, payload, size, now),
                )
                evicted, count, total = self._evict_lru_locked()
            metrics.counter("cache.stores.count").inc()
            _publish_size(evicted, count, total)
        return key

    def _flush_touches_locked(self) -> None:
        """Write the pending hits inside the caller's transaction."""
        if self._touches:
            self._conn.executemany(
                "UPDATE cache_entries SET last_access = ?, "
                "hits = hits + ? WHERE key = ?",
                [(at, hits, key)
                 for key, (at, hits) in self._touches.items()],
            )
            self._touches.clear()

    def _evict_lru_locked(self) -> Tuple[int, int, int]:
        """Drop least-recently-used entries, ties by key, until the size
        policy holds; returns ``(evicted, entries, bytes)`` after it."""
        count, total = self._conn.execute(SIZE_SQL).fetchone()
        victims: List[Tuple[str]] = []
        if count > self.max_entries or total > self.max_bytes:
            cursor = self._conn.execute(
                "SELECT key, size_bytes FROM cache_entries "
                "ORDER BY last_access, key"
            )
            for key, size in cursor:
                if count <= self.max_entries and total <= self.max_bytes:
                    break
                victims.append((key,))
                count -= 1
                total -= size
            cursor.close()
            self._conn.executemany(
                "DELETE FROM cache_entries WHERE key = ?", victims)
        return len(victims), count, total

    # ------------------------------------------------------------------
    # maintenance / inspection
    # ------------------------------------------------------------------

    def gc(self, max_age_s: Optional[float] = None,
           solver: Optional[str] = None) -> int:
        """Evict entries not accessed within ``max_age_s`` seconds.

        ``max_age_s=None`` only re-enforces the size policy;
        ``max_age_s=0`` empties the store (optionally one solver's
        slice).  Returns the number of entries evicted.  The pending
        hits and every eviction commit as one transaction.
        """
        with metrics.timer("cache.gc.seconds"):
            aged = 0
            with self._lock, self._conn:
                self._flush_touches_locked()
                if max_age_s is not None:
                    cutoff = time() - float(max_age_s)
                    sql = ("DELETE FROM cache_entries "
                           "WHERE last_access <= ?")
                    args: List[Any] = [cutoff]
                    if solver is not None:
                        sql += " AND solver = ?"
                        args.append(solver)
                    aged = self._conn.execute(sql, args).rowcount
                evicted, count, total = self._evict_lru_locked()
            evicted += aged
            _publish_size(evicted, count, total)
            _log.info("cache.gc", evicted=evicted,
                      max_age_s=max_age_s, solver=solver or "*")
        return evicted

    def stats(self) -> Dict[str, Any]:
        """Store totals and a per-solver breakdown (for the CLI)."""
        with self._lock, self._conn:
            self._flush_touches_locked()
            count, total = self._conn.execute(SIZE_SQL).fetchone()
            per_solver = {
                solver: {"entries": entries, "bytes": nbytes, "hits": hits}
                for solver, entries, nbytes, hits in self._conn.execute(
                    "SELECT solver, COUNT(*), COALESCE(SUM(size_bytes),0), "
                    "COALESCE(SUM(hits),0) FROM cache_entries "
                    "GROUP BY solver ORDER BY solver"
                )
            }
            version = int(self._conn.execute(
                "PRAGMA user_version").fetchone()[0])
        return {
            "path": str(self.path),
            "schema_version": version,
            "entries": int(count),
            "bytes": int(total),
            "max_entries": self.max_entries,
            "max_bytes": self.max_bytes,
            "solvers": per_solver,
        }

    def entries(self, key_prefix: Optional[str] = None,
                solver: Optional[str] = None,
                limit: int = 50) -> List[Dict[str, Any]]:
        """Entry metadata (no payloads), newest access first."""
        sql = ("SELECT key, fingerprint, solver, params, size_bytes, "
               "created_at, last_access, hits FROM cache_entries")
        clauses: List[str] = []
        args: List[Any] = []
        if key_prefix:
            clauses.append("key LIKE ?")
            args.append(key_prefix + "%")
        if solver:
            clauses.append("solver = ?")
            args.append(solver)
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY last_access DESC LIMIT ?"
        args.append(int(limit))
        with self._lock, self._conn:
            self._flush_touches_locked()
            rows = self._conn.execute(sql, args).fetchall()
        return [
            {
                "key": key,
                "fingerprint": fingerprint,
                "solver": solver_name,
                "params": params,
                "size_bytes": int(size),
                "created_at": float(created),
                "last_access": float(accessed),
                "hits": int(hits),
            }
            for key, fingerprint, solver_name, params, size,
            created, accessed, hits in rows
        ]

    def close(self) -> None:
        """Flush the pending hits and close the connection (the store
        stays on disk)."""
        with self._lock:
            try:
                if self._touches:
                    with self._conn:
                        self._flush_touches_locked()
            finally:
                self._conn.close()

    def __repr__(self) -> str:
        return f"ResultCache(path={str(self.path)!r})"


def _publish_size(evicted: int, count: int, total: int) -> None:
    """Count a write's evictions and set the size gauges it measured."""
    if evicted:
        metrics.counter("cache.evictions.count").inc(evicted)
    metrics.gauge("cache.entries").set(float(count))
    metrics.gauge("cache.bytes").set(float(total))
