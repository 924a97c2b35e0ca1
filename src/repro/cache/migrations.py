"""Schema-versioned migrations for the result-cache SQLite store.

The cache database must survive upgrades of this library: a store
created by an older version is *migrated in place* the first time a
newer version opens it, never silently recreated (recreating would throw
away every cached solve).  The mechanism is the standard SQLite hygiene:

* ``PRAGMA user_version`` records the schema version the file is at;
* :data:`MIGRATIONS` is an ordered list of ``(version, statements)``
  steps, each bringing the schema from ``version - 1`` to ``version``;
* :func:`apply_migrations` replays exactly the missing suffix, each step
  inside its own transaction, and stamps ``user_version`` as part of
  that transaction — a crash mid-migration leaves the file at the last
  completed version, and the next open resumes from there;
* a file *newer* than this library raises :class:`CacheSchemaError`
  instead of being touched: downgrading code must not corrupt a store it
  does not understand.

Adding a migration means appending one step — never editing an existing
one, because deployed stores have already run it.
"""

from __future__ import annotations

import sqlite3
from typing import List, Sequence, Tuple

from repro.obs import metrics

__all__ = [
    "SCHEMA_VERSION",
    "MIGRATIONS",
    "CacheSchemaError",
    "apply_migrations",
]


class CacheSchemaError(RuntimeError):
    """The store's schema cannot be brought to this library's version."""


#: Ordered migration steps; each entry is ``(target_version, statements)``.
MIGRATIONS: Sequence[Tuple[int, Sequence[str]]] = (
    (
        1,
        (
            """
            CREATE TABLE IF NOT EXISTS cache_entries (
                key          TEXT PRIMARY KEY,
                fingerprint  TEXT NOT NULL,
                solver       TEXT NOT NULL,
                params       TEXT NOT NULL,
                payload      TEXT NOT NULL,
                size_bytes   INTEGER NOT NULL,
                created_at   REAL NOT NULL,
                last_access  REAL NOT NULL
            )
            """,
            # Eviction scans in LRU order.
            "CREATE INDEX IF NOT EXISTS idx_cache_entries_last_access "
            "ON cache_entries (last_access)",
        ),
    ),
    (
        2,
        (
            # Per-entry hit tally (``stats``/``lookup`` report it; eviction
            # does not use it — LRU stays purely recency-based).
            "ALTER TABLE cache_entries ADD COLUMN hits INTEGER NOT NULL "
            "DEFAULT 0",
            # ``stats`` groups by solver; ``gc`` can target one solver.
            "CREATE INDEX IF NOT EXISTS idx_cache_entries_solver "
            "ON cache_entries (solver)",
        ),
    ),
    (
        3,
        (
            # ``size_bytes`` sits after ``payload`` in the row, so summing
            # it from the table walks every payload's overflow pages.
            # This index covers the size query, the LRU eviction order
            # and ``gc``'s age cut without reading a payload.
            "DROP INDEX IF EXISTS idx_cache_entries_last_access",
            "CREATE INDEX IF NOT EXISTS idx_cache_entries_lru "
            "ON cache_entries (last_access, size_bytes)",
        ),
    ),
)

#: The schema version this library writes.
SCHEMA_VERSION = MIGRATIONS[-1][0]


def schema_version(conn: sqlite3.Connection) -> int:
    """The ``PRAGMA user_version`` of an open store."""
    return int(conn.execute("PRAGMA user_version").fetchone()[0])


def apply_migrations(conn: sqlite3.Connection) -> List[int]:
    """Bring ``conn`` to :data:`SCHEMA_VERSION`; return the steps applied.

    Idempotent: an up-to-date store applies nothing.  Raises
    :class:`CacheSchemaError` when the store is *ahead* of this library.
    """
    with metrics.timer("cache.migrate.seconds"):
        current = schema_version(conn)
        if current > SCHEMA_VERSION:
            raise CacheSchemaError(
                f"cache store is at schema v{current} but this library "
                f"only knows v{SCHEMA_VERSION}; refusing to touch a newer "
                "store"
            )
        applied: List[int] = []
        for version, statements in MIGRATIONS:
            if version <= current:
                continue
            # One transaction per step: the version stamp commits
            # atomically with the DDL it describes.
            with conn:
                for statement in statements:
                    conn.execute(statement)
                conn.execute(f"PRAGMA user_version = {int(version)}")
            applied.append(version)
        return applied
