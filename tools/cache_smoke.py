"""End-to-end smoke test for the result cache (``make cache-smoke``).

Replays the full cache lifecycle on the committed fixture games in
``tests/fixtures/cache/``:

1. solve the plain fixture with the cache **disabled** — the reference
   bytes the cached path must reproduce exactly;
2. enable a throwaway store, solve **cold** (miss + store), then solve
   again and require a **hit** whose serialized result is byte-identical
   to both the cold run and the cache-disabled reference, with
   ``cache.hits.count == 1``;
3. solve the two weighted fixtures (differing only in vertex weights)
   and require distinct fingerprints *and* distinct cache entries —
   the regression this PR-line exists to prevent;
4. ``gc`` the store empty and require the next solve to **miss** again;
5. on a fresh store, solve the plain fixture cold through the library
   (``solve_game``, ``double_oracle``, ``fictitious_play``), then
   require ``repro.serve.routes.prepare(...)`` to answer each endpoint
   **inline** with a body whose ``result`` bytes are exactly the stored
   row and the library's document; then tear the stored ``/solve`` row
   and require the library path, and after a stale-format row the
   served path, to **demote** it to a miss (``cache.errors.count``
   rises by one) and rewrite it with the correct document.

Exits non-zero on any failure, so the ``ci`` Makefile target catches a
cache that returns stale or wrong-identity results the moment it rots.

Usage::

    python tools/cache_smoke.py        # or: make cache-smoke
"""

from __future__ import annotations

import json
import sqlite3
import sys
import tempfile
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # no editable install: use the in-tree sources
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

FIXTURE_DIR = (
    Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "cache"
)


def _counter(name: str) -> int:
    from repro.obs import get_registry

    return int(get_registry().snapshot()["counters"].get(name, 0))


def run_smoke() -> list:
    """Return a list of failure messages (empty = healthy)."""
    import repro.cache as result_cache
    from repro.cache.keys import game_sha256
    from repro.core.serialize import game_from_json, solve_result_to_json
    from repro.equilibria.solve import solve_game
    from repro.obs import get_registry
    from repro.weighted.game import weighted_lp_equilibrium

    failures = []
    game = game_from_json(
        (FIXTURE_DIR / "tuple_game.json").read_text(encoding="utf-8"))
    weighted_a = game_from_json(
        (FIXTURE_DIR / "weighted_game_a.json").read_text(encoding="utf-8"))
    weighted_b = game_from_json(
        (FIXTURE_DIR / "weighted_game_b.json").read_text(encoding="utf-8"))

    # Weighted identity: weights are part of the content address.
    if game_sha256(weighted_a) == game_sha256(weighted_b):
        failures.append(
            "weighted fixtures differing only in weights share a "
            "fingerprint — the content address is weight-blind again")

    get_registry().reset()
    reference = solve_result_to_json(solve_game(game))
    if _counter("cache.hits.count") or _counter("cache.misses.count"):
        failures.append("cache counters fired while the cache was disabled")

    with tempfile.TemporaryDirectory(prefix="repro-cache-smoke-") as tmp:
        result_cache.enable_cache(tmp)
        try:
            cold = solve_result_to_json(solve_game(game))
            if cold != reference:
                failures.append("cold cached solve is not byte-identical "
                                "to the cache-disabled solve")
            hot = solve_result_to_json(solve_game(game))
            if hot != cold:
                failures.append("cache hit replayed a result that is not "
                                "byte-identical to the cold solve")
            if _counter("cache.hits.count") != 1:
                failures.append(
                    f"expected exactly 1 cache hit after the replay, got "
                    f"{_counter('cache.hits.count')}")

            weighted_lp_equilibrium(weighted_a)
            weighted_lp_equilibrium(weighted_b)
            store = result_cache.get_cache()
            entries = store.stats()["entries"]
            if entries != 3:
                failures.append(
                    f"expected 3 cache entries (1 solve + 2 weighted "
                    f"games), found {entries} — distinct weights must "
                    "yield distinct entries")

            removed = store.gc(max_age_s=0.0)
            if store.stats()["entries"] != 0:
                failures.append(
                    f"gc(max_age_s=0) left {store.stats()['entries']} "
                    f"entries (removed {removed})")
            misses_before = _counter("cache.misses.count")
            after_gc = solve_result_to_json(solve_game(game))
            if _counter("cache.misses.count") != misses_before + 1:
                failures.append("solve after gc did not miss the cache")
            if after_gc != reference:
                failures.append("solve after gc is not byte-identical to "
                                "the reference")
        finally:
            result_cache.disable_cache()
    failures += _served_path(game)
    return failures


def _served_body(endpoint: str, document: str, cache_hit: bool) -> bytes:
    """The exact response body the service must send for ``document``."""
    from repro.serve.schemas import RESPONSE_SCHEMA

    flag = "true" if cache_hit else "false"
    return (f'{{"cache_hit":{flag},"endpoint":"{endpoint}",'
            f'"result":{document},"schema":"{RESPONSE_SCHEMA}"}}'
            ).encode("utf-8")


def _served_path(game) -> list:
    """One cache client: the service answers from the library's entry,
    and both paths demote a bad row to a miss and rewrite it."""
    import repro.cache as result_cache
    from repro.core.serialize import game_to_json, solve_result_to_json
    from repro.equilibria.solve import solve_game
    from repro.serve.routes import prepare
    from repro.solvers.double_oracle import (double_oracle,
                                             double_oracle_result_to_json)
    from repro.solvers.fictitious_play import (
        fictitious_play, fictitious_play_result_to_json)

    failures = []
    body = json.dumps({"game": json.loads(game_to_json(game))}).encode()
    library = {
        "solve": lambda: solve_result_to_json(solve_game(game)),
        "double-oracle": lambda: double_oracle_result_to_json(
            double_oracle(game)),
        "fictitious-play": lambda: fictitious_play_result_to_json(
            fictitious_play(game)),
    }

    def corrupt(payload: str) -> None:
        path = result_cache.get_cache().path
        with sqlite3.connect(str(path)) as conn:
            conn.execute("UPDATE cache_entries SET payload = ?", (payload,))
        conn.close()

    def stored() -> list:
        conn = sqlite3.connect(str(result_cache.get_cache().path))
        try:
            return [row[0] for row in conn.execute(
                "SELECT payload FROM cache_entries")]
        finally:
            conn.close()

    for endpoint, document in library.items():
        with tempfile.TemporaryDirectory(prefix="repro-cache-smoke-") as tmp:
            result_cache.enable_cache(tmp)
            try:
                cold = document()
                prepared = prepare(endpoint, body)
                if not prepared.cache_hit or prepared.body is None:
                    failures.append(f"served /{endpoint} missed the entry "
                                    "the library call stored")
                elif stored() != [cold] or prepared.body != _served_body(
                        endpoint, cold, cache_hit=True):
                    failures.append(f"served /{endpoint} hit's result is "
                                    "not the stored row's bytes")
            finally:
                result_cache.disable_cache()

    with tempfile.TemporaryDirectory(prefix="repro-cache-smoke-") as tmp:
        result_cache.enable_cache(tmp)
        try:
            cold = solve_result_to_json(solve_game(game))

            errors = _counter("cache.errors.count")
            corrupt(cold[:len(cold) // 2])
            if solve_result_to_json(solve_game(game)) != cold:
                failures.append("library solve over a torn row returned "
                                "a different document")
            if _counter("cache.errors.count") != errors + 1 \
                    or stored() != [cold]:
                failures.append("library path did not demote and rewrite "
                                "a torn row")

            errors = _counter("cache.errors.count")
            corrupt(json.dumps({"format": "old-v0"}))
            prepared = prepare("solve", body)
            if prepared.body is not None or prepared.run is None:
                failures.append("served /solve answered a stale-format "
                                "row as a hit")
            elif prepared.run() != _served_body("solve", cold,
                                                cache_hit=False):
                failures.append("served miss over a stale-format row "
                                "returned a different document")
            if _counter("cache.errors.count") != errors + 1 \
                    or stored() != [cold]:
                failures.append("served path did not demote and rewrite "
                                "a stale-format row")
        finally:
            result_cache.disable_cache()
    return failures


def main() -> int:
    if not FIXTURE_DIR.is_dir():
        print(f"FAIL: fixture directory {FIXTURE_DIR} is missing",
              file=sys.stderr)
        return 1
    failures = run_smoke()
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("cache smoke OK: cold/hit byte-identical, weighted identities "
          "distinct, gc returns the store to cold, served hits send the "
          "stored row's bytes, bad rows demoted and rewritten on both paths")
    return 0


if __name__ == "__main__":
    sys.exit(main())
