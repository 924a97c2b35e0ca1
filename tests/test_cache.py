"""Tests for the content-addressed solve-result cache (repro.cache)."""

from __future__ import annotations

import json
import sqlite3
import time

import pytest

import repro.cache as result_cache
import repro.equilibria.solve as solve_module
from repro.cache.keys import cache_key, game_sha256, params_json
from repro.cache.migrations import (
    MIGRATIONS,
    SCHEMA_VERSION,
    CacheSchemaError,
    apply_migrations,
)
from repro.cache.store import SIZE_SQL, ResultCache
from repro.core.game import TupleGame
from repro.core.serialize import configuration_to_json, solve_result_to_json
from repro.equilibria.solve import solve_game
from repro.graphs.generators import complete_bipartite_graph, grid_graph
from repro.obs import ledger as obs_ledger
from repro.obs import metrics
from repro.solvers.double_oracle import double_oracle
from repro.solvers.fictitious_play import fictitious_play
from repro.weighted.game import (
    WeightedTupleGame,
    weighted_double_oracle,
    weighted_lp_equilibrium,
)


@pytest.fixture(autouse=True)
def _cache_off():
    """Every test starts and ends with the cache disabled and clean metrics."""
    result_cache.disable_cache()
    metrics.get_registry().reset()
    yield
    result_cache.disable_cache()
    metrics.get_registry().reset()


@pytest.fixture
def game():
    return TupleGame(complete_bipartite_graph(2, 4), k=2, nu=3)


def _counter(name):
    return metrics.get_registry().snapshot()["counters"].get(name, 0)


# --------------------------------------------------------------------------
# key derivation


class TestKeys:
    def test_fingerprint_matches_ledger(self, game):
        assert game_sha256(game) == obs_ledger.fingerprint_game(game)["sha256"]

    def test_distinct_weights_distinct_fingerprints(self):
        graph = complete_bipartite_graph(2, 3)
        base = {v: 1.0 for v in graph.vertices()}
        other = dict(base)
        other[graph.sorted_vertices()[0]] = 2.0
        a = WeightedTupleGame(graph, 2, base)
        b = WeightedTupleGame(graph, 2, other)
        assert game_sha256(a) != game_sha256(b)

    def test_params_json_is_canonical(self):
        assert params_json({"b": 1, "a": 2}) == params_json({"a": 2, "b": 1})

    def test_key_separates_every_component(self):
        base = cache_key("f", "s", params_json({"x": 1}))
        assert cache_key("g", "s", params_json({"x": 1})) != base
        assert cache_key("f", "t", params_json({"x": 1})) != base
        assert cache_key("f", "s", params_json({"x": 2})) != base

    def test_key_resists_concatenation_ambiguity(self):
        # Without length prefixes these two triples would hash the
        # same byte stream.
        assert cache_key("ab", "c", "{}") != cache_key("a", "bc", "{}")


# --------------------------------------------------------------------------
# migrations


class TestMigrations:
    def test_fresh_store_reaches_current_schema(self, tmp_path):
        store = ResultCache(tmp_path / "c.sqlite3")
        try:
            assert store.stats()["schema_version"] == SCHEMA_VERSION
        finally:
            store.close()

    def test_migrations_are_idempotent(self, tmp_path):
        conn = sqlite3.connect(str(tmp_path / "c.sqlite3"))
        try:
            assert apply_migrations(conn) == [v for v, _ in MIGRATIONS]
            assert apply_migrations(conn) == []
        finally:
            conn.close()

    def test_v1_store_migrates_in_place(self, tmp_path):
        path = tmp_path / "c.sqlite3"
        conn = sqlite3.connect(str(path))
        with conn:
            for statement in MIGRATIONS[0][1]:
                conn.execute(statement)
            conn.execute("PRAGMA user_version = 1")
            conn.execute(
                "INSERT INTO cache_entries (key, fingerprint, solver, "
                "params, payload, size_bytes, created_at, last_access) "
                "VALUES ('k', 'f', 's', '{}', 'p', 1, 0, 0)"
            )
        conn.close()
        store = ResultCache(path)
        try:
            # The v1 row survives and picks up the v2 hits column.
            assert store.stats()["schema_version"] == SCHEMA_VERSION
            assert store.stats()["entries"] == 1
            assert store.entries()[0]["hits"] == 0
        finally:
            store.close()

    def test_v2_store_migrates_to_v3_in_place(self, tmp_path):
        path = tmp_path / "c.sqlite3"
        conn = sqlite3.connect(str(path))
        with conn:
            for _, statements in MIGRATIONS[:2]:
                for statement in statements:
                    conn.execute(statement)
            conn.execute("PRAGMA user_version = 2")
            conn.executemany(
                "INSERT INTO cache_entries (key, fingerprint, solver, "
                "params, payload, size_bytes, created_at, last_access, "
                "hits) VALUES (?, 'f', 's', '{}', ?, 3, 0, ?, ?)",
                [("k1", "p-1", 1.0, 4), ("k2", "p-2", 2.0, 0)],
            )
        conn.close()
        store = ResultCache(path)
        try:
            assert store.stats()["schema_version"] == 3
            assert [(e["key"], e["hits"], e["last_access"])
                    for e in store.entries()] \
                == [("k2", 0, 2.0), ("k1", 4, 1.0)]
            assert store._conn.execute(
                "SELECT payload FROM cache_entries WHERE key = 'k1'"
            ).fetchone() == ("p-1",)
            indexes = {name for (name,) in store._conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'index' "
                "AND tbl_name = 'cache_entries' AND sql IS NOT NULL")}
            assert indexes == {"idx_cache_entries_lru",
                               "idx_cache_entries_solver"}
        finally:
            store.close()

    def test_size_query_reads_the_covering_index(self, tmp_path):
        # Summing size_bytes from the table would walk every payload's
        # overflow pages; the LRU index must answer it alone.
        store = ResultCache(tmp_path / "c.sqlite3")
        try:
            store.store("f", "s", {}, "x" * 9500)
            plan = " ".join(row[-1] for row in store._conn.execute(
                "EXPLAIN QUERY PLAN " + SIZE_SQL))
            assert "COVERING INDEX idx_cache_entries_lru" in plan
        finally:
            store.close()

    def test_newer_store_is_refused(self, tmp_path):
        path = tmp_path / "c.sqlite3"
        conn = sqlite3.connect(str(path))
        with conn:
            conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 1}")
        conn.close()
        with pytest.raises(CacheSchemaError):
            ResultCache(path)


# --------------------------------------------------------------------------
# store CRUD + eviction


class TestStore:
    def test_probe_miss_then_hit(self, tmp_path):
        store = ResultCache(tmp_path / "c.sqlite3")
        try:
            assert store.probe("f", "s", {"x": 1}) is None
            store.store("f", "s", {"x": 1}, "payload")
            assert store.probe("f", "s", {"x": 1}) == "payload"
            assert _counter("cache.misses.count") == 1
            # A found row is counted by its reader once it checks out
            # (CacheProbe.replay), not by the store.
            assert _counter("cache.hits.count") == 0
            assert store.entries()[0]["hits"] == 1
        finally:
            store.close()

    def test_store_refresh_overwrites(self, tmp_path):
        store = ResultCache(tmp_path / "c.sqlite3")
        try:
            store.store("f", "s", {}, "old")
            store.store("f", "s", {}, "newer")
            assert store.probe("f", "s", {}) == "newer"
            assert store.stats()["entries"] == 1
        finally:
            store.close()

    def test_lru_eviction_by_entry_count(self, tmp_path):
        store = ResultCache(tmp_path / "c.sqlite3", max_entries=2)
        try:
            store.store("a", "s", {}, "pa")
            time.sleep(0.002)
            store.store("b", "s", {}, "pb")
            time.sleep(0.002)
            store.probe("a", "s", {})  # bump a's LRU clock past b's
            time.sleep(0.002)
            store.store("c", "s", {}, "pc")
            assert store.probe("b", "s", {}) is None  # b was the LRU
            assert store.probe("a", "s", {}) == "pa"
            assert store.probe("c", "s", {}) == "pc"
            assert _counter("cache.evictions.count") == 1
        finally:
            store.close()

    def test_hit_writes_nothing(self, tmp_path):
        path = tmp_path / "c.sqlite3"
        store = ResultCache(path)
        other = sqlite3.connect(str(path))
        try:
            store.store("f", "s", {}, "payload")
            before = other.execute("PRAGMA data_version").fetchone()
            assert store.probe("f", "s", {}) == "payload"
            assert other.execute("PRAGMA data_version").fetchone() == before
        finally:
            other.close()
            store.close()

    def test_gc_by_age_sees_pending_hits(self, tmp_path):
        store = ResultCache(tmp_path / "c.sqlite3")
        try:
            store.store("a", "s", {}, "pa")
            store.store("b", "s", {}, "pb")
            time.sleep(0.2)
            assert store.probe("a", "s", {}) == "pa"
            assert store.gc(max_age_s=0.1) == 1
            assert [e["key"] for e in store.entries()] \
                == [cache_key("a", "s", params_json({}))]
        finally:
            store.close()

    def test_hit_tallies_reach_stats_entries_and_the_file(self, tmp_path):
        path = tmp_path / "c.sqlite3"
        store = ResultCache(path)
        store.store("f", "s", {}, "payload")
        for _ in range(3):
            assert store.probe("f", "s", {}) == "payload"
        assert store.stats()["solvers"]["s"]["hits"] == 3
        assert store.probe("f", "s", {}) == "payload"
        assert store.entries()[0]["hits"] == 4
        assert store.probe("f", "s", {}) == "payload"
        store.close()
        reopened = ResultCache(path)
        try:
            assert reopened.entries()[0]["hits"] == 5
        finally:
            reopened.close()

    @pytest.mark.parametrize("write", ["gc", "store"])
    def test_eviction_commits_once(self, tmp_path, write):
        store = ResultCache(tmp_path / "c.sqlite3")
        try:
            for i in range(50):
                store.store(f"f{i:02d}", "s", {}, "p")
            store.probe("f00", "s", {})  # f00 becomes the most recent
            store.max_entries = 10
            statements = []
            store._conn.set_trace_callback(statements.append)
            if write == "gc":
                assert store.gc() == 40
            else:
                store.store("new", "s", {}, "p")
            store._conn.set_trace_callback(None)
            assert statements.count("COMMIT") == 1
            kept = {e["key"] for e in store.entries()}
            assert cache_key("f00", "s", params_json({})) in kept
            assert len(kept) == 10
            assert _counter("cache.evictions.count") == 40 + (write == "store")
        finally:
            store.close()

    def test_lru_ties_break_by_key(self, tmp_path):
        store = ResultCache(tmp_path / "c.sqlite3")
        try:
            keys = [store.store(f"f{i}", "s", {}, "p") for i in range(20)]
            with store._conn:
                store._conn.execute("UPDATE cache_entries SET last_access = 1")
            store.max_entries = 5
            assert store.gc() == 15
            assert sorted(e["key"] for e in store.entries()) \
                == sorted(keys)[-5:]
        finally:
            store.close()

    def test_eviction_by_size(self, tmp_path):
        store = ResultCache(tmp_path / "c.sqlite3", max_bytes=100)
        try:
            store.store("a", "s", {}, "x" * 80)
            time.sleep(0.002)
            store.store("b", "s", {}, "y" * 80)
            stats = store.stats()
            assert stats["entries"] == 1
            assert stats["bytes"] <= 100
            assert store.probe("b", "s", {}) == "y" * 80
        finally:
            store.close()

    def test_gc_by_age_and_solver(self, tmp_path):
        store = ResultCache(tmp_path / "c.sqlite3")
        try:
            store.store("a", "alpha", {}, "pa")
            store.store("b", "beta", {}, "pb")
            assert store.gc(max_age_s=0.0, solver="alpha") == 1
            assert store.probe("b", "beta", {}) == "pb"
            assert store.gc(max_age_s=0.0) == 1
            assert store.stats()["entries"] == 0
        finally:
            store.close()

    def test_stats_per_solver_breakdown(self, tmp_path):
        store = ResultCache(tmp_path / "c.sqlite3")
        try:
            store.store("a", "alpha", {}, "pa")
            store.store("b", "alpha", {"q": 1}, "pb")
            store.store("c", "beta", {}, "pc")
            solvers = store.stats()["solvers"]
            assert solvers["alpha"]["entries"] == 2
            assert solvers["beta"]["entries"] == 1
        finally:
            store.close()

    def test_entries_filters_by_prefix_and_solver(self, tmp_path):
        store = ResultCache(tmp_path / "c.sqlite3")
        try:
            key = store.store("a", "alpha", {}, "pa")
            store.store("b", "beta", {}, "pb")
            assert [e["key"] for e in store.entries(key_prefix=key[:12])] \
                == [key]
            assert [e["solver"] for e in store.entries(solver="beta")] \
                == ["beta"]
        finally:
            store.close()


# --------------------------------------------------------------------------
# the process-global facade


class TestFacade:
    def test_disabled_lookup_is_shared_noop(self, game):
        probe = result_cache.lookup(game, "equilibria.solve", {})
        assert probe is result_cache.lookup(game, "equilibria.solve", {})
        assert not probe.hit
        probe.store("ignored")  # must not create any store
        assert _counter("cache.stores.count") == 0
        assert _counter("cache.misses.count") == 0

    def test_enable_disable_roundtrip(self, tmp_path):
        assert not result_cache.cache_enabled()
        result_cache.enable_cache(tmp_path)
        assert result_cache.cache_enabled()
        assert result_cache.cache_directory() == tmp_path
        result_cache.disable_cache()
        assert not result_cache.cache_enabled()

    def test_env_opt_in(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        state = result_cache._CacheState()
        assert state.enabled
        assert state.directory == tmp_path

    def test_env_off_values(self, monkeypatch):
        for value in ("", "0", "false", "no"):
            monkeypatch.setenv("REPRO_CACHE", value)
            assert not result_cache._CacheState().enabled

    def test_replay_demotes_bad_payload_to_miss(self, tmp_path, game):
        result_cache.enable_cache(tmp_path)
        solve_game(game)
        store = result_cache.get_cache()
        with store._lock:
            with store._conn:
                store._conn.execute(
                    "UPDATE cache_entries SET payload = 'not json'")
        probe = result_cache.lookup(
            game, "equilibria.solve",
            {"seed": 0, "allow_extensions": True})
        assert probe.hit
        assert probe.replay(lambda text: (_ for _ in ()).throw(
            ValueError("boom"))) is None
        assert not probe.hit
        assert _counter("cache.errors.count") == 1
        assert _counter("cache.hits.count") == 0

    def test_cached_solve_computes_once_and_records_runs(self, tmp_path,
                                                         game):
        calls = []

        def compute(_game, p):
            calls.append(p)
            return 42

        call = result_cache.CachedCall(
            "test.solver", compute,
            lambda result: json.dumps({"format": "test.v1", "value": result}),
            lambda payload: payload["value"], "test.v1",
            scope=lambda _game, _params: [
                metrics.timer("test.solver.seconds")],
        )

        def solve():
            return call(game, p=1)

        obs_ledger.enable_ledger(tmp_path / "ledger")
        result_cache.enable_cache(tmp_path / "cache")
        try:
            assert solve() == 42
            assert solve() == 42
        finally:
            obs_ledger.disable_ledger()
        assert len(calls) == 1
        runs = obs_ledger.read_runs(directory=tmp_path / "ledger",
                                    entry_point="test.solver")
        assert [r["attributes"] for r in runs] == [
            {"p": 1, "cache_hit": False}, {"p": 1, "cache_hit": True},
        ]
        timer = metrics.get_registry().snapshot()["histograms"][
            "test.solver.seconds"]
        assert timer["count"] == 2  # the scope wraps hits and misses

    def test_result_is_encoded_only_when_stored(self, tmp_path, game,
                                                monkeypatch):
        encodes = []

        def counting_encoder(result):
            encodes.append(1)
            return solve_result_to_json(result)

        monkeypatch.setattr(solve_module, "solve_result_to_json",
                            counting_encoder)
        solve_game(game)
        assert encodes == []  # cache off: nothing to store, no encode
        result_cache.enable_cache(tmp_path)
        solve_game(game)
        assert encodes == [1]  # cold: one encode, stored
        solve_game(game)
        assert encodes == [1]  # hit: replayed, not re-encoded


# --------------------------------------------------------------------------
# solver integration: byte-identical replay


class TestSolverReplay:
    def test_solve_game_replays_byte_identically(self, tmp_path, game):
        reference = solve_result_to_json(solve_game(game))
        result_cache.enable_cache(tmp_path)
        cold = solve_result_to_json(solve_game(game))
        hot = solve_result_to_json(solve_game(game))
        assert cold == reference  # enabled-cold == disabled
        assert hot == cold
        assert _counter("cache.hits.count") == 1

    def test_v1_row_is_demoted_and_rewritten_as_v2(self, tmp_path, game):
        """A row an older library stored (indented, tagged v1) is a stale
        format: demoted to a miss and rewritten in the v2 bytes, so the
        next hit replays exactly what a fresh solve writes."""
        result_cache.enable_cache(tmp_path)
        current = solve_result_to_json(solve_game(game))
        v1 = json.dumps(
            {**json.loads(current), "format": "repro.mixed-configuration.v1"},
            indent=2, sort_keys=True)
        store = result_cache.get_cache()

        def rows():
            with store._lock:
                return [row[0] for row in store._conn.execute(
                    "SELECT payload FROM cache_entries")]

        with store._lock, store._conn:
            store._conn.execute("UPDATE cache_entries SET payload = ?", (v1,))
        assert solve_result_to_json(solve_game(game)) == current
        assert _counter("cache.errors.count") == 1
        assert rows() == [current]
        assert solve_result_to_json(solve_game(game)) == current
        # Cold solve, demoted v1 row, real hit: the demoted row is a miss.
        assert _counter("cache.hits.count") == 1
        assert _counter("cache.misses.count") == 2
        assert _counter("cache.errors.count") == 1

    def test_double_oracle_replays_equal_result(self, tmp_path):
        game = TupleGame(grid_graph(2, 3), k=2, nu=1)
        cold = double_oracle(game)
        result_cache.enable_cache(tmp_path)
        double_oracle(game)
        hot = double_oracle(game)
        assert _counter("cache.hits.count") == 1
        assert hot.value == cold.value
        assert hot.solution.defender == cold.solution.defender
        assert hot.solution.attacker == cold.solution.attacker
        assert hot.iterations == cold.iterations
        assert hot.gap_history == cold.gap_history
        assert hot.exact == cold.exact

    def test_fictitious_play_replays_equal_result(self, tmp_path):
        game = TupleGame(grid_graph(2, 3), k=2, nu=1)
        cold = fictitious_play(game, rounds=20)
        result_cache.enable_cache(tmp_path)
        fictitious_play(game, rounds=20)
        hot = fictitious_play(game, rounds=20)
        assert _counter("cache.hits.count") == 1
        assert hot.rounds == cold.rounds
        assert hot.lower_bound == cold.lower_bound
        assert hot.upper_bound == cold.upper_bound
        assert hot.history == cold.history

    def test_param_change_is_a_different_entry(self, tmp_path, game):
        result_cache.enable_cache(tmp_path)
        solve_game(game, seed=0)
        solve_game(game, seed=1)
        assert _counter("cache.hits.count") == 0
        assert result_cache.get_cache().stats()["entries"] == 2

    def test_weighted_games_never_share_entries(self, tmp_path):
        graph = complete_bipartite_graph(2, 3)
        base = {v: 1.0 for v in graph.vertices()}
        other = dict(base)
        other[graph.sorted_vertices()[0]] = 2.0
        a = WeightedTupleGame(graph, 2, base)
        b = WeightedTupleGame(graph, 2, other)
        result_cache.enable_cache(tmp_path)
        _, sol_a = weighted_lp_equilibrium(a)
        _, sol_b = weighted_lp_equilibrium(b)
        assert _counter("cache.hits.count") == 0
        assert result_cache.get_cache().stats()["entries"] == 2
        # Replays restore each game's own value, not the other's.
        _, sol_a2 = weighted_lp_equilibrium(a)
        _, sol_b2 = weighted_lp_equilibrium(b)
        assert _counter("cache.hits.count") == 2
        assert sol_a2.value == sol_a.value
        assert sol_b2.value == sol_b.value
        # The two games' solutions are genuinely different objects
        # (different supports), so a shared entry would have been caught.
        assert sol_a.defender != sol_b.defender

    def test_weighted_double_oracle_replays(self, tmp_path):
        graph = complete_bipartite_graph(2, 3)
        game = WeightedTupleGame(
            graph, 2, {v: 1.5 for v in graph.vertices()})
        cold_config, cold_value = weighted_double_oracle(game)
        result_cache.enable_cache(tmp_path)
        weighted_double_oracle(game)
        hot_config, hot_value = weighted_double_oracle(game)
        assert _counter("cache.hits.count") == 1
        assert hot_value == cold_value
        assert configuration_to_json(hot_config) \
            == configuration_to_json(cold_config)

    def test_cache_hit_stamped_in_ledger(self, tmp_path, game):
        obs_ledger.enable_ledger(tmp_path / "ledger")
        result_cache.enable_cache(tmp_path / "cache")
        try:
            solve_game(game)
            solve_game(game)
        finally:
            obs_ledger.disable_ledger()
        runs = obs_ledger.read_runs(directory=tmp_path / "ledger",
                                    entry_point="equilibria.solve")
        stamps = sorted(r["attributes"]["cache_hit"] for r in runs)
        assert stamps == [False, True]
