"""Tests for the differential fuzzing subsystem (repro.fuzz)."""

import json
import random

import pytest

from repro.core.game import GameError, TupleGame
from repro.fuzz.corpus import case_id, iter_corpus, load_case, save_case
from repro.fuzz.generators import (
    FAMILIES,
    LABEL_MODES,
    GameSpec,
    random_spec,
)
from repro.fuzz.invariants import INVARIANTS, Violation, check_game
from repro.fuzz.runner import replay_corpus, run_fuzz
from repro.fuzz.shrink import shrink_spec
from repro.graphs.core import Graph


def _spec(edges, k=1, nu=1, **kwargs):
    return GameSpec(edges, k, nu, **kwargs)


class TestGameSpec:
    def test_to_game_materializes(self):
        spec = _spec([(0, 1), (1, 2)], k=2, nu=3)
        game = spec.to_game()
        assert (game.n, game.m, game.k, game.nu) == (3, 2, 2, 3)

    def test_edges_are_canonically_sorted(self):
        a = _spec([(2, 1), (1, 0)])
        b = _spec([(0, 1), (2, 1)])
        assert a.edges == b.edges
        assert a == b and hash(a) == hash(b)

    def test_payload_round_trip(self):
        spec = _spec(
            [(0, "s1"), ("s1", 2)], k=2, nu=2,
            family="mixed-demo", label_mode="mixed", seed=99,
        )
        restored = GameSpec.from_payload(
            json.loads(json.dumps(spec.to_payload()))
        )
        assert restored == spec
        assert restored.family == "mixed-demo"
        assert restored.label_mode == "mixed"
        assert restored.seed == 99

    def test_from_payload_rejects_wrong_format(self):
        with pytest.raises(GameError, match="format"):
            GameSpec.from_payload({"format": "nope", "edges": []})

    def test_from_payload_rejects_non_pair_edge(self):
        payload = _spec([(0, 1)]).to_payload()
        payload["edges"] = [[0, 1, 2]]
        with pytest.raises(GameError, match="not a pair"):
            GameSpec.from_payload(payload)


class TestRandomSpec:
    def test_deterministic_for_a_seed(self):
        a = random_spec(random.Random(7), seed=7)
        b = random_spec(random.Random(7), seed=7)
        assert a == b and a.family == b.family

    def test_every_sample_is_a_valid_game(self):
        for i in range(40):
            spec = random_spec(random.Random(i), seed=i)
            game = spec.to_game()  # constructor re-validates
            assert 1 <= game.k <= min(3, game.m)
            assert 1 <= game.nu <= 3
            assert game.tuple_strategy_count() <= 500

    def test_covers_families_and_label_modes(self):
        families, modes = set(), set()
        for i in range(60):
            spec = random_spec(random.Random(i), seed=i)
            families.add(spec.family.split(":", 1)[0])
            modes.add(spec.label_mode)
        assert len(families) >= 3
        assert modes == set(LABEL_MODES)
        assert "odd-boundary" in families
        assert any(f.startswith("union") for f in families) or "union" in families

    def test_odd_boundary_sits_on_the_c33_edge(self):
        """The adversarial family must hit n = 2k+1 exactly."""
        seen = False
        for i in range(80):
            spec = random_spec(random.Random(i), seed=i)
            if spec.family == "odd-boundary":
                game = spec.to_game()
                assert game.n == 2 * spec.k + 1 or spec.k < game.n // 2
                seen = True
        assert seen

    def test_registry_families_all_buildable(self):
        for name, builder in FAMILIES.items():
            graph = builder(random.Random(0))
            graph.validate_for_game()


class TestInvariants:
    def test_clean_on_known_good_games(self):
        for game in (
            TupleGame(Graph([(0, 1), (1, 2), (2, 3)]), 2, nu=1),
            TupleGame(
                Graph([(0, "s1"), ("s1", 2), (2, "s3"), ("s3", 0)]), 2, nu=2
            ),
        ):
            assert check_game(game) == []

    def test_unknown_invariant_name_rejected(self):
        game = TupleGame(Graph([(0, 1)]), 1, nu=1)
        with pytest.raises(ValueError, match="unknown invariant"):
            check_game(game, checks=["no-such-check"])

    def test_crashing_check_becomes_violation(self, monkeypatch):
        def boom(game, tol):
            raise RuntimeError("injected")

        monkeypatch.setitem(INVARIANTS, "test-boom", boom)
        game = TupleGame(Graph([(0, 1)]), 1, nu=1)
        violations = check_game(game, checks=["test-boom"])
        assert len(violations) == 1
        assert violations[0].check == "test-boom"
        assert "injected" in violations[0].message

    def test_weighted_invariants_catch_a_skewed_route(self, monkeypatch):
        """Both weighted checks fire when one weighted route is off."""
        import repro.fuzz.invariants as invariants

        game = TupleGame(Graph([(0, 1), (1, 2), (2, 3), (3, 4)]), 2, nu=1)
        checks = ["weighted-value-agreement", "unit-weight-agreement"]
        assert check_game(game, checks=checks) == []

        real_do = invariants.weighted_double_oracle
        real_lp = invariants.weighted_minimax
        monkeypatch.setattr(
            invariants, "weighted_double_oracle",
            lambda g: (real_do(g)[0], real_do(g)[1] + 0.01))
        monkeypatch.setattr(
            invariants, "weighted_minimax",
            lambda g: type(real_lp(g))(real_lp(g).value + 0.01, {}, {}))
        flagged = {v.check for v in check_game(game, checks=checks)}
        assert flagged == set(checks)

    def test_cache_replay_catches_drift_and_miscounted_hits(
            self, monkeypatch):
        import repro.cache as result_cache
        from repro.cache.store import ResultCache

        game = TupleGame(Graph([(0, 1), (1, 2), (2, 3), (3, 4)]), 2, nu=1)
        directory = result_cache.cache_directory()
        assert check_game(game, checks=["cache-replay"]) == []
        assert not result_cache.cache_enabled()
        assert result_cache.cache_directory() == directory

        real_probe = ResultCache.probe

        def drifting(self, fingerprint, solver, params):
            text = real_probe(self, fingerprint, solver, params)
            if text is None or solver != "solvers.double_oracle":
                return text
            payload = json.loads(text)
            payload["iterations"] += 1
            return json.dumps(payload)

        monkeypatch.setattr(ResultCache, "probe", drifting)
        assert [v.message for v in
                check_game(game, checks=["cache-replay"])] == [
            "double_oracle: the replayed result re-serializes to other "
            "bytes than the cold one"]

        # A hit is counted when its row replays, so a miscounted hit is
        # a payload decoded twice.
        real_replay = result_cache.CacheProbe.replay

        def twice(self, decoder):
            real_replay(self, decoder)
            return real_replay(self, decoder)

        monkeypatch.setattr(ResultCache, "probe", real_probe)
        monkeypatch.setattr(result_cache.CacheProbe, "replay", twice)
        assert [v.message.split(":")[0] for v in
                check_game(game, checks=["cache-replay"])] == [
            "solve_game", "double_oracle", "fictitious_play",
            "weighted_lp_equilibrium", "weighted_double_oracle"]

    def test_kernel_reference_catches_bnb_tie_break_and_value_drift(
            self, monkeypatch):
        from repro.core.tuples import all_tuples, tuple_vertices
        from repro.kernels import CoverageOracle

        game = TupleGame(Graph([(i, (i + 1) % 6) for i in range(6)]), 2, nu=1)
        assert check_game(game, checks=["kernel-reference"]) == []

        def last_argmax(self, weights):
            scored = [(t, sum(weights[v] for v in tuple_vertices(t)))
                      for t in all_tuples(self.graph, self.k)]
            best = max(value for _, value in scored)
            return [(t, value) for t, value in scored if value == best][-1]

        # On uniform masses and on this game's c/r counts the argmax is
        # unique; only the small-integer trial ties, so only it sees a
        # tie broken the wrong way.
        monkeypatch.setattr(CoverageOracle, "best", last_argmax)
        messages = [v.message for v in
                    check_game(game, checks=["kernel-reference"])]
        assert messages and all(m.startswith("best returned")
                                and m.endswith("(trial 3)") for m in messages)

        def drifted(self, weights):
            t, value = self.exhaustive(weights)
            return t, value + 1e-13

        monkeypatch.setattr(CoverageOracle, "best", drifted)
        messages = [v.message for v in
                    check_game(game, checks=["kernel-reference"])]
        assert len(messages) == 5
        assert all(m.startswith("best value") for m in messages)

    def test_ranges_consistency_flags_a_malformed_defender_interval(
            self, monkeypatch):
        import repro.fuzz.invariants as invariants

        game = TupleGame(Graph([(i, i + 1) for i in range(4)]), 2, nu=1)
        assert check_game(game, checks=["ranges-consistency"]) == []

        real = invariants.defender_edge_ranges

        def planted(g):
            ranges = real(g)
            ranges.ranges[(0, 1)] = (0.6, 0.4)
            return ranges

        monkeypatch.setattr(invariants, "defender_edge_ranges", planted)
        messages = [v.message for v in
                    check_game(game, checks=["ranges-consistency"])]
        assert "defender: malformed interval [0.6, 0.4] for (0, 1)" \
            in messages
        assert all(m.startswith("defender: ") for m in messages)

    def test_incremental_lp_flags_a_non_optimal_attacker_read(
            self, monkeypatch):
        """A uniform attacker mixture in place of the dual read keeps
        every value right but is not optimal on a path: both loops flag
        it."""
        import importlib

        from repro.solvers.lp import LPSolution

        do = importlib.import_module("repro.solvers.double_oracle")

        game = TupleGame(Graph([(i, i + 1) for i in range(4)]), 2, nu=1)
        assert check_game(game, checks=["incremental-lp"]) == []

        real = do._solve_duel

        def uniform(duel, vertices, strategies):
            solution = real(duel, vertices, strategies)
            return LPSolution(solution.value, solution.defender,
                              {v: 1 / len(vertices) for v in vertices})

        monkeypatch.setattr(do, "_solve_duel", uniform)
        messages = [v.message for v in
                    check_game(game, checks=["incremental-lp"])]
        assert messages
        assert all("against the dual-read attacker mixture" in m
                   for m in messages)
        assert {m.split()[0] for m in messages} == {"plain", "weighted"}

    def test_incremental_lp_flags_a_non_improving_column(self, monkeypatch):
        """A loop whose pricing overrates every tuple by 1 adds columns
        that do not improve on the previous restricted optimum."""
        import importlib

        do = importlib.import_module("repro.solvers.double_oracle")

        game = TupleGame(Graph([(i, (i + 1) % 6) for i in range(6)]), 2, nu=1)
        assert check_game(game, checks=["incremental-lp"]) == []

        real = do.coverage_value
        monkeypatch.setattr(do, "coverage_value",
                            lambda masses, t: real(masses, t) + 1.0)
        messages = [v.message for v in
                    check_game(game, checks=["incremental-lp"])]
        assert messages
        assert all("against the previous restricted optimum, not above "
                   "its value" in m for m in messages)

    def test_certificate_reference_flags_an_lp_certificate_on_two_triangles(
            self, monkeypatch):
        """On two disjoint triangles with k=3 the G+ LP relaxation reads 6
        on unit masses; the certificate must read the integral 5."""
        import repro.solvers.lp as lp

        game = TupleGame(
            Graph([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]), 3, nu=1)
        assert check_game(game, checks=["certificate-reference"]) == []

        monkeypatch.setattr(lp, "is_bipartite", lambda graph: True)
        messages = [v.message for v in
                    check_game(game, checks=["certificate-reference"])]
        assert "G+ certificate reads 6.0, best 5.0 (trial 0)" \
            in messages
        assert "G+ certificate reads 6.0, exhaustive 5.0 (trial 0)" \
            in messages

    def test_violation_payload(self):
        v = Violation("pure-threshold", "msg", theorem="Theorem 3.1")
        assert v.to_payload() == {
            "check": "pure-threshold",
            "theorem": "Theorem 3.1",
            "message": "msg",
        }


class TestShrink:
    def test_reduces_injected_fault_to_minimal_counterexample(self):
        """An injected 'solver fault' that fires whenever the game has at
        least 3 edges must shrink to exactly 3 edges and k = ν = 1."""
        spec = random_spec(random.Random(12345), seed=12345)
        big = GameSpec(spec.edges, spec.k, spec.nu, family="big")
        assert len(big.edges) > 3 or True  # some samples are already tiny

        def fails(candidate):
            return len(candidate.edges) >= 3

        # Use a sample that is actually big enough to exercise ddmin.
        wide = _spec(
            [(i, i + 1) for i in range(12)] + [(0, 5), (2, 9)], k=3, nu=3,
        )
        shrunk = shrink_spec(wide, fails)
        assert len(shrunk.edges) == 3
        assert shrunk.k == 1 and shrunk.nu == 1
        assert fails(shrunk)
        assert shrunk.family.startswith("shrunk:")

    def test_shrinks_structural_fault_to_smallest_star(self):
        """Fault: 'any vertex of degree >= 3' → minimal graph is K_{1,3}."""
        wide = _spec(
            [(0, i) for i in range(1, 7)] + [(1, 2), (3, 4)], k=2, nu=2,
        )

        def fails(candidate):
            graph = Graph(candidate.edges)
            return any(len(graph.neighbors(v)) >= 3 for v in graph.vertices())

        shrunk = shrink_spec(wide, fails)
        assert len(shrunk.edges) == 3
        assert shrunk.k == 1 and shrunk.nu == 1

    def test_input_not_failing_is_returned_unchanged(self):
        spec = _spec([(0, 1), (1, 2)], k=2, nu=2)
        assert shrink_spec(spec, lambda s: False) == spec

    def test_never_produces_an_invalid_game(self):
        wide = _spec([(i, i + 1) for i in range(10)], k=3, nu=2)
        probed = []

        def fails(candidate):
            candidate.to_game()  # raises if the shrinker broke validity
            probed.append(candidate)
            return candidate.k >= 2

        shrunk = shrink_spec(wide, fails)
        assert shrunk.k == 2
        assert len(shrunk.edges) == 2  # k=2 needs only two edges
        assert probed  # the predicate really ran


class TestCorpus:
    def test_save_load_round_trip(self, tmp_path):
        spec = _spec([(0, "s1"), ("s1", 2)], k=1, nu=2, family="demo")
        path = save_case(tmp_path, spec, [Violation("value-agreement", "x")])
        assert load_case(path) == spec
        payload = json.loads(path.read_text())
        assert payload["violations"][0]["check"] == "value-agreement"

    def test_content_addressing_is_idempotent(self, tmp_path):
        spec = _spec([(0, 1), (1, 2)], k=1, nu=1)
        p1 = save_case(tmp_path, spec)
        p2 = save_case(tmp_path, spec)
        assert p1 == p2
        assert len(list(tmp_path.glob("case-*.json"))) == 1

    def test_case_id_ignores_provenance(self):
        a = _spec([(0, 1)], family="x", label_mode="int", seed=1)
        b = _spec([(0, 1)], family="y", label_mode="str", seed=2)
        assert case_id(a) == case_id(b)

    def test_iter_corpus_missing_directory_is_empty(self, tmp_path):
        assert list(iter_corpus(tmp_path / "nope")) == []

    def test_load_case_rejects_corrupt_file(self, tmp_path):
        path = tmp_path / "case-bad.json"
        path.write_text("{not json")
        with pytest.raises(GameError, match="corrupt"):
            load_case(path)

    def test_committed_corpus_replays_green(self):
        """The persisted counterexamples must stay fixed forever."""
        report = replay_corpus("tests/corpus")
        assert report.games >= 3
        assert report.ok, report.summary()


class TestRunner:
    def test_batch_is_deterministic(self):
        a = run_fuzz(count=4, seed=11)
        b = run_fuzz(count=4, seed=11)
        assert [r.spec for r in a.results] == [r.spec for r in b.results]
        assert a.ok and b.ok

    def test_report_families_histogram(self):
        report = run_fuzz(count=6, seed=2)
        assert sum(report.families().values()) == 6

    def test_injected_fault_is_shrunk_and_persisted(self, tmp_path, monkeypatch):
        """End to end: a buggy 'solver' divergence is found, delta-debugged
        and lands in the corpus as a minimal replayable case."""

        def buggy(game, tol):
            if game.m >= 3:
                return [Violation("test-fault", f"m={game.m} >= 3")]
            return []

        monkeypatch.setitem(INVARIANTS, "test-fault", buggy)
        report = run_fuzz(
            count=6, seed=0, corpus_dir=str(tmp_path), checks=["test-fault"],
        )
        assert not report.ok
        failing = report.failures[0]
        assert failing.shrunk is not None
        assert len(failing.shrunk.edges) == 3
        assert failing.shrunk.k == 1 and failing.shrunk.nu == 1
        saved = list(iter_corpus(tmp_path))
        assert saved
        _, spec = saved[0]
        assert len(spec.edges) == 3

    def test_replay_flags_regressions(self, tmp_path, monkeypatch):
        spec = _spec([(0, 1), (1, 2), (2, 3)], k=1, nu=1)
        save_case(tmp_path, spec)

        def buggy(game, tol):
            return [Violation("test-fault", "still broken")]

        monkeypatch.setitem(INVARIANTS, "test-fault", buggy)
        report = replay_corpus(str(tmp_path), checks=["test-fault"])
        assert not report.ok
        assert "test-fault" in report.summary()


class TestCli:
    def test_fuzz_subcommand_green(self, capsys):
        from repro.cli import main

        assert main(["fuzz", "--count", "3", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "3 games, 0 failing" in out

    def test_list_invariants(self, capsys):
        from repro.cli import main

        assert main(["fuzz", "--list-invariants"]) == 0
        out = capsys.readouterr().out
        for name in INVARIANTS:
            assert name in out

    def test_replay_requires_corpus(self, capsys):
        from repro.cli import main

        assert main(["fuzz", "--count", "0", "--replay"]) == 2

    def test_module_entry_point(self, capsys):
        from repro.fuzz.__main__ import main as fuzz_main

        assert fuzz_main(["--count", "2", "--seed", "3"]) == 0

    def test_metrics_flow(self):
        from repro.obs import metrics

        before = metrics.counter("fuzz.games.count").value
        run_fuzz(count=2, seed=1)
        assert metrics.counter("fuzz.games.count").value == before + 2
