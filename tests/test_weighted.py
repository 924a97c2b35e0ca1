"""Tests for the weighted-assets extension (repro.weighted)."""

import pytest

from repro.core.configuration import PureConfiguration
from repro.core.game import GameError, TupleGame
from repro.equilibria.solve import solve_game
from repro.graphs.generators import (
    complete_bipartite_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    star_graph,
)
from repro.matching.covers import minimum_edge_cover_size
from repro.solvers.lp import solve_minimax
from repro.weighted import (
    WeightedTupleGame,
    weighted_lp_equilibrium,
    weighted_minimax,
)


def uniform_weights(graph, value=1.0):
    return {v: value for v in graph.vertices()}


class TestConstruction:
    def test_valid(self):
        g = path_graph(4)
        game = WeightedTupleGame(g, 2, uniform_weights(g), nu=3)
        assert game.total_weight() == pytest.approx(4.0)
        assert game.nu == 3

    def test_rejects_missing_weight(self):
        g = path_graph(4)
        with pytest.raises(GameError, match="no weight"):
            WeightedTupleGame(g, 1, {0: 1.0, 1: 1.0, 2: 1.0})

    def test_rejects_nonpositive_weight(self):
        g = path_graph(3)
        with pytest.raises(GameError, match="positive"):
            WeightedTupleGame(g, 1, {0: 1.0, 1: 0.0, 2: 1.0})

    def test_rejects_extra_weight(self):
        g = path_graph(3)
        weights = uniform_weights(g)
        weights[99] = 2.0
        with pytest.raises(GameError, match="non-vertices"):
            WeightedTupleGame(g, 1, weights)


class TestPureProfits:
    def test_weighted_catch_value(self):
        g = path_graph(4)
        game = WeightedTupleGame(g, 2, {0: 5.0, 1: 1.0, 2: 1.0, 3: 7.0}, nu=2)
        config = PureConfiguration(game.base, [0, 3], [(0, 1), (2, 3)])
        assert game.pure_profit_defender(config) == pytest.approx(12.0)
        assert game.pure_profit_attacker(config, 0) == 0.0

    def test_escape_earns_weight(self):
        g = path_graph(4)
        game = WeightedTupleGame(g, 1, {0: 5.0, 1: 1.0, 2: 1.0, 3: 7.0}, nu=1)
        config = PureConfiguration(game.base, [3], [(0, 1)])
        assert game.pure_profit_attacker(config, 0) == pytest.approx(7.0)
        assert game.pure_profit_defender(config) == 0.0


class TestUnitWeightsReduceToBaseModel:
    @pytest.mark.parametrize(
        "graph, k",
        [(path_graph(5), 2), (complete_bipartite_graph(2, 4), 2),
         (cycle_graph(6), 1)],
        ids=["path5", "k24", "cycle6"],
    )
    def test_escape_value_is_one_minus_base_value(self, graph, k):
        game = WeightedTupleGame(graph, k, uniform_weights(graph), nu=1)
        weighted = weighted_minimax(game)
        base_value = solve_minimax(TupleGame(graph, k, nu=1)).value
        assert weighted.value == pytest.approx(1.0 - base_value, abs=1e-7)

    def test_scaling_weights_scales_value(self):
        graph = grid_graph(2, 3)
        base = weighted_minimax(
            WeightedTupleGame(graph, 2, uniform_weights(graph), nu=1)
        )
        scaled = weighted_minimax(
            WeightedTupleGame(graph, 2, uniform_weights(graph, 3.0), nu=1)
        )
        assert scaled.value == pytest.approx(3.0 * base.value, abs=1e-7)


class TestWeightedEquilibria:
    def test_lp_profile_is_nash(self):
        graph = complete_bipartite_graph(2, 3)
        weights = {0: 1.0, 1: 1.0, 2: 4.0, 3: 1.0, 4: 1.0}
        game = WeightedTupleGame(graph, 1, weights, nu=2)
        config, solution = weighted_lp_equilibrium(game)
        ok, gaps = game.verify_best_responses(config, tol=1e-6)
        assert ok, gaps

    def test_heavy_vertex_gets_scanned_harder(self):
        """On a star with one heavy leaf, every equilibrium scans the
        heavy leaf's edge with higher probability than the light ones."""
        graph = star_graph(3)
        weights = {0: 1.0, 1: 10.0, 2: 1.0, 3: 1.0}
        game = WeightedTupleGame(graph, 1, weights, nu=1)
        config, solution = weighted_lp_equilibrium(game)
        from repro.core.profits import hit_probability

        assert hit_probability(config, 1) > hit_probability(config, 2) + 0.1

    def test_equalized_escape_profit_on_attacker_support(self):
        """At equilibrium, w(v)(1 − hit(v)) is constant on the attacker's
        support — the weighted analogue of Theorem 3.4's condition 2(a)."""
        graph = path_graph(5)
        weights = {0: 2.0, 1: 1.0, 2: 3.0, 3: 1.0, 4: 2.0}
        game = WeightedTupleGame(graph, 2, weights, nu=1)
        config, solution = weighted_lp_equilibrium(game)
        from repro.core.profits import hit_probability

        profits = {
            round(weights[v] * (1 - hit_probability(config, v)), 6)
            for v in config.vp_support_union()
        }
        assert len(profits) == 1
        assert profits.pop() == pytest.approx(solution.value, abs=1e-6)

    def test_uniform_kmatching_profile_fails_under_weights(self):
        """The paper's uniform construction stops being an NE once
        weights differ — the motivation for the weighted LP."""
        graph = complete_bipartite_graph(2, 4)
        result = solve_game(TupleGame(graph, 2, nu=1))
        weights = uniform_weights(graph)
        weights[2] = 9.0  # one workstation becomes a crown jewel
        game = WeightedTupleGame(graph, 2, weights, nu=1)
        ok, gaps = game.verify_best_responses(result.mixed, tol=1e-9)
        assert not ok
        assert gaps["vp_0"] > 0.5

    def test_defender_gain_bounded_by_total_weight(self):
        graph = grid_graph(2, 3)
        weights = {v: 1.0 + (hash(v) % 3) for v in graph.vertices()}
        game = WeightedTupleGame(graph, 2, weights, nu=2)
        config, _ = weighted_lp_equilibrium(game)
        assert 0 < game.expected_profit_defender(config) <= game.total_weight() * 2

    def test_tuple_limit_guard(self):
        """C(30, 10) = 30,045,015 tuples exceed the 200,000 LP limit."""
        graph = complete_bipartite_graph(5, 6)
        game = WeightedTupleGame(graph, 10, uniform_weights(graph))
        with pytest.raises(GameError, match="LP limit of 200000"):
            weighted_minimax(game)


class TestWeightedDoubleOracle:
    @pytest.mark.parametrize(
        "graph, k, heavy_weight",
        [
            (complete_bipartite_graph(2, 4), 2, 1.0),
            (complete_bipartite_graph(2, 4), 2, 6.0),
            (path_graph(6), 2, 3.0),
            (grid_graph(2, 3), 2, 2.5),
        ],
        ids=["k24-unit", "k24-heavy", "path6", "grid23"],
    )
    def test_matches_full_weighted_lp(self, graph, k, heavy_weight):
        from repro.weighted import weighted_double_oracle

        weights = uniform_weights(graph)
        weights[graph.sorted_vertices()[1]] = heavy_weight
        game = WeightedTupleGame(graph, k, weights, nu=1)
        full = weighted_minimax(game).value
        config, value = weighted_double_oracle(game)
        assert value == pytest.approx(full, abs=1e-7)
        ok, gaps = game.verify_best_responses(config, tol=1e-6)
        assert ok, gaps

    def test_beyond_enumeration_limit(self):
        from repro.graphs.generators import random_bipartite_graph
        from repro.weighted import weighted_double_oracle

        graph = random_bipartite_graph(12, 20, 0.15, seed=3)
        weights = {v: 1.0 + (v % 4) for v in graph.vertices()}
        game = WeightedTupleGame(graph, 4, weights, nu=2)
        config, value = weighted_double_oracle(game)
        ok, gaps = game.verify_best_responses(config, tol=1e-6)
        assert ok, gaps
        assert value > 0

    def test_deterministic(self):
        from repro.weighted import weighted_double_oracle

        graph = grid_graph(2, 3)
        weights = uniform_weights(graph)
        weights[0] = 4.0
        game = WeightedTupleGame(graph, 2, weights, nu=1)
        a_config, a_value = weighted_double_oracle(game)
        b_config, b_value = weighted_double_oracle(game)
        assert a_value == b_value
        assert a_config.tp_distribution() == b_config.tp_distribution()


class TestSharedMatrixGameCore:
    """The weighted solvers run on the plain solvers' duel and loop."""

    def test_weighted_double_oracle_runs_the_certified_loop(self):
        from repro.obs import metrics
        from repro.weighted import weighted_double_oracle

        graph = path_graph(6)
        weights = uniform_weights(graph)
        weights[2] = 4.0
        game = WeightedTupleGame(graph, 2, weights, nu=1)

        def counter(name):
            return metrics.get_registry().snapshot()["counters"].get(name, 0)

        runs = counter("double_oracle.runs.count")
        weighted_double_oracle(game)
        assert counter("double_oracle.runs.count") == runs + 1

    def test_failed_certificate_raises(self, monkeypatch):
        import repro.weighted.game as weighted_game
        from repro.weighted import weighted_double_oracle

        real_loop = weighted_game._double_oracle_loop

        def stalled_loop(*args, **kwargs):
            result = real_loop(*args, **kwargs)
            result.exact = False
            return result

        monkeypatch.setattr(weighted_game, "_double_oracle_loop", stalled_loop)
        graph = path_graph(5)
        game = WeightedTupleGame(graph, 2, uniform_weights(graph), nu=1)
        with pytest.raises(GameError, match="certified gap"):
            weighted_double_oracle(game)

    def test_zero_escape_is_positive_zero(self):
        """With k ≥ ρ(G) the defender covers every host: no escape, and the
        negated duel value must not surface as ``-0.0``."""
        import math

        from repro.weighted import weighted_double_oracle

        graph = path_graph(4)
        weights = {0: 2.0, 1: 1.0, 2: 1.0, 3: 3.0}
        game = WeightedTupleGame(graph, minimum_edge_cover_size(graph),
                                 weights, nu=1)
        _, do_value = weighted_double_oracle(game)
        lp_value = weighted_minimax(game).value
        for value in (do_value, lp_value):
            assert value == pytest.approx(0.0, abs=1e-9)
            if value == 0:
                assert math.copysign(1.0, value) == 1.0
