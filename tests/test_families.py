"""Tests for the extension equilibrium families
(repro.equilibria.families) — beyond the paper, each verified against the
Theorem 3.4 machinery and the exact LP."""

import pytest

from repro.core.characterization import check_characterization, is_mixed_nash
from repro.core.game import GameError, TupleGame
from repro.core.profits import expected_profit_tp, hit_probability
from repro.equilibria.families import (
    enumerate_k_matchings,
    perfect_matching_equilibrium,
    regular_edge_equilibrium,
    uniform_kmatching_equilibrium,
)
from repro.graphs.core import Graph
from repro.graphs.generators import (
    circulant_graph,
    complete_graph,
    cycle_graph,
    grid_graph,
    hypercube_graph,
    path_graph,
    petersen_graph,
    star_graph,
)
from repro.solvers.lp import solve_minimax


class TestEnumerateKMatchings:
    def test_c5_pairs(self):
        # Each of the 5 edges of C5 has exactly 2 disjoint partners.
        matchings = list(enumerate_k_matchings(cycle_graph(5), 2))
        assert len(matchings) == 5

    def test_k1_is_all_edges(self):
        g = petersen_graph()
        assert len(list(enumerate_k_matchings(g, 1))) == g.m

    def test_perfect_matchings_of_k4(self):
        assert len(list(enumerate_k_matchings(complete_graph(4), 2))) == 3

    def test_none_beyond_matching_number(self):
        assert list(enumerate_k_matchings(star_graph(3), 2)) == []


class TestPerfectMatchingEquilibrium:
    @pytest.mark.parametrize(
        "graph",
        [petersen_graph(), cycle_graph(6), cycle_graph(8), complete_graph(4),
         complete_graph(6), hypercube_graph(3), grid_graph(2, 4)],
        ids=["petersen", "cycle6", "cycle8", "k4", "k6", "cube3", "grid24"],
    )
    def test_is_nash_for_every_k(self, graph):
        half = graph.n // 2
        for k in range(1, half + 1):
            game = TupleGame(graph, k, nu=3)
            config = perfect_matching_equilibrium(game)
            assert is_mixed_nash(game, config), (graph, k)
            # Gain law extends: 2k*nu/n.
            assert expected_profit_tp(config) == pytest.approx(
                2 * k * 3 / graph.n
            )

    def test_hit_probability_uniform(self):
        game = TupleGame(petersen_graph(), 2, nu=1)
        config = perfect_matching_equilibrium(game)
        hits = {hit_probability(config, v) for v in game.graph.vertices()}
        assert len({round(h, 12) for h in hits}) == 1
        assert hits.pop() == pytest.approx(2 / 5)

    def test_agrees_with_lp(self):
        game = TupleGame(petersen_graph(), 2, nu=1)
        config = perfect_matching_equilibrium(game)
        lp_value = solve_minimax(game).value
        assert expected_profit_tp(config) == pytest.approx(lp_value, abs=1e-7)

    def test_rejects_odd_graph(self):
        with pytest.raises(GameError, match="no perfect matching"):
            perfect_matching_equilibrium(TupleGame(cycle_graph(5), 1, nu=1))

    def test_rejects_matchable_but_imperfect(self):
        with pytest.raises(GameError, match="no perfect matching"):
            perfect_matching_equilibrium(TupleGame(star_graph(3), 1, nu=1))

    def test_rejects_k_beyond_matching(self):
        game = TupleGame(cycle_graph(6), 4, nu=1)
        with pytest.raises(GameError, match="pure NE"):
            perfect_matching_equilibrium(game)


class TestRegularEdgeEquilibrium:
    @pytest.mark.parametrize(
        "graph",
        [cycle_graph(5), cycle_graph(7), petersen_graph(), complete_graph(5),
         circulant_graph(9, (1, 2))],
        ids=["cycle5", "cycle7", "petersen", "k5", "circulant9"],
    )
    def test_is_nash_on_regular_graphs(self, graph):
        game = TupleGame(graph, 1, nu=2)
        config = regular_edge_equilibrium(game)
        assert is_mixed_nash(game, config)
        # value per attacker = 2/n.
        assert expected_profit_tp(config) == pytest.approx(2 * 2 / graph.n)

    def test_rejects_irregular(self):
        with pytest.raises(GameError, match="not regular"):
            regular_edge_equilibrium(TupleGame(path_graph(4), 1, nu=1))

    def test_rejects_k_above_one(self):
        with pytest.raises(GameError, match="Edge-model"):
            regular_edge_equilibrium(TupleGame(cycle_graph(6), 2, nu=1))


class TestUniformKMatchingEquilibrium:
    @pytest.mark.parametrize(
        "graph, k",
        [(cycle_graph(5), 1), (cycle_graph(5), 2), (cycle_graph(7), 2),
         (cycle_graph(7), 3), (petersen_graph(), 2), (complete_graph(5), 2),
         (complete_graph(4), 2)],
        ids=["c5-k1", "c5-k2", "c7-k2", "c7-k3", "petersen-k2", "k5-k2", "k4-k2"],
    )
    def test_is_nash_on_symmetric_graphs(self, graph, k):
        game = TupleGame(graph, k, nu=2)
        config = uniform_kmatching_equilibrium(game)
        report = check_characterization(game, config)
        if report.properly_mixed:
            assert report.is_nash, report.failures
        assert is_mixed_nash(game, config)

    def test_c5_value_matches_lp(self):
        """The construction recovers the 2k/5 value the LP found — the
        one the k-matching theory cannot reach on C5."""
        for k in (1, 2):
            game = TupleGame(cycle_graph(5), k, nu=1)
            config = uniform_kmatching_equilibrium(game)
            assert expected_profit_tp(config) == pytest.approx(
                solve_minimax(game).value, abs=1e-9
            )

    def test_rejects_asymmetric_graph(self):
        house = Graph([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
        with pytest.raises(GameError, match="not an NE"):
            uniform_kmatching_equilibrium(TupleGame(house, 1, nu=1))

    def test_rejects_when_no_k_matching(self):
        with pytest.raises(GameError, match="no matching of size"):
            uniform_kmatching_equilibrium(TupleGame(star_graph(4), 2, nu=1))

    def test_enumeration_guard(self):
        """C(45, 5) = 1,221,759 tuples exceed the 250,000 limit."""
        game = TupleGame(complete_graph(10), 5, nu=1)
        with pytest.raises(GameError, match="enumeration limit 250000"):
            uniform_kmatching_equilibrium(game)
