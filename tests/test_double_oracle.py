"""Tests for the double-oracle solver (repro.solvers.double_oracle)."""

import pytest

from repro.core.game import TupleGame
from repro.graphs.generators import (
    complete_bipartite_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    petersen_graph,
    random_bipartite_graph,
)
from repro.matching.covers import minimum_edge_cover_size
from repro.solvers.double_oracle import double_oracle
from repro.solvers.lp import solve_minimax


class TestMatchesFullLP:
    @pytest.mark.parametrize(
        "graph, k",
        [
            (path_graph(6), 2),
            (cycle_graph(7), 2),
            (complete_bipartite_graph(2, 4), 3),
            (petersen_graph(), 2),
            (grid_graph(2, 4), 2),
        ],
        ids=["path6", "cycle7", "k24", "petersen", "grid24"],
    )
    def test_value_agrees(self, graph, k):
        game = TupleGame(graph, k, nu=1)
        full = solve_minimax(game).value
        result = double_oracle(game)
        assert result.value == pytest.approx(full, abs=1e-7)
        assert result.certified_gap <= 1e-7

    def test_pools_stay_small(self):
        graph = complete_bipartite_graph(3, 5)
        game = TupleGame(graph, 2, nu=1)
        result = double_oracle(game)
        assert result.defender_pool_size < game.tuple_strategy_count() / 3
        assert result.attacker_pool_size <= graph.n


class TestBeyondEnumeration:
    def test_solves_instance_too_large_for_full_lp(self):
        """C(60, 4) ≈ 487k tuples — over the LP limit, but double oracle
        handles it and lands on the k/rho value the theory predicts."""
        graph = random_bipartite_graph(15, 25, 0.15, seed=8)
        k = 4
        game = TupleGame(graph, k, nu=1)
        assert game.tuple_strategy_count() > 200_000
        result = double_oracle(game)
        rho = minimum_edge_cover_size(graph)
        assert result.value == pytest.approx(k / rho, abs=1e-7)

    def test_pure_regime_value_one(self):
        graph = path_graph(4)
        rho = minimum_edge_cover_size(graph)
        game = TupleGame(graph, rho, nu=1)
        result = double_oracle(game)
        assert result.value == pytest.approx(1.0, abs=1e-9)


class TestMechanics:
    def test_deterministic(self):
        game = TupleGame(grid_graph(2, 3), 2, nu=1)
        a = double_oracle(game)
        b = double_oracle(game)
        assert a.value == b.value
        assert a.iterations == b.iterations

    def test_repr(self):
        game = TupleGame(path_graph(4), 1, nu=1)
        assert "value=" in repr(double_oracle(game))

    def test_greedy_oracle_reports_gap(self):
        """With a greedy defender oracle the certificate may be loose but
        the value still lands within the reported gap of the truth."""
        graph = grid_graph(2, 4)
        game = TupleGame(graph, 2, nu=1)
        truth = solve_minimax(game).value
        result = double_oracle(game, method="greedy")
        assert result.value <= truth + result.certified_gap + 1e-7
        assert result.value >= truth - result.certified_gap - 1e-7

    def test_lazy_attacker_matches_eager(self):
        game = TupleGame(grid_graph(2, 4), 2, nu=1)
        eager = double_oracle(game)
        lazy = double_oracle(game, lazy_attacker=True)
        assert lazy.value == pytest.approx(eager.value, abs=1e-9)
        assert lazy.exact and eager.exact

    def test_lazy_attacker_ties_break_in_canonical_order(self, monkeypatch):
        """Vertices 9 and 10 tie for the least hit probability after the
        first iteration; the attacker oracle must pick 9, the first in
        canonical vertex order, not 10 (which sorts first by ``repr``)."""
        import importlib

        from repro.graphs.core import Graph

        module = importlib.import_module("repro.solvers.double_oracle")
        pools = []
        duel = module.minimax_over_strategies

        def recording_duel(vertices, strategies, coverage_of, **kwargs):
            pools.append(list(vertices))
            return duel(vertices, strategies, coverage_of, **kwargs)

        monkeypatch.setattr(module, "minimax_over_strategies", recording_duel)
        game = TupleGame(Graph([(0, 1), (1, 9), (1, 10)]), 1, nu=1)
        result = double_oracle(game, lazy_attacker=True)
        assert pools[:3] == [[0], [0, 9], [0, 9, 10]]
        assert result.value == pytest.approx(1.0 / 3.0, abs=1e-9)


class TestInexactConvergence:
    """Regression: a greedy defender oracle can stall on a suboptimal
    tuple the restricted LP already contains, so the run used to claim
    convergence with a tiny reported gap while the value was silently
    wrong.  The result must now be re-certified with an exact oracle call
    and flagged ``exact=False`` when the true gap exceeds the slack."""

    def test_greedy_stall_is_flagged_inexact(self):
        from repro.graphs.generators import gnp_random_graph

        graph = gnp_random_graph(9, 0.4, seed=2)
        game = TupleGame(graph, 4, nu=1)
        truth = solve_minimax(game).value
        result = double_oracle(game, method="greedy", tolerance=1e-9)
        assert not result.exact
        assert result.certified_gap > 2e-9
        # The re-certified gap is a true bracket around the optimum.
        assert result.value < truth - 1e-6
        assert result.value + result.certified_gap >= truth - 1e-9

    def test_exact_methods_certify(self):
        game = TupleGame(grid_graph(2, 4), 2, nu=1)
        for method in ("auto", "bnb", "exhaustive"):
            result = double_oracle(game, method=method)
            assert result.exact
            assert result.certified_gap <= 2e-9


class TestConvergenceGuard:
    def test_max_iterations_raises(self):
        from repro.core.game import GameError

        game = TupleGame(grid_graph(3, 3), 2, nu=1)
        with pytest.raises(GameError, match="did not converge"):
            double_oracle(game, max_iterations=1)
