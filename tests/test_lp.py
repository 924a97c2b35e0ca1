"""Tests for the exact LP minimax baseline (repro.solvers.lp)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.characterization import verify_best_responses
from repro.core.game import GameError, TupleGame
from repro.core.profits import expected_profit_tp
from repro.equilibria.families import uniform_kmatching_equilibrium
from repro.equilibria.solve import solve_game
from repro.graphs.generators import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    petersen_graph,
    star_graph,
)
from repro.matching.covers import minimum_edge_cover_size
from repro.core.tuples import tuple_vertices
from repro.solvers.double_oracle import _double_oracle_loop
from repro.solvers.lp import (
    _MatrixDuel,
    _payoff_matrix,
    lp_defender_gain,
    lp_equilibrium,
    solve_minimax,
)
from repro.solvers.ranges import strategy_ranges
from repro.weighted.game import WeightedTupleGame, weighted_minimax

SRC = Path(__file__).resolve().parent.parent / "src"


class TestGameValues:
    @pytest.mark.parametrize(
        "graph",
        [path_graph(4), path_graph(6), star_graph(4), cycle_graph(6),
         complete_bipartite_graph(2, 4), grid_graph(2, 3)],
        ids=["path4", "path6", "star4", "cycle6", "k24", "grid23"],
    )
    def test_value_is_k_over_rho_on_partitionable_graphs(self, graph):
        """Where a k-matching NE exists the duel value must match Claim
        4.3's k/rho(G)."""
        rho = minimum_edge_cover_size(graph)
        for k in range(1, rho):
            solution = solve_minimax(TupleGame(graph, k, nu=1))
            assert solution.value == pytest.approx(k / rho, abs=1e-7)

    def test_value_at_and_above_rho_is_one(self):
        graph = path_graph(4)
        rho = minimum_edge_cover_size(graph)
        for k in range(rho, graph.m + 1):
            solution = solve_minimax(TupleGame(graph, k, nu=1))
            assert solution.value == pytest.approx(1.0, abs=1e-9)

    def test_petersen_value_without_structural_ne(self):
        """Petersen admits no k-matching NE, yet the minimax value still
        equals k/rho — the gain law extends beyond the structural class."""
        graph = petersen_graph()
        for k in (1, 2, 3):
            solution = solve_minimax(TupleGame(graph, k, nu=1))
            assert solution.value == pytest.approx(k / 5, abs=1e-7)

    def test_odd_cycle_value_breaks_the_k_over_rho_law(self):
        """C5, k=1: the value is 2/5 (uniform defender over the 5 edges
        hits every vertex w.p. deg/m = 2/5), *not* k/rho = 1/3.  Outside
        the k-matching class the gain law genuinely fails — Petersen only
        matched k/rho because it has a perfect matching (rho = n/2, so
        k·2/n = k/rho).  Recorded as a boundary finding in EXPERIMENTS.md."""
        solution = solve_minimax(TupleGame(cycle_graph(5), 1, nu=1))
        assert solution.value == pytest.approx(2 / 5, abs=1e-7)
        assert solution.value > 1 / minimum_edge_cover_size(cycle_graph(5))

    def test_complete_graph_value(self):
        # K4, k=1: by symmetry the defender hits any vertex w.p. 1/2
        # (3 perfect-matching pairs); value = 1/2.
        solution = solve_minimax(TupleGame(complete_graph(4), 1, nu=1))
        assert solution.value == pytest.approx(0.5, abs=1e-7)


class TestLPEquilibrium:
    @pytest.mark.parametrize(
        "graph, k, nu",
        [(path_graph(5), 2, 3), (complete_bipartite_graph(2, 3), 1, 2),
         (petersen_graph(), 2, 2), (cycle_graph(5), 1, 4)],
        ids=["path5", "k23", "petersen", "cycle5"],
    )
    def test_lp_profile_is_nash(self, graph, k, nu):
        game = TupleGame(graph, k, nu)
        config, solution = lp_equilibrium(game)
        ok, gaps = verify_best_responses(game, config, tol=1e-6)
        assert ok, gaps
        assert expected_profit_tp(config) == pytest.approx(
            nu * solution.value, abs=1e-6
        )

    def test_agrees_with_structural_gain(self):
        graph = grid_graph(2, 4)
        rho = minimum_edge_cover_size(graph)
        for k in range(1, rho):
            game = TupleGame(graph, k, nu=6)
            structural = solve_game(game).defender_gain
            assert lp_defender_gain(game) == pytest.approx(structural, abs=1e-6)

    def test_distributions_are_normalized(self):
        game = TupleGame(path_graph(5), 2, nu=1)
        solution = solve_minimax(game)
        assert sum(solution.defender.values()) == pytest.approx(1.0)
        assert sum(solution.attacker.values()) == pytest.approx(1.0)
        assert all(p > 0 for p in solution.defender.values())
        assert all(p > 0 for p in solution.attacker.values())

    def test_tuple_limit_guard(self):
        """C(30, 10) = 30,045,015 tuples exceed the 200,000 LP limit."""
        game = TupleGame(complete_bipartite_graph(5, 6), 10, nu=1)
        with pytest.raises(GameError, match="exceed the LP limit of 200000"):
            solve_minimax(game)

    @pytest.mark.parametrize("solve", [
        solve_minimax,
        lambda game: weighted_minimax(WeightedTupleGame(
            game.graph, game.k, {v: 1.0 for v in game.graph.vertices()})),
        strategy_ranges,
        uniform_kmatching_equilibrium,
    ], ids=["lp", "weighted", "ranges", "kmatching"])
    def test_guards_fire_before_enumeration(self, solve, monkeypatch):
        """Every size guard raises on the count alone: with the
        enumerators patched to fail when called, an oversized game still
        gets the guard's GameError."""
        def enumerated(*_args):
            raise AssertionError("enumerated past the size guard")

        for target in ("repro.solvers.lp.all_tuples",
                       "repro.solvers.ranges.all_tuples",
                       "repro.equilibria.families.enumerate_k_matchings"):
            monkeypatch.setattr(target, enumerated)
        game = TupleGame(complete_bipartite_graph(5, 6), 10, nu=1)
        with pytest.raises(GameError, match="limit"):
            solve(game)

    def test_repr(self):
        solution = solve_minimax(TupleGame(path_graph(4), 1, nu=1))
        assert "value=" in repr(solution)


def _grown(payoff):
    """A duel built over the first strategy, the rest added one
    ``add_columns`` call, and one strategy, at a time."""
    duel = _MatrixDuel(payoff[:1])
    for row in payoff[1:]:
        duel.add_columns(row[None, :])
    return duel


# Each strategy protects one vertex, so every strategy is in the optimal
# support and each entry decides the value: a dropped or mis-signed entry
# (or a missing Σp = 1 coefficient) moves it.
_DUEL_MATRICES = {
    "one-vertex-each": np.eye(4),
    "weighted-escape": np.array([3.0, 3.5, 4.0, 4.5]) * (np.eye(4) - 1.0),
    "random": np.random.default_rng(7).random((9, 6)),
}


class TestIncrementalDuel:
    @pytest.mark.parametrize("name", sorted(_DUEL_MATRICES))
    def test_grown_duel_equals_fresh_duel(self, name):
        payoff = _DUEL_MATRICES[name]
        fresh_value, _, _ = _MatrixDuel(payoff).solve()
        value, defender, attacker = _grown(payoff).solve()
        assert value == pytest.approx(fresh_value, abs=1e-9)
        # Both optima guarantee the value against the true matrix.
        assert (defender @ payoff).min() >= value - 1e-9
        assert (payoff @ attacker).max() <= value + 1e-9

    @pytest.mark.parametrize("weighted", [False, True],
                             ids=["plain", "weighted"])
    def test_every_double_oracle_iteration_matches_a_fresh_duel(
        self, weighted
    ):
        game = TupleGame(petersen_graph(), 2, nu=1)
        weights = ({v: 1.0 + (v % 4) * 0.5 for v in game.graph.vertices()}
                   if weighted else None)
        seen = []

        def audit(solution, attackers, defenders):
            fresh, _, _ = _MatrixDuel(_payoff_matrix(
                attackers, defenders, tuple_vertices, weights)).solve()
            seen.append((solution.value, fresh))

        _double_oracle_loop(game, weights, 1e-9, audit=audit)
        assert len(seen) >= 2
        for incremental, fresh in seen:
            assert incremental == pytest.approx(fresh, abs=1e-9)

    @pytest.mark.parametrize("name", sorted(_DUEL_MATRICES))
    def test_two_lp_route_equals_dual_read_attacker(self, name):
        """The attacker's own LP on −Aᵀ has minus the duel's value, and
        the dual-read attacker mixture guarantees that value."""
        payoff = _DUEL_MATRICES[name]
        attacker_value, _, _ = _MatrixDuel(-payoff.T).solve()
        value, _, attacker = _grown(payoff).solve()
        assert value == pytest.approx(-attacker_value, abs=1e-9)
        assert attacker.sum() == pytest.approx(1.0, abs=1e-9)
        assert (payoff @ attacker).max() <= -attacker_value + 1e-9


def _planted(side):
    """A ``_MatrixDuel._optimum`` that moves one side's mixture to a
    point mass on its first strategy, which no longer guarantees the
    value on the games below."""
    real = _MatrixDuel._optimum

    def optimum(self):
        value, weights, attacker = real(self)
        mixture = attacker if side == "attacker" else weights
        mixture[:] = 0.0
        mixture[0] = 1.0
        return value, weights, attacker

    return optimum


class TestDuelCertificate:
    """Every duel solve certifies both mixtures it returns."""

    _GAME = TupleGame(path_graph(5), 1, nu=1)

    _WEIGHTED = WeightedTupleGame(path_graph(5), 1,
                                  {v: 1.0 + v for v in range(5)})

    @pytest.mark.parametrize("side", ["attacker", "defender"])
    @pytest.mark.parametrize("route", [
        "solve_minimax", "weighted_minimax", "double_oracle_master"])
    def test_planted_mixture_fails_the_certificate(
        self, monkeypatch, side, route
    ):
        solve = {
            "solve_minimax": lambda: solve_minimax(self._GAME),
            "weighted_minimax": lambda: weighted_minimax(self._WEIGHTED),
            "double_oracle_master": lambda: _double_oracle_loop(
                self._GAME, None, 1e-9),
        }[route]
        monkeypatch.setattr(_MatrixDuel, "_optimum", _planted(side))
        with pytest.raises(GameError, match="certificate failed"):
            solve()


def test_missing_highs_binding_fails_at_import():
    probe = ("import sys, scipy.optimize; "
             "sys.modules['scipy.optimize._highspy._core'] = None; "
             "import repro.solvers.lp")
    result = subprocess.run([sys.executable, "-c", probe],
                            env=dict(os.environ, PYTHONPATH=str(SRC)),
                            capture_output=True, text=True)
    assert result.returncode != 0
    last = result.stderr.strip().splitlines()[-1]
    assert last.startswith("ImportError:")
    assert "scipy.optimize._highspy._core._Highs" in last


class TestCoverageMatching:
    """The G+ matching model of the defender's best response."""

    @staticmethod
    def _model(graph, k):
        from repro.kernels.coverage import CoverageOracle
        from repro.solvers.lp import _CoverageMatching

        oracle = CoverageOracle(graph, k)
        return oracle, _CoverageMatching(oracle, 1e-9)

    def test_pendants_decode_to_unused_incident_edges(self):
        """On a star the optimum is one G-edge plus pendants; each
        pendant decodes to its own spoke."""
        _, model = self._model(star_graph(4), 3)
        found, bound = model.best({v: 1.0 for v in range(5)})
        assert bound == pytest.approx(4.0)
        assert len(set(found)) == 3
        assert len(tuple_vertices(found)) == 4

    def test_fillers_take_the_lowest_unused_slots(self):
        """Mass on one vertex is covered by one edge; the other k − 1
        edges are the lowest slots not yet taken."""
        oracle, model = self._model(path_graph(6), 3)
        found, bound = model.best({3: 1.0})
        assert bound == pytest.approx(1.0)
        # Whichever of (2, 3), (3, 4) or 3's pendant the optimum takes,
        # slots 0 and 1 fill the tuple.
        assert 3 in tuple_vertices(found)
        assert set(oracle.edges[:2]) < set(found)
        assert len(set(found)) == 3

    def test_non_bipartite_reads_the_integral_optimum(self):
        """Two disjoint triangles, k = 3, unit masses: the LP relaxation
        reads 6, the model (a MIP off bipartite graphs) reads 5."""
        from repro.graphs.core import Graph

        graph = Graph([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        oracle, model = self._model(graph, 3)
        found, bound = model.best({v: 1.0 for v in range(6)})
        assert bound == pytest.approx(5.0, abs=1e-9)
        assert len(tuple_vertices(found)) == 5

    def test_warm_queries_match_branch_and_bound(self):
        import random

        rng = random.Random(3)
        for graph, k in ((petersen_graph(), 4),
                         (complete_bipartite_graph(3, 4), 3)):
            oracle, model = self._model(graph, k)
            for _ in range(5):
                masses = {v: rng.random() for v in graph.vertices()}
                found, bound = model.best(masses)
                _, exact = oracle.best(masses)
                assert bound == pytest.approx(exact, abs=1e-9)
                assert sum(masses[v] for v in tuple_vertices(found)) \
                    == pytest.approx(exact, abs=1e-9)
