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


class TestInexactConvergence:
    """Regression: a greedy defender oracle stalls on this graph, on a
    suboptimal tuple the restricted LP already contains.  Greedy only
    proposes columns, so the loop must go on to the exact oracle and
    stop on a certified optimum, never on a greedy answer."""

    def test_greedy_stall_graph_certifies(self):
        from repro.graphs.generators import gnp_random_graph

        graph = gnp_random_graph(9, 0.4, seed=2)
        game = TupleGame(graph, 4, nu=1)
        truth = solve_minimax(game).value
        result = double_oracle(game, tolerance=1e-9)
        assert result.exact
        assert result.certified_gap <= 2e-9
        assert result.value == pytest.approx(truth, abs=1e-9)


class TestExactWork:
    """Greedy proposes every column it can, so on perfbench's family the
    exact coverage kernel is asked once per cold solve: to certify."""

    @staticmethod
    def _exact_queries():
        from repro.obs import metrics

        return metrics.counter("perf.kernel.query.count").value

    def test_one_exact_query_per_solve(self):
        graph = random_bipartite_graph(25, 40, 0.10, seed=11)
        before = self._exact_queries()
        result = double_oracle(TupleGame(graph, 5, nu=1))
        assert self._exact_queries() == before + 1
        assert result.exact

    def test_one_exact_query_per_weighted_solve(self):
        from repro.weighted import WeightedTupleGame, weighted_double_oracle

        graph = random_bipartite_graph(25, 40, 0.10, seed=11)
        weights = {v: (1, 2, 3, 5)[i % 4]
                   for i, v in enumerate(graph.sorted_vertices())}
        before = self._exact_queries()
        weighted_double_oracle(WeightedTupleGame(graph, 5, weights, nu=1))
        assert self._exact_queries() == before + 1


class TestLargeTier:
    """At m ≈ 400 and k = 20 the certificate comes from the G+ matching
    model, once, and the run converges on the k/rho value of Claim 4.3."""

    def test_certifies_k_over_rho_at_m_400(self):
        from repro.obs import metrics

        graph = random_bipartite_graph(100, 150, 0.025, seed=7)
        game = TupleGame(graph, 20, nu=1)
        matching = metrics.counter("lp.matching.solve.count")
        before = (matching.value, TestExactWork._exact_queries())
        result = double_oracle(game)
        assert result.exact
        assert result.value == pytest.approx(
            20 / minimum_edge_cover_size(graph), abs=1e-9)
        assert (matching.value, TestExactWork._exact_queries()) \
            == (before[0] + 1, before[1])

    def test_certifies_k_over_rho_past_200_iterations(self):
        """gnp(200, 0.02) at k = 20 (m = 434) needs 206 iterations; the
        loop has no cap and stops on its certificate."""
        from repro.graphs.generators import gnp_random_graph

        graph = gnp_random_graph(200, 0.02, seed=1)
        result = double_oracle(TupleGame(graph, 20, nu=1))
        assert result.exact
        assert result.iterations > 200
        assert minimum_edge_cover_size(graph) == 102
        assert result.value == pytest.approx(20 / 102, abs=1e-9)

    def test_non_bipartite_certificate_agrees_with_bnb(self):
        """Above the threshold off bipartite graphs the G+ model is a
        MIP; at the run's final attacker mixture, branch and bound finds
        no tuple beyond the value it certified."""
        from repro.graphs.generators import gnp_random_graph
        from repro.kernels import shared_oracle
        from repro.obs import metrics

        game = TupleGame(gnp_random_graph(40, 0.2, seed=3), 10, nu=1)
        assert game.tuple_strategy_count() > 10**15
        matching = metrics.counter("lp.matching.solve.count")
        before = matching.value
        result = double_oracle(game)
        assert matching.value > before
        assert result.exact
        _, best = shared_oracle(game.graph, game.k).best(
            result.solution.attacker)
        assert best == pytest.approx(result.value, abs=1e-9)


class TestTermination:
    """The loop stops only on its certificate: an iteration whose
    greedy proposals and certified tuple are all pooled adds no column,
    so it is the last.  Here the certificate returns a pooled tuple with
    a bound above the value, so the run stops after one iteration on a
    gap no tolerance covers."""

    @pytest.fixture
    def planted(self, monkeypatch):
        import importlib

        do = importlib.import_module("repro.solvers.double_oracle")

        real_family = do._greedy_family

        def pooled_family(oracle, masses, cap):
            # Always the initial pool (greedy on unit masses), so every
            # proposal is a pooled tuple.
            return real_family(
                oracle, dict.fromkeys(oracle.vertices, 1.0), None)[:cap]

        def pooled_certifier(oracle, tolerance):
            calls = []

            def certify(masses):
                calls.append(masses)
                if len(calls) > 1:
                    raise RuntimeError("the loop went on past a pooled "
                                       "certificate")
                pooled = pooled_family(oracle, masses, 1)[0]
                return pooled, sum(masses.values()) + 1.0

            return certify

        monkeypatch.setattr(do, "_greedy_family", pooled_family)
        monkeypatch.setattr(do, "_certifier", pooled_certifier)

    def test_plain_returns_inexact_after_one_iteration(self, planted):
        result = double_oracle(TupleGame(grid_graph(3, 3), 2, nu=1))
        assert result.iterations == 1
        assert not result.exact
        assert result.certified_gap > 2e-9

    def test_weighted_raises_on_the_certified_gap(self, planted):
        from repro.core.game import GameError
        from repro.weighted import WeightedTupleGame, weighted_double_oracle

        graph = grid_graph(3, 3)
        weights = dict.fromkeys(graph.sorted_vertices(), 1.0)
        with pytest.raises(GameError, match="certified gap"):
            weighted_double_oracle(WeightedTupleGame(graph, 2, weights, nu=1))
