"""Large-sample checks and mechanics of the vectorised Monte Carlo playout
(repro.simulation.engine.simulate) on a 3x3-grid equilibrium."""

import pytest

from repro.core.configuration import MixedConfiguration
from repro.core.game import GameError, TupleGame
from repro.core.profits import expected_profit_tp, hit_probability
from repro.equilibria.solve import solve_game
from repro.graphs.generators import grid_graph, path_graph
from repro.simulation.engine import simulate


@pytest.fixture
def equilibrium():
    game = TupleGame(grid_graph(3, 3), 2, nu=4)
    return game, solve_game(game).mixed


class TestStatisticalCorrectness:
    def test_ci_contains_analytic_value(self, equilibrium):
        game, config = equilibrium
        report = simulate(game, config, trials=120_000, seed=3)
        low, high = report.defender_profit.confidence_interval()
        assert low <= expected_profit_tp(config) <= high

    def test_catch_rates_match_hit_probabilities(self, equilibrium):
        game, config = equilibrium
        report = simulate(game, config, trials=120_000, seed=5)
        support = sorted(config.vp_support_union(), key=repr)
        theoretical = hit_probability(config, support[0])
        for i in range(game.nu):
            assert report.catch_rate(i) == pytest.approx(theoretical, abs=0.01)

    def test_non_uniform_profile(self):
        game = TupleGame(path_graph(4), 1, nu=1)
        config = MixedConfiguration(
            game, [{0: 0.3, 3: 0.7}], {((0, 1),): 0.2, ((2, 3),): 0.8}
        )
        report = simulate(game, config, trials=150_000, seed=9)
        low, high = report.defender_profit.confidence_interval()
        assert low <= expected_profit_tp(config) <= high


class TestMechanics:
    def test_deterministic_per_seed(self, equilibrium):
        game, config = equilibrium
        a = simulate(game, config, trials=5_000, seed=11)
        b = simulate(game, config, trials=5_000, seed=11)
        assert a.defender_profit.mean == b.defender_profit.mean
        assert a.catches == b.catches

    def test_single_trial(self, equilibrium):
        game, config = equilibrium
        report = simulate(game, config, trials=1, seed=0)
        assert report.trials == 1
        assert report.defender_profit.stddev == 0.0
        mean = report.defender_profit.mean
        assert report.defender_profit.confidence_interval() == (mean, mean)

    def test_rejects_zero_trials(self, equilibrium):
        game, config = equilibrium
        with pytest.raises(GameError, match="at least one trial"):
            simulate(game, config, trials=0)

    def test_rejects_foreign_config(self, equilibrium):
        game, _ = equilibrium
        other = TupleGame(path_graph(4), 1, nu=1)
        config = solve_game(other).mixed
        with pytest.raises(GameError, match="different game"):
            simulate(game, config, trials=10)

    def test_repr(self, equilibrium):
        game, config = equilibrium
        assert "trials=100" in repr(simulate(game, config, trials=100))
