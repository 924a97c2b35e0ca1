"""Tests for the Monte-Carlo engine and estimators (repro.simulation)."""

import math
import statistics

import numpy as np
import pytest

from repro.core.configuration import MixedConfiguration
from repro.core.game import GameError, TupleGame
from repro.core.profits import (
    expected_profit_tp,
    expected_profit_vp,
    hit_probability,
)
from repro.equilibria.solve import solve_game
from repro.graphs.generators import grid_graph, path_graph
from repro.simulation.engine import draw_tuples, simulate
from repro.simulation.estimators import SampleSummary, wilson_interval


class TestSampleSummary:
    def test_mean_and_variance(self):
        stat = SampleSummary.of(np.array([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]))
        assert stat.count == 8
        assert stat.mean == pytest.approx(5.0)
        # Unbiased (ddof=1) sample deviation of the classic dataset.
        assert stat.variance == pytest.approx(32.0 / 7.0)
        assert stat.stddev == pytest.approx(math.sqrt(32.0 / 7.0))
        assert stat.stderr == pytest.approx(math.sqrt(32.0 / 7.0) / math.sqrt(8))

    def test_matches_stdlib_statistics(self):
        data = np.random.default_rng(3).normal(0.0, 2.0, size=500)
        stat = SampleSummary.of(data)
        assert stat.mean == pytest.approx(statistics.fmean(data), abs=1e-12)
        assert stat.stddev == pytest.approx(statistics.stdev(data), abs=1e-9)

    def test_degenerate_cases(self):
        stat = SampleSummary.of(np.array([1.5]))
        assert stat.variance == 0.0
        assert stat.stddev == 0.0
        assert stat.mean == 1.5

    def test_confidence_interval_contains_mean(self):
        stat = SampleSummary.of(np.array([1.0, 2.0, 3.0]))
        low, high = stat.confidence_interval()
        assert low <= stat.mean <= high


class TestWilsonInterval:
    def test_contains_point_estimate(self):
        low, high = wilson_interval(30, 100)
        assert low <= 0.3 <= high
        assert 0.0 <= low < high <= 1.0

    def test_extremes_stay_in_unit_interval(self):
        low, high = wilson_interval(0, 50)
        assert low == pytest.approx(0.0, abs=1e-12) and high < 0.2
        low, high = wilson_interval(50, 50)
        assert low > 0.8 and high == pytest.approx(1.0, abs=1e-12)

    def test_narrows_with_trials(self):
        narrow = wilson_interval(500, 1000)
        wide = wilson_interval(5, 10)
        assert narrow[1] - narrow[0] < wide[1] - wide[0]

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 3)


class TestDraws:
    def test_frequencies_approach_distribution(self):
        game = TupleGame(path_graph(4), 1, nu=1)
        config = MixedConfiguration(
            game, [{0: 1.0}], {((0, 1),): 0.2, ((2, 3),): 0.8}
        )
        tuples, draws = draw_tuples(config, np.random.default_rng(0), 20_000)
        assert tuples == [((0, 1),), ((2, 3),)]
        assert np.mean(draws == 1) == pytest.approx(0.8, abs=0.02)

    def test_degenerate_distribution(self):
        game = TupleGame(path_graph(4), 1, nu=1)
        config = MixedConfiguration(game, [{0: 1.0}], {((2, 3),): 1.0})
        tuples, draws = draw_tuples(config, np.random.default_rng(1), (10, 3))
        assert tuples == [((2, 3),)]
        assert draws.shape == (10, 3) and not draws.any()

    def test_rejects_empty(self):
        # An empty support never reaches the draws: the configuration
        # refuses it.
        game = TupleGame(path_graph(4), 1, nu=1)
        with pytest.raises(GameError, match="empty support"):
            MixedConfiguration(game, [{0: 1.0}], {})
        with pytest.raises(GameError, match="empty support"):
            MixedConfiguration(game, [{}], {((0, 1),): 1.0})


class TestSimulate:
    def test_deterministic_per_seed(self, k24_game):
        config = solve_game(k24_game).mixed
        a = simulate(k24_game, config, trials=500, seed=42)
        b = simulate(k24_game, config, trials=500, seed=42)
        assert a.defender_profit.mean == b.defender_profit.mean
        assert a.catches == b.catches

    def test_seed_changes_outcome(self, k24_game):
        config = solve_game(k24_game).mixed
        a = simulate(k24_game, config, trials=500, seed=1)
        b = simulate(k24_game, config, trials=500, seed=2)
        assert a.defender_profit.mean != b.defender_profit.mean

    def test_defender_mean_matches_equation_2(self, k24_game):
        config = solve_game(k24_game).mixed
        report = simulate(k24_game, config, trials=40_000, seed=11)
        low, high = report.defender_profit.confidence_interval()
        assert low <= expected_profit_tp(config) <= high

    def test_attacker_summaries_match_their_samples(self, k24_game):
        # Each attacker's summary is read off its catch count; it must be
        # the summary of its 0/1 per-trial escape sample.
        config = solve_game(k24_game).mixed
        report = simulate(k24_game, config, trials=3_000, seed=4)
        for i in range(k24_game.nu):
            escapes = np.zeros(report.trials)
            escapes[: report.trials - report.catches[i]] = 1.0
            sample = SampleSummary.of(escapes)
            summary = report.attacker_profit[i]
            assert summary.count == sample.count == 3_000
            assert summary.mean == pytest.approx(sample.mean, abs=1e-15)
            assert summary.variance == pytest.approx(sample.variance, abs=1e-15)

    def test_attacker_means_match_equation_1(self):
        game = TupleGame(grid_graph(2, 3), 2, nu=3)
        config = solve_game(game).mixed
        report = simulate(game, config, trials=30_000, seed=5)
        for i in range(game.nu):
            low, high = report.attacker_profit[i].confidence_interval()
            assert low <= expected_profit_vp(config, i) <= high

    def test_empirical_hit_probabilities(self):
        game = TupleGame(path_graph(6), 2, nu=1)
        config = solve_game(game).mixed
        report = simulate(game, config, trials=30_000, seed=9)
        for v in config.vp_support_union():
            assert report.empirical_hit_probability(v) == pytest.approx(
                hit_probability(config, v), abs=0.02
            )

    def test_catch_rate_and_interval(self, k24_game):
        config = solve_game(k24_game).mixed
        report = simulate(k24_game, config, trials=10_000, seed=3)
        for i in range(k24_game.nu):
            rate = report.catch_rate(i)
            low, high = report.catch_rate_interval(i)
            assert low <= rate <= high
            # At the equilibrium each attacker is caught w.p. k/rho = 0.5.
            assert rate == pytest.approx(0.5, abs=0.03)

    def test_non_uniform_profile(self):
        game = TupleGame(path_graph(4), 1, nu=1)
        config = MixedConfiguration(
            game, [{0: 0.25, 3: 0.75}], {((0, 1),): 0.1, ((2, 3),): 0.9}
        )
        report = simulate(game, config, trials=40_000, seed=13)
        low, high = report.defender_profit.confidence_interval()
        assert low <= expected_profit_tp(config) <= high

    def test_rejects_zero_trials(self, k24_game):
        config = solve_game(k24_game).mixed
        for trials in (0, -5):
            with pytest.raises(GameError, match="at least one trial"):
                simulate(k24_game, config, trials=trials)

    def test_rejects_foreign_config(self, k24_game):
        other = TupleGame(path_graph(4), 1, nu=1)
        config = solve_game(other).mixed
        with pytest.raises(GameError, match="different game"):
            simulate(k24_game, config, trials=10)


class TestStream:
    """One draw stream per seed: the defender's tuples over the support in
    ``tuple_sort_key`` order, then each attacker over its support in
    ``repr`` order, from one ``numpy.random.default_rng(seed)``.  The
    figures below are that stream's, recorded from the earlier numpy
    playout, so any reordering of the draws shows up as a mismatch."""

    def test_path_game_stream(self):
        game = TupleGame(path_graph(4), 1, nu=1)
        config = MixedConfiguration(
            game, [{0: 0.3, 3: 0.7}], {((0, 1),): 0.2, ((2, 3),): 0.8}
        )
        report = simulate(game, config, trials=20_000, seed=9)
        assert report.defender_profit.mean == 0.61815
        assert report.defender_profit.stddev == 0.4858522204528923
        assert report.catch_rate(0) == 0.61815

    def test_grid_game_stream(self):
        # Attacker 0's support sorts as 10, 11, 2 under repr.
        game = TupleGame(grid_graph(3, 4), 2, nu=2)
        config = MixedConfiguration(
            game,
            [{2: 0.3, 10: 0.5, 11: 0.2}, {1: 0.6, 9: 0.4}],
            {((0, 1), (10, 11)): 0.5, ((2, 6), (5, 9)): 0.3,
             ((3, 7), (8, 9)): 0.2},
        )
        report = simulate(game, config, trials=5_000, seed=11)
        assert report.defender_profit.mean == 0.9386
        assert report.defender_profit.stddev == 0.7373864575360409
        assert [report.catch_rate(i) for i in range(2)] == [0.439, 0.4996]


class TestEstimatorBoundaries:
    """Pinned boundary behavior for the interval helpers."""

    def test_confidence_interval_single_sample_is_zero_width(self):
        stat = SampleSummary.of(np.array([2.5]))
        assert stat.confidence_interval() == (2.5, 2.5)

    def test_wilson_at_zero_successes(self):
        low, high = wilson_interval(0, 20)
        assert low == 0.0
        assert 0.0 < high < 1.0

    def test_wilson_at_all_successes(self):
        low, high = wilson_interval(20, 20)
        assert high == 1.0
        assert 0.0 < low < 1.0

    def test_wilson_single_trial_boundaries(self):
        assert wilson_interval(0, 1)[0] == 0.0
        assert wilson_interval(1, 1)[1] == 1.0
