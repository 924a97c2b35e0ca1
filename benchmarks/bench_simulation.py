"""Experiment E7 — Monte-Carlo validation of equations (1)–(2).

Regenerates the table comparing analytic expected profits against 10⁵-trial
simulation: the analytic value must land inside the confidence interval
for the defender and every attacker, across equilibrium and deliberately
non-equilibrium profiles alike (the formulas hold for *any* mixed
configuration).  The intervals are judged as one family: each is
Bonferroni-widened to ``z = Φ⁻¹(1 − 0.05/(2N))`` for ``N`` intervals, so
all of them hold together with probability at least 95% (separate 95%
intervals would miss at least once at about half of all seeds).

Benchmarks: the playout engine's throughput.
"""

from statistics import NormalDist

import pytest

from benchmarks.conftest import record_table
from repro.analysis.tables import Table
from repro.core.configuration import MixedConfiguration
from repro.core.game import TupleGame
from repro.core.profits import expected_profit_tp, expected_profit_vp
from repro.equilibria.solve import solve_game
from repro.graphs.generators import (
    complete_bipartite_graph,
    grid_graph,
    path_graph,
)
from repro.simulation.engine import simulate

TRIALS = 100_000


def _profiles():
    """(name, game, config) triples: equilibria plus arbitrary profiles."""
    cases = []
    for name, graph, k, nu in [
        ("grid3x3-eq", grid_graph(3, 3), 2, 3),
        ("K_{2,4}-eq", complete_bipartite_graph(2, 4), 2, 5),
    ]:
        game = TupleGame(graph, k, nu)
        cases.append((name, game, solve_game(game).mixed))
    # A deliberately non-equilibrium profile: formulas still apply.
    game = TupleGame(path_graph(5), 2, nu=2)
    config = MixedConfiguration(
        game,
        [{0: 0.2, 2: 0.8}, {1: 0.5, 4: 0.5}],
        {((0, 1), (1, 2)): 0.3, ((2, 3), (3, 4)): 0.7},
    )
    cases.append(("path5-arbitrary", game, config))
    return cases


def _build_e7_table():
    table = Table(["profile", "player", "analytic", "simulated mean",
                   "CI low", "CI high", "analytic in CI"], precision=4)
    profiles = _profiles()
    intervals = sum(1 + game.nu for _, game, _ in profiles)
    z = NormalDist().inv_cdf(1 - 0.05 / (2 * intervals))
    for name, game, config in profiles:
        report = simulate(game, config, trials=TRIALS, seed=2026)
        analytic_tp = expected_profit_tp(config)
        low, high = report.defender_profit.confidence_interval(z=z)
        inside = low <= analytic_tp <= high
        assert inside, (name, analytic_tp, low, high)
        table.add_row([name, "defender", analytic_tp,
                       report.defender_profit.mean, low, high, inside])
        for i in range(game.nu):
            analytic_vp = expected_profit_vp(config, i)
            vlow, vhigh = report.attacker_profit[i].confidence_interval(z=z)
            v_inside = vlow <= analytic_vp <= vhigh
            assert v_inside, (name, i, analytic_vp, vlow, vhigh)
            table.add_row([name, f"attacker {i}", analytic_vp,
                           report.attacker_profit[i].mean, vlow, vhigh,
                           v_inside])
    record_table("E7_simulation_validation", table,
                 title=f"E7: analytic vs {TRIALS}-trial Monte-Carlo "
                       f"(equations (1)-(2)); {intervals} intervals, "
                       f"Bonferroni z = {z:.4f} (family-wise 95%)")


def test_e7_simulation_table(benchmark):
    benchmark.pedantic(_build_e7_table, rounds=1, iterations=1)


@pytest.mark.parametrize("nu", [1, 8])
def test_e7_bench_playout_throughput(benchmark, nu):
    game = TupleGame(grid_graph(3, 3), 2, nu=nu)
    config = solve_game(game).mixed
    report = benchmark(simulate, game, config, 2_000, 7)
    assert report.trials == 2_000

