"""Experiment E7 — Monte-Carlo validation of equations (1)–(2).

Regenerates the table comparing analytic expected profits against 10⁵-trial
simulation: the analytic value must land inside the 95% confidence interval
for the defender and every attacker, across equilibrium and deliberately
non-equilibrium profiles alike (the formulas hold for *any* mixed
configuration).

Benchmarks: the playout engine's throughput.
"""

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
    for name, game, config in _profiles():
        report = simulate(game, config, trials=TRIALS, seed=2026)
        analytic_tp = expected_profit_tp(config)
        low, high = report.defender_profit.confidence_interval()
        inside = low <= analytic_tp <= high
        assert inside, (name, analytic_tp, low, high)
        table.add_row([name, "defender", analytic_tp,
                       report.defender_profit.mean, low, high, inside])
        for i in range(game.nu):
            analytic_vp = expected_profit_vp(config, i)
            vlow, vhigh = report.attacker_profit[i].confidence_interval()
            v_inside = vlow <= analytic_vp <= vhigh
            assert v_inside, (name, i, analytic_vp, vlow, vhigh)
            table.add_row([name, f"attacker {i}", analytic_vp,
                           report.attacker_profit[i].mean, vlow, vhigh,
                           v_inside])
    record_table("E7_simulation_validation", table,
                 title=f"E7: analytic vs {TRIALS}-trial Monte-Carlo "
                       "(equations (1)-(2))")


def test_e7_simulation_table(benchmark):
    benchmark.pedantic(_build_e7_table, rounds=1, iterations=1)


@pytest.mark.parametrize("nu", [1, 8])
def test_e7_bench_playout_throughput(benchmark, nu):
    game = TupleGame(grid_graph(3, 3), 2, nu=nu)
    config = solve_game(game).mixed
    report = benchmark(simulate, game, config, 2_000, 7)
    assert report.trials == 2_000

