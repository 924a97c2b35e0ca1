"""Baseline solvers: exact LP minimax, coverage best response, learning.

These are the unstructured comparators for the paper's structural
equilibria — they know nothing about matchings or partitions, yet must
(and, in the test suite, do) agree with the closed forms of Section 4
wherever both apply.
"""

from repro.solvers.best_response import best_tuple, coverage_value
from repro.solvers.double_oracle import DoubleOracleResult, double_oracle
from repro.solvers.fictitious_play import FictitiousPlayResult, fictitious_play
from repro.solvers.lp import (
    LPSolution,
    lp_defender_gain,
    lp_equilibrium,
    minimax_over_strategies,
    solve_minimax,
)
from repro.solvers.ranges import (
    StrategyRanges,
    attacker_vertex_ranges,
    defender_edge_ranges,
    strategy_ranges,
)

__all__ = [
    "best_tuple",
    "coverage_value",
    "DoubleOracleResult",
    "double_oracle",
    "FictitiousPlayResult",
    "fictitious_play",
    "LPSolution",
    "lp_defender_gain",
    "lp_equilibrium",
    "minimax_over_strategies",
    "solve_minimax",
    "StrategyRanges",
    "attacker_vertex_ranges",
    "defender_edge_ranges",
    "strategy_ranges",
]
