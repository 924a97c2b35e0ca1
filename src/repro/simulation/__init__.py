"""Monte-Carlo playout of the game, validating the analytic profit algebra,
plus adaptive (no-regret) attackers for robustness experiments."""

from repro.simulation.adaptive import (
    AdaptiveAttackResult,
    exploit_gap,
    regret_matching_attack,
)
from repro.simulation.engine import SimulationReport, simulate
from repro.simulation.estimators import wilson_interval

__all__ = [
    "AdaptiveAttackResult",
    "exploit_gap",
    "regret_matching_attack",
    "SimulationReport",
    "simulate",
    "wilson_interval",
]
