"""Best-deviation witnesses: *where* a profile fails, not just whether.

:func:`repro.core.characterization.verify_best_responses` answers "is this
an equilibrium?" with regrets; diagnosing a broken schedule needs the
actual witnesses — which vertex the attacker should move to, which tuple
the defender should switch to, and how much each deviation earns.  The
witnesses instantiate the best-response clauses of Theorem 3.4 against
the Definition 2.1 profit model; the report and red-team tooling surface
them.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.core.configuration import MixedConfiguration
from repro.core.game import GameError, TupleGame
from repro.core.profits import (
    all_hit_probabilities,
    all_vertex_masses,
    expected_profit_tp,
    expected_profit_vp,
)
from repro.core.tuples import EdgeTuple
from repro.graphs.core import Vertex, vertex_sort_key

__all__ = ["AttackerDeviation", "DefenderDeviation",
           "best_attacker_deviation", "best_defender_deviation",
           "exploitability"]


class AttackerDeviation(NamedTuple):
    """Best pure deviation for one attacker."""

    player: int
    vertex: Vertex
    payoff: float
    gain: float


class DefenderDeviation(NamedTuple):
    """Best pure deviation for the defender."""

    tuple_choice: EdgeTuple
    payoff: float
    gain: float


def best_attacker_deviation(
    game: TupleGame, config: MixedConfiguration, player: int = 0
) -> AttackerDeviation:
    """The vertex maximizing attacker ``player``'s escape probability
    against the defender's mixture, with the improvement over its current
    expected profit (``gain ≤ 0`` means the player is already satisfied,
    up to numerical noise)."""
    if config.game != game:
        raise GameError("configuration belongs to a different game")
    if not 0 <= player < game.nu:
        raise GameError(f"no vertex player {player} (nu={game.nu})")
    hits = all_hit_probabilities(config)
    best_vertex = min(
        game.graph.vertices(), key=lambda v: (hits[v], vertex_sort_key(v))
    )
    payoff = 1.0 - hits[best_vertex]
    current = expected_profit_vp(config, player)
    return AttackerDeviation(player, best_vertex, payoff, payoff - current)


def best_defender_deviation(
    game: TupleGame, config: MixedConfiguration
) -> DefenderDeviation:
    """The tuple maximizing expected catches against the attackers'
    mixtures, with the improvement over the defender's current profit."""
    if config.game != game:
        raise GameError("configuration belongs to a different game")
    # Lazy: a module-level import would invert core -> solvers (LAY001).
    from repro.solvers.best_response import best_tuple

    masses = all_vertex_masses(config)
    choice, payoff = best_tuple(game.graph, masses, game.k)
    current = expected_profit_tp(config)
    return DefenderDeviation(choice, payoff, payoff - current)


def exploitability(game: TupleGame, config: MixedConfiguration) -> float:
    """The profile's distance from equilibrium: the largest positive
    deviation gain any player has (0 at an exact NE).

    Defender gain is normalized by ``ν`` so the measure is comparable
    across attacker counts.
    """
    worst = 0.0
    for i in range(game.nu):
        worst = max(worst, best_attacker_deviation(game, config, i).gain)
    defender = best_defender_deviation(game, config)
    worst = max(worst, defender.gain / game.nu)
    return max(0.0, worst)
