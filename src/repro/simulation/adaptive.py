"""Adaptive attackers: no-regret learning against the equilibrium defender.

The equilibria of the paper are *static* guarantees.  This module asks the
operational question a deployment cares about: if real attackers adapt
online — observing which of their probes get caught and shifting toward
vertices that historically escaped — does the randomized scan schedule of
Lemma 4.1 still hold the line?

Zero-sum learning theory says yes: against a defender playing a minimax-
optimal mixture, *no* attacker algorithm can push its long-run escape rate
above ``1 − value``; and a no-regret attacker (regret matching, Hart &
Mas-Colell 2000) converges to exactly that rate.  The simulator here plays
the repeated game so experiments can watch both facts happen:

* :func:`regret_matching_attack` — an attacker running regret matching
  over the vertices against a fixed defender mixture;
* :func:`exploit_gap` — how much better the adaptive attacker did than
  the best *static* vertex would have (non-positive in the long run
  against an equilibrium defender, strictly positive against naive
  schedules — which is the experiment that shows *why* randomization per
  Lemma 4.1 matters).
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.core.configuration import MixedConfiguration
from repro.core.game import GameError, TupleGame
from repro.core.tuples import tuple_vertices
from repro.graphs.core import Vertex
from repro.simulation.engine import draw_tuples

__all__ = ["AdaptiveAttackResult", "regret_matching_attack", "exploit_gap"]


class AdaptiveAttackResult:
    """Trace of a repeated game between a learner and a fixed defender.

    Attributes
    ----------
    rounds:
        Rounds played.
    escape_rate:
        Fraction of rounds the adaptive attacker escaped.
    best_static_escape_rate:
        Escape rate of the best fixed vertex *in hindsight* against the
        defender's realized play.
    per_vertex_escapes:
        Hindsight escape counts per vertex (counterfactual: what any
        fixed choice would have earned).
    strategy:
        The learner's final empirical mixture.
    """

    __slots__ = (
        "rounds",
        "escape_rate",
        "best_static_escape_rate",
        "per_vertex_escapes",
        "strategy",
    )

    def __init__(
        self,
        rounds: int,
        escape_rate: float,
        best_static_escape_rate: float,
        per_vertex_escapes: Dict[Vertex, int],
        strategy: Dict[Vertex, float],
    ) -> None:
        self.rounds = rounds
        self.escape_rate = escape_rate
        self.best_static_escape_rate = best_static_escape_rate
        self.per_vertex_escapes = per_vertex_escapes
        self.strategy = strategy

    @property
    def regret(self) -> float:
        """Average regret vs the best static vertex (→ 0 for a learner)."""
        return self.best_static_escape_rate - self.escape_rate

    def __repr__(self) -> str:
        return (
            f"AdaptiveAttackResult(rounds={self.rounds}, "
            f"escape_rate={self.escape_rate:.4f}, regret={self.regret:.4f})"
        )


def regret_matching_attack(
    game: TupleGame,
    defender: MixedConfiguration,
    rounds: int = 5_000,
    seed: int = 0,
) -> AdaptiveAttackResult:
    """Play one regret-matching attacker against a fixed defender mixture.

    Each round the defender samples a tuple from ``defender``'s tuple
    distribution; the attacker samples a vertex proportionally to its
    positive cumulative regrets (uniform while all regrets are
    non-positive), then observes the *full* outcome (which vertices were
    covered) and updates every counterfactual regret.

    The defender's play does not depend on the attacker's, so all its
    tuples are drawn up front, followed by one uniform per round for the
    attacker's pick, from one ``numpy.random.default_rng(seed)``; the
    regret updates stay a sequential loop.
    """
    if defender.game != game:
        raise GameError("defender configuration belongs to a different game")
    if rounds < 1:
        raise GameError("at least one round is required")
    rng = np.random.default_rng(seed)
    vertices: Sequence[Vertex] = game.graph.sorted_vertices()
    tuples, tuple_draws = draw_tuples(defender, rng, rounds)
    coverage = [tuple_vertices(t) for t in tuples]
    uniforms = rng.random(rounds).tolist()

    cumulative_regret: Dict[Vertex, float] = {v: 0.0 for v in vertices}
    play_counts: Dict[Vertex, int] = {v: 0 for v in vertices}
    hindsight_escapes: Dict[Vertex, int] = {v: 0 for v in vertices}
    escapes = 0

    for drawn, u in zip(tuple_draws.tolist(), uniforms):
        positive = {v: r for v, r in cumulative_regret.items() if r > 0}
        if positive:
            total = sum(positive.values())
            pick = u * total
            acc = 0.0
            choice = vertices[-1]
            for v in vertices:
                weight = positive.get(v, 0.0)
                if weight <= 0.0:
                    continue
                acc += weight
                if pick <= acc:
                    choice = v
                    break
        else:
            choice = vertices[int(u * len(vertices))]

        covered = coverage[drawn]
        payoff = 0.0 if choice in covered else 1.0
        escapes += int(payoff)
        play_counts[choice] += 1
        for v in vertices:
            counterfactual = 0.0 if v in covered else 1.0
            if counterfactual:
                hindsight_escapes[v] += 1
            cumulative_regret[v] += counterfactual - payoff

    best_static = max(hindsight_escapes.values()) / rounds
    strategy = {
        v: c / rounds for v, c in play_counts.items() if c > 0
    }
    return AdaptiveAttackResult(
        rounds, escapes / rounds, best_static, hindsight_escapes, strategy
    )


def exploit_gap(result: AdaptiveAttackResult, equilibrium_value: float) -> float:
    """How far above the equilibrium escape guarantee the learner got.

    ``equilibrium_value`` is the duel value (catch probability); the
    defender's guarantee caps any attacker's escape rate at
    ``1 − value`` in expectation.  Positive return values mean the
    defender's schedule was exploitable (expected for naive schedules,
    vanishing for Lemma 4.1 mixtures).
    """
    return result.escape_rate - (1.0 - equilibrium_value)
