"""Mixed profiles and structural equilibria for generalized defenders.

The Tuple model's profile containers assume k-edge tuples, so the
family-restricted games of :mod:`repro.models.game` carry their own
lightweight mixed-profile representation: one shared attacker distribution
over vertices (attackers are symmetric) and one defender distribution over
family strategies.

Two pieces of machinery:

* :func:`verify_generalized_nash` — first-principles NE check by scanning
  both strategy sets for profitable deviations (the generic analogue of
  conditions 2(a)/3(a) of Theorem 3.4);
* :func:`uniform_family_equilibrium` — candidate-and-verify lift of the
  paper's uniform constructions: defender uniform over the *whole* family,
  attackers uniform over ``V``.  It is an NE exactly when (i) every
  family strategy covers the same number of vertices (so condition 3
  holds with the uniform attacker) and (ii) the uniform defender hits all
  vertices equally (a symmetry property, checked numerically).  On
  vertex-/edge-transitive graphs this recovers e.g. the *rotating path
  patrol* on cycles — the structural equilibrium of the path-defender
  variation the paper's related work [8] raises.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core.game import GameError
from repro.core.tuples import EdgeTuple, tuple_vertices
from repro.graphs.core import Vertex
from repro.models.game import GeneralizedGame

__all__ = [
    "generalized_hit_probabilities",
    "generalized_defender_profit",
    "verify_generalized_nash",
    "uniform_family_equilibrium",
]


def _validate_distribution(dist: Dict, kind: str, tol: float = 1e-9) -> None:
    if not dist:
        raise GameError(f"{kind} distribution has empty support")
    if any(p < 0 for p in dist.values()):
        raise GameError(f"{kind} distribution has negative probabilities")
    total = sum(dist.values())
    if abs(total - 1.0) > tol * max(1, len(dist)):
        raise GameError(f"{kind} distribution sums to {total!r}, not 1")


def generalized_hit_probabilities(
    game: GeneralizedGame, defender: Dict[EdgeTuple, float]
) -> Dict[Vertex, float]:
    """``P(Hit(v))`` under a defender mixture over family strategies."""
    hits: Dict[Vertex, float] = {v: 0.0 for v in game.graph.vertices()}
    for strategy, p in defender.items():
        for v in tuple_vertices(strategy):
            hits[v] += p
    return hits


def generalized_defender_profit(
    game: GeneralizedGame,
    attacker: Dict[Vertex, float],
    defender: Dict[EdgeTuple, float],
) -> float:
    """Expected attackers caught: ``ν · Σ_v q_v · Hit(v)``."""
    hits = generalized_hit_probabilities(game, defender)
    return game.nu * sum(p * hits[v] for v, p in attacker.items())


def verify_generalized_nash(
    game: GeneralizedGame,
    attacker: Dict[Vertex, float],
    defender: Dict[EdgeTuple, float],
    tol: float = 1e-9,
) -> Tuple[bool, Dict[str, float]]:
    """First-principles NE check for a family-restricted profile.

    Returns ``(is_nash, gaps)`` with the attacker's and defender's
    best-response regrets (per attacker, and for the defender in expected
    catches respectively).
    """
    _validate_distribution(attacker, "attacker")
    _validate_distribution(defender, "defender")
    for strategy in defender:
        if strategy not in set(game.strategies):
            raise GameError(f"defender strategy {strategy!r} is not in the family")
    for v in attacker:
        if not game.graph.has_vertex(v):
            raise GameError(f"attacker vertex {v!r} is not in the graph")

    hits = generalized_hit_probabilities(game, defender)
    # Attacker: expected escape vs best single vertex.
    expected_escape = sum(p * (1.0 - hits[v]) for v, p in attacker.items())
    best_escape = max(1.0 - hits[v] for v in game.graph.vertices())
    attacker_regret = best_escape - expected_escape

    # Defender: expected coverage of attacker mass vs best strategy.
    expected_catch = sum(
        p * sum(attacker.get(v, 0.0) for v in tuple_vertices(strategy))
        for strategy, p in defender.items()
    )
    best_catch = max(
        sum(attacker.get(v, 0.0) for v in tuple_vertices(strategy))
        for strategy in game.strategies
    )
    defender_regret = best_catch - expected_catch

    gaps = {"attacker": attacker_regret, "defender": defender_regret}
    return attacker_regret <= tol and defender_regret <= tol, gaps


def uniform_family_equilibrium(
    game: GeneralizedGame, tol: float = 1e-12
) -> Tuple[Dict[Vertex, float], Dict[EdgeTuple, float]]:
    """Candidate-and-verify: both sides uniform.

    Returns ``(attacker, defender)`` distributions when the candidate is
    an NE; raises :class:`~repro.core.game.GameError` with the violated
    property otherwise.  Sound, not complete — the generalized analogue
    of :func:`repro.equilibria.families.uniform_kmatching_equilibrium`.
    """
    coverage_sizes = {len(tuple_vertices(s)) for s in game.strategies}
    if len(coverage_sizes) != 1:
        raise GameError(
            "family strategies cover unequal vertex counts "
            f"({sorted(coverage_sizes)}); the uniform defender cannot make "
            "every support strategy a best response"
        )
    vertices = game.graph.sorted_vertices()
    attacker = {v: 1.0 / len(vertices) for v in vertices}
    defender = {s: 1.0 / len(game.strategies) for s in game.strategies}
    hits = generalized_hit_probabilities(game, defender)
    spread = max(hits.values()) - min(hits.values())
    if spread > tol:
        raise GameError(
            f"the uniform family does not equalize hit probabilities "
            f"(spread {spread:.3e}); the candidate is not an NE"
        )
    ok, gaps = verify_generalized_nash(game, attacker, defender, tol=1e-9)
    if not ok:  # implied by the two checks above; belt and braces
        raise GameError(f"the uniform family is not an NE: {gaps!r}")
    return attacker, defender
