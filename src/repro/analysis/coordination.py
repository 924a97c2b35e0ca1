"""The value of coordination: one k-edge defender vs k lone scanners.

The paper's Tuple model gives *one* defender ``k`` links per round.  An
operationally tempting alternative deploys ``k`` independent scanners,
each picking one link per round from the same marginal distribution —
no coordination, possible collisions.  How much protection does the
coordination of the Tuple model buy?

Closed form for the structural schedules: at a k-matching (or perfect-
matching) equilibrium the coordinated defender hits every support vertex
with probability exactly ``k/ρ`` (Claim 4.3).  ``k`` independent scanners
drawing from the Edge-model equilibrium marginals hit it with probability
``1 − (1 − 1/ρ)^k`` — strictly less for ``k ≥ 2``, because independent
draws waste probability on collisions.  The gap

    ``k/ρ − (1 − (1 − 1/ρ)^k)``

is the *price of no coordination*; it grows roughly quadratically in
``k/ρ`` (second-order term ``C(k,2)/ρ²``).  This module computes both
sides analytically and by simulation, and experiment E14 tabulates them.

Scope note: this compares *schedules*, holding the attacker at the
structural support; it is not an equilibrium analysis of a k-player
defender game (whose strategic form is a different model).
"""

from __future__ import annotations

import numpy as np

from repro.core.game import GameError, TupleGame
from repro.equilibria.solve import solve_game
from repro.graphs.core import Graph
from repro.matching.covers import minimum_edge_cover_size
from repro.kernels.coverage import shared_oracle
from repro.simulation.engine import draw_tuples, draw_vertices

__all__ = [
    "coordinated_hit_probability",
    "uncoordinated_hit_probability",
    "coordination_gap",
    "simulate_uncoordinated",
]


def coordinated_hit_probability(graph: Graph, k: int) -> float:
    """Per-attacker hit probability of the Tuple-model defender: ``k/ρ``
    (Claim 4.3 with ``|E(D(tp))| = ρ(G)``)."""
    rho = minimum_edge_cover_size(graph)
    if k > rho:
        return 1.0
    return k / rho


def uncoordinated_hit_probability(graph: Graph, k: int) -> float:
    """Per-attacker hit probability of ``k`` independent lone scanners,
    each drawing uniformly from the ρ-edge structural cover:
    ``1 − (1 − 1/ρ)^k``."""
    rho = minimum_edge_cover_size(graph)
    return 1.0 - (1.0 - 1.0 / rho) ** k


def coordination_gap(graph: Graph, k: int) -> float:
    """``k/ρ − (1 − (1 − 1/ρ)^k)`` — protection lost without coordination.

    Zero at ``k = 1``, positive for ``2 ≤ k ≤ ρ``.
    """
    return coordinated_hit_probability(graph, k) - uncoordinated_hit_probability(
        graph, k
    )


def simulate_uncoordinated(
    graph: Graph, k: int, trials: int = 20_000, seed: int = 0
) -> float:
    """Monte-Carlo estimate of the uncoordinated hit probability.

    Plays the Edge-model structural equilibrium: one attacker on the
    equilibrium support, ``k`` scanners independently sampling the
    Edge-model defender mixture; returns the empirical catch rate.
    """
    if trials < 1:
        raise GameError("at least one trial is required")
    edge_game = TupleGame(graph, 1, nu=1)
    result = solve_game(edge_game)
    config = result.mixed
    rng = np.random.default_rng(seed)
    targets, target_draws = draw_vertices(config, 0, rng, trials)
    edges, scans = draw_tuples(config, rng, (trials, k))
    coverage, vertex_slot = shared_oracle(graph, 1).coverage_matrix(edges)
    slots = np.array([vertex_slot[v] for v in targets])[target_draws]
    caught = coverage[scans, slots[:, None]].any(axis=1)
    return float(caught.mean())
