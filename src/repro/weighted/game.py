"""The weighted Tuple model: hosts with unequal values.

The paper treats all hosts alike: an attacker scores 1 for escaping
anywhere.  Real networks have crown jewels.  This extension attaches a
positive weight ``w(v)`` to every vertex: an attacker on ``v`` earns
``w(v)`` if it escapes and 0 if caught, and the defender earns the total
weight of the attackers it catches.

The game stays *strategically* zero-sum: the defender's catch
``w(v)·Hit(v)`` differs from the negated attacker payoff
``−w(v)·(1 − Hit(v))`` only by ``w(v)``, a constant in the defender's
action.  So the defender's best responses, and trivially the attacker's,
are those of the zero-sum game whose defender payoff matrix is the
negated escape ``D[t, v] = w(v)·([v ∈ V(t)] − 1)`` (see DESIGN.md §6),
and Nash equilibria coincide.  The offset ``w(v)`` does depend on the
attacker's action, so ``w(v)·[v ∈ V(t)]`` would be the wrong matrix:
against it the attacker would minimize ``w(v)·Hit(v)`` instead of
maximizing its escape.  That gives the weighted model the same
machinery:

* **pure NE** exist iff an edge cover of size ``k`` exists — Theorem 3.1's
  proof never uses the weights (an all-covering defender caps every
  attacker at its maximum-possible profit of 0);
* **mixed NE** come from the exact LP over the weighted matrix — the
  duel of :mod:`repro.solvers.lp` with a weight vector;
* the defender's best response is weighted k-edge coverage, so the
  double oracle of :mod:`repro.solvers.double_oracle` runs unchanged
  with the coverage kernel queried on ``q(v)·w(v)``.

What genuinely changes is the *structure*: uniform k-matching profiles
stop being equilibria (the attacker drifts to heavy vertices), and the
equilibrium hit probability on vertex ``v`` becomes ``1 − value/w(v)``
wherever the attacker is willing to stand — heavier hosts get scanned
proportionally harder.  Experiment E12 measures exactly that.
"""

from __future__ import annotations

import json
import math
from typing import Dict, Mapping, Tuple

import repro.cache as result_cache
from repro.core.configuration import MixedConfiguration, PureConfiguration
from repro.core.game import GameError, TupleGame
from repro.core.profits import all_hit_probabilities, all_vertex_masses
from repro.core.serialize import (
    _configuration_from_payload,
    _configuration_payload,
)
from repro.graphs.core import Graph, Vertex
from repro.solvers.best_response import best_tuple
from repro.solvers.double_oracle import _double_oracle_loop
from repro.solvers.lp import (
    LPSolution,
    _lp_solution_from_payload,
    _enumerated_minimax,
    _lp_solution_payload,
)

__all__ = [
    "WeightedTupleGame",
    "weighted_minimax",
    "weighted_lp_equilibrium",
    "weighted_double_oracle",
    "weighted_lp_result_to_json",
    "weighted_lp_result_from_json",
    "weighted_do_result_to_json",
    "weighted_do_result_from_json",
]


class WeightedTupleGame:
    """``Π_k(G)`` with vertex weights.

    Parameters
    ----------
    graph, k, nu:
        As in :class:`~repro.core.game.TupleGame`.
    weights:
        Strictly positive value per vertex; every vertex must be covered.
    """

    def __init__(
        self, graph: Graph, k: int, weights: Mapping[Vertex, float], nu: int = 1
    ) -> None:
        self.base = TupleGame(graph, k, nu)
        w: Dict[Vertex, float] = {}
        for v in graph.vertices():
            if v not in weights:
                raise GameError(f"vertex {v!r} has no weight")
            value = float(weights[v])
            if not (value > 0.0 and math.isfinite(value)):
                raise GameError(
                    f"vertex weights must be positive and finite; "
                    f"{v!r} has {value!r}"
                )
            w[v] = value
        extra = set(weights) - graph.vertices()
        if extra:
            raise GameError(f"weights given for non-vertices: {sorted(extra, key=repr)!r}")
        self.weights = w

    @property
    def graph(self) -> Graph:
        return self.base.graph

    @property
    def k(self) -> int:
        return self.base.k

    @property
    def nu(self) -> int:
        return self.base.nu

    def total_weight(self) -> float:
        return sum(self.weights.values())

    # ------------------------------------------------------------------
    # Profits
    # ------------------------------------------------------------------
    def pure_profit_attacker(self, config: PureConfiguration, i: int) -> float:
        """``w(s_i)`` if attacker ``i`` escapes, else 0."""
        v = config.vertex_choices[i]
        return 0.0 if v in config.covered_vertices() else self.weights[v]

    def pure_profit_defender(self, config: PureConfiguration) -> float:
        """Total weight of the caught attackers."""
        covered = config.covered_vertices()
        return sum(
            self.weights[v] for v in config.vertex_choices if v in covered
        )

    def expected_profit_attacker(self, config: MixedConfiguration, i: int) -> float:
        hits = all_hit_probabilities(config)
        return sum(
            p * self.weights[v] * (1.0 - hits[v])
            for v, p in config.vp_distribution(i).items()
        )

    def expected_profit_defender(self, config: MixedConfiguration) -> float:
        hits = all_hit_probabilities(config)
        masses = all_vertex_masses(config)
        return sum(
            masses[v] * self.weights[v] * hits[v] for v in self.graph.vertices()
        )

    # ------------------------------------------------------------------
    # Equilibrium checks
    # ------------------------------------------------------------------
    def verify_best_responses(
        self, config: MixedConfiguration, tol: float = 1e-9
    ) -> Tuple[bool, Dict[str, float]]:
        """First-principles NE check for the weighted game."""
        hits = all_hit_probabilities(config)
        best_attack = max(
            self.weights[v] * (1.0 - hits[v]) for v in self.graph.vertices()
        )
        gaps: Dict[str, float] = {}
        ok = True
        for i in range(self.nu):
            regret = best_attack - self.expected_profit_attacker(config, i)
            gaps[f"vp_{i}"] = regret
            if regret > tol:
                ok = False
        masses = all_vertex_masses(config)
        weighted_mass = {v: masses[v] * self.weights[v] for v in masses}
        _, best_defense = best_tuple(self.graph, weighted_mass, self.k)
        regret = best_defense - self.expected_profit_defender(config)
        gaps["tp"] = regret
        if regret > tol * max(1.0, self.total_weight()):
            ok = False
        return ok, gaps

    def __repr__(self) -> str:
        return (
            f"WeightedTupleGame(n={self.graph.n}, m={self.graph.m}, "
            f"k={self.k}, nu={self.nu})"
        )


def weighted_minimax(game: WeightedTupleGame) -> LPSolution:
    """Exact equilibrium of the weighted duel by LP.

    The duel of :func:`repro.solvers.lp.minimax_over_strategies` over the
    negated escape matrix ``D[t, v] = w(v)·([v ∈ V(t)] − 1)``, one LP
    with both mixtures certified.  The reported ``value`` is the
    equilibrium *escape* profit per attacker (minus the duel's value);
    the defender's per-attacker catch value follows from the attacker
    mixture.

    Raises :class:`~repro.core.game.GameError`, before enumerating any
    tuple, when ``C(m, k)`` exceeds :mod:`repro.solvers.lp`'s
    ``_TUPLE_LIMIT`` of 200,000 tuples.
    """
    return _escape_solution(_enumerated_minimax(game.base, game.weights))


def _escape_solution(solution: LPSolution) -> LPSolution:
    """A negated-escape duel optimum in escape units (``0.0 − value``,
    so a zero escape is never ``−0.0``)."""
    return LPSolution(0.0 - solution.value, solution.defender,
                      solution.attacker)


_LP_RESULT_FORMAT = "repro.weighted.lp-result.v2"
_DO_RESULT_FORMAT = "repro.weighted.double-oracle-result.v4"


def weighted_lp_result_to_json(
    config: MixedConfiguration, solution: LPSolution
) -> str:
    """Canonical JSON dump of a :func:`weighted_lp_equilibrium` outcome."""
    return _result_json(_LP_RESULT_FORMAT, config,
                        solution=_lp_solution_payload(solution))


def weighted_lp_result_from_json(
    text: str,
) -> Tuple[MixedConfiguration, LPSolution]:
    """Parse a :func:`weighted_lp_result_to_json` document (re-validated)."""
    return _WEIGHTED_LP_CALL.decode(text)


def weighted_do_result_to_json(
    config: MixedConfiguration, value: float
) -> str:
    """Canonical JSON dump of a :func:`weighted_double_oracle` outcome."""
    return _result_json(_DO_RESULT_FORMAT, config, value=float(value))


def weighted_do_result_from_json(
    text: str,
) -> Tuple[MixedConfiguration, float]:
    """Parse a :func:`weighted_do_result_to_json` document (re-validated)."""
    return _WEIGHTED_DO_CALL.decode(text)


def _result_json(format_tag: str, config: MixedConfiguration,
                 **fields) -> str:
    payload = {"format": format_tag,
               "configuration": _configuration_payload(config),
               **fields}
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def weighted_lp_equilibrium(
    game: WeightedTupleGame,
) -> Tuple[MixedConfiguration, LPSolution]:
    """A mixed NE of the weighted game from the LP optima.

    ``solution.value`` is the per-attacker *escape* profit at equilibrium.
    Cache-aware: with :mod:`repro.cache` enabled, a repeated solve of the
    same weighted game (same weights — the fingerprint carries them)
    replays the stored result, and the ledger record is stamped with
    ``cache_hit``.
    """
    return _WEIGHTED_LP_CALL(game)


def _weighted_lp_cold(
    game: WeightedTupleGame,
) -> Tuple[MixedConfiguration, LPSolution]:
    solution = weighted_minimax(game)
    return _configuration(game, solution), solution


_WEIGHTED_LP_CALL = result_cache.CachedCall(
    "weighted.lp_equilibrium", _weighted_lp_cold,
    lambda result: weighted_lp_result_to_json(*result),
    lambda payload: (_configuration_from_payload(payload["configuration"]),
                     _lp_solution_from_payload(payload["solution"])),
    _LP_RESULT_FORMAT,
)


def weighted_double_oracle(
    game: WeightedTupleGame,
    tolerance: float = 1e-9,
) -> Tuple[MixedConfiguration, float]:
    """Weighted equilibrium by lazy strategy generation.

    The weighted analogue of :func:`repro.solvers.double_oracle.double_oracle`
    for instances whose ``C(m, k)`` defeats :func:`weighted_minimax` —
    the same loop (coverage-kernel oracle, eager attacker pool read off
    the LP duals, exactness certificate) run on the negated escape: the
    defender oracle maximizes *weighted* coverage of the attacker mixture
    and the attacker oracle maximizes the escape profit ``w(v)(1 − hit(v))``.

    Returns ``(equilibrium configuration, escape value per attacker)``.
    Cache-aware like :func:`weighted_lp_equilibrium`.  Like the plain
    loop it has no iteration cap and stops only on its certificate;
    raises :class:`~repro.core.game.GameError` if the certified gap
    there exceeds ``2·tolerance``.
    """
    return _WEIGHTED_DO_CALL(game, tolerance=tolerance)


def _weighted_do_cold(
    game: WeightedTupleGame, tolerance: float
) -> Tuple[MixedConfiguration, float]:
    result = _double_oracle_loop(game.base, game.weights, tolerance)
    if not result.exact:
        raise GameError(
            f"weighted double oracle stalled short of the optimum "
            f"(certified gap {result.certified_gap!r})"
        )
    solution = _escape_solution(result.solution)
    return _configuration(game, solution), solution.value


_WEIGHTED_DO_CALL = result_cache.CachedCall(
    "weighted.double_oracle", _weighted_do_cold,
    lambda result: weighted_do_result_to_json(*result),
    lambda payload: (_configuration_from_payload(payload["configuration"]),
                     float(payload["value"])),
    _DO_RESULT_FORMAT,
)


def _configuration(
    game: WeightedTupleGame, solution: LPSolution
) -> MixedConfiguration:
    """Every attacker on the optimal mixture, the defender on its own."""
    return MixedConfiguration(game.base, [solution.attacker] * game.nu,
                              solution.defender)
