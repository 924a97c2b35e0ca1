"""Exact minimax LP baseline for the Tuple model.

The Tuple model is strategically a zero-sum duel: every attacker's payoff
depends only on the defender's strategy, so an NE of the ν-attacker game is
exactly "all players play optimal strategies of the 2-player zero-sum game
defender-vs-one-attacker" with defender value scaled by ``ν``.  That game
is solvable exactly by linear programming over the full strategy sets —
exponential in ``k`` (the defender has ``C(m, k)`` tuples) but exact, which
makes it the ideal *unstructured baseline* against which the paper's
structural equilibria are validated:

* the game value must equal ``k / ρ(G)`` whenever a k-matching NE exists
  (Claim 4.3 with ``|E(D(tp))| = ρ(G)``);
* the defender's optimal gain ``ν · value`` must reproduce the linear-in-k
  law of Theorem 4.5 — including on graphs (e.g. Petersen) where the
  structural machinery does not apply.

This is the package's only game LP: the defender maximizes the minimum
column payoff of a matrix — the 0/1 coverage ``cov[t, v]`` here, the
negated escape ``w(v)·(cov[t, v] − 1)`` for :mod:`repro.weighted`.

Solved with ``scipy.optimize.linprog`` (HiGHS).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np
from scipy.optimize import linprog

from repro.core.configuration import MixedConfiguration
from repro.core.game import GameError, TupleGame
from repro.core.tuples import EdgeTuple, all_tuples, tuple_vertices
from repro.graphs.core import tuple_sort_key, vertex_sort_key
from repro.obs import events as obs_events
from repro.obs import get_logger, metrics, tracing
from repro.obs import ledger as obs_ledger

_log = get_logger("repro.solvers.lp")

__all__ = [
    "LPSolution",
    "minimax_over_strategies",
    "solve_minimax",
    "lp_equilibrium",
    "lp_defender_gain",
]

_DEFAULT_TUPLE_LIMIT = 200_000
_PRUNE = 1e-10


class LPSolution:
    """Optimal strategies and value of the defender-vs-attacker duel.

    Attributes
    ----------
    value:
        The game value: the hit probability an optimal defender forces on
        an optimal attacker (per attacker).
    defender:
        Optimal defender distribution over k-edge tuples (support only).
    attacker:
        Optimal attacker distribution over vertices (support only).
    """

    __slots__ = ("value", "defender", "attacker")

    def __init__(
        self,
        value: float,
        defender: Dict[EdgeTuple, float],
        attacker: Dict,
    ) -> None:
        self.value = value
        self.defender = defender
        self.attacker = attacker

    def __repr__(self) -> str:
        return (
            f"LPSolution(value={self.value:.6f}, "
            f"defender_support={len(self.defender)}, "
            f"attacker_support={len(self.attacker)})"
        )


def _lp_solution_payload(solution: LPSolution) -> Dict:
    """``solution`` for the result codecs, supports in canonical order."""
    return {
        "value": solution.value,
        "defender": [
            [[list(e) for e in t], p]
            for t, p in sorted(
                solution.defender.items(),
                key=lambda item: tuple_sort_key(item[0]),
            )
        ],
        "attacker": [
            [v, p]
            for v, p in sorted(
                solution.attacker.items(),
                key=lambda item: vertex_sort_key(item[0]),
            )
        ],
    }


def _lp_solution_from_payload(payload: Dict) -> LPSolution:
    """Inverse of :func:`_lp_solution_payload`."""
    return LPSolution(
        float(payload["value"]),
        {
            tuple(tuple(e) for e in t): float(p)
            for t, p in payload["defender"]
        },
        {v: float(p) for v, p in payload["attacker"]},
    )


def _prune_and_normalize(raw: np.ndarray, keys: List) -> Dict:
    clipped = np.clip(raw, 0.0, None)
    clipped[clipped < _PRUNE] = 0.0
    total = clipped.sum()
    if total <= 0.0:
        raise GameError("LP produced an empty distribution (solver failure)")
    return {
        key: float(p / total) for key, p in zip(keys, clipped) if p > 0.0
    }


@tracing.traced("lp.minimax_over_strategies")
def minimax_over_strategies(
    vertices, strategies, coverage_of, dual_attacker: bool = False
) -> LPSolution:
    """Generic zero-sum minimax: defender mixes over ``strategies``, the
    attacker over ``vertices``; ``coverage_of(strategy)`` yields the
    vertices that strategy protects.

    This is the engine under :func:`solve_minimax` and under the
    generalized defender models of :mod:`repro.models` (path and star
    defenders), which differ only in the strategy family.

    With ``dual_attacker=True`` the attacker's optimal mixture is read off
    the dual multipliers of the defender LP instead of solving a second
    LP — half the solver calls, exact by LP duality (HiGHS returns the
    optimal basis duals).  The default keeps the two-LP path, whose
    explicit duality-gap check the validation suites rely on.
    """
    return _minimax(vertices, strategies, coverage_of, None, dual_attacker)


def _minimax(
    vertices, strategies, coverage_of, weights, dual_attacker: bool
) -> LPSolution:
    """:func:`minimax_over_strategies` over the 0/1 coverage matrix, or
    with vertex ``weights`` over the negated escape ``w(v)·(cov − 1)``."""
    vertices = list(vertices)
    strategies = list(strategies)
    if not vertices or not strategies:
        raise GameError("minimax needs non-empty strategy sets on both sides")
    vertex_index = {v: i for i, v in enumerate(vertices)}
    n, t_count = len(vertices), len(strategies)

    # Coverage matrix A[t][v] = 1 iff strategy t protects vertex v.
    # Strategies may protect vertices outside the attacker's set (e.g. in
    # the restricted duels of the double-oracle solver); those columns
    # simply do not exist in this duel.
    payoff = np.zeros((t_count, n))
    for row, strategy in enumerate(strategies):
        for v in coverage_of(strategy):
            column = vertex_index.get(v)
            if column is not None:
                payoff[row, column] = 1.0
    if weights is not None:
        w = np.array([weights[v] for v in vertices])
        payoff = w[None, :] * (payoff - 1.0)
    return _solve_matrix_duel(payoff, vertices, strategies, dual_attacker)


def _solve_matrix_duel(
    payoff, vertices, strategies, dual_attacker: bool = False
) -> LPSolution:
    """Solve the LP(s) for a defender-payoff matrix and package the optima."""
    t_count, n = payoff.shape
    metrics.counter("lp.solve.count").inc()
    metrics.histogram("lp.matrix.strategies").observe(t_count)
    metrics.histogram("lp.matrix.vertices").observe(n)
    with tracing.span("lp.solve", strategies=t_count, vertices=n), \
            metrics.timer("lp.solve.seconds") as timing:
        solution = _solve_matrix_duel_inner(
            payoff, vertices, strategies, dual_attacker
        )
    _log.debug(
        "lp.solve", strategies=t_count, vertices=n,
        value=solution.value, seconds=timing.elapsed,
    )
    obs_events.publish(
        "lp.solve", strategies=t_count, vertices=n,
        value=solution.value, seconds=timing.elapsed,
    )
    return solution


def _solve_matrix_duel_inner(
    payoff, vertices, strategies, dual_attacker: bool
) -> LPSolution:
    t_count, n = payoff.shape

    # Defender LP: maximize z s.t. (p^T A)_v >= z for all v, sum p = 1.
    # Variables x = (p_0..p_{T-1}, z); minimize -z.
    c = np.zeros(t_count + 1)
    c[-1] = -1.0
    a_ub = np.hstack([-payoff.T, np.ones((n, 1))])  # z - (A^T p)_v <= 0
    b_ub = np.zeros(n)
    a_eq = np.zeros((1, t_count + 1))
    a_eq[0, :t_count] = 1.0
    b_eq = np.array([1.0])
    bounds = [(0.0, None)] * t_count + [(None, None)]
    defender_res = linprog(
        c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds,
        method="highs",
    )
    if not defender_res.success:
        raise GameError(f"defender LP failed: {defender_res.message}")

    if dual_attacker:
        # The multipliers of the vertex rows are the attacker's optimal
        # mixture: stationarity of the z column forces them to sum to 1,
        # and complementary slackness puts mass only on min-hit vertices.
        duals = -np.asarray(defender_res.ineqlin.marginals)
        attacker = _prune_and_normalize(duals, list(vertices))
        defender = _prune_and_normalize(defender_res.x[:t_count], strategies)
        return LPSolution(float(-defender_res.fun), defender, attacker)

    # Attacker LP: minimize z' s.t. (A q)_t <= z' for all t, sum q = 1.
    c2 = np.zeros(n + 1)
    c2[-1] = 1.0
    a_ub2 = np.hstack([payoff, -np.ones((t_count, 1))])
    b_ub2 = np.zeros(t_count)
    a_eq2 = np.zeros((1, n + 1))
    a_eq2[0, :n] = 1.0
    attacker_res = linprog(
        c2, A_ub=a_ub2, b_ub=b_ub2, A_eq=a_eq2, b_eq=np.array([1.0]),
        bounds=[(0.0, None)] * n + [(None, None)], method="highs",
    )
    if not attacker_res.success:
        raise GameError(f"attacker LP failed: {attacker_res.message}")

    value_defender = -defender_res.fun
    value_attacker = attacker_res.fun
    if abs(value_defender - value_attacker) > 1e-7:
        raise GameError(
            "LP duality gap: defender value "
            f"{value_defender!r} vs attacker value {value_attacker!r}"
        )

    defender = _prune_and_normalize(defender_res.x[:t_count], strategies)
    attacker = _prune_and_normalize(attacker_res.x[:n], vertices)
    return LPSolution(float(value_defender), defender, attacker)


@tracing.traced("lp.solve_minimax")
def solve_minimax(
    game: TupleGame, tuple_limit: int = _DEFAULT_TUPLE_LIMIT
) -> LPSolution:
    """Solve the Tuple-model duel exactly over the full strategy sets.

    Raises :class:`~repro.core.game.GameError` when the defender's
    strategy set exceeds ``tuple_limit`` (the LP matrix would not fit) —
    use the structural algorithms or fictitious play there instead.
    """
    total_tuples = game.tuple_strategy_count()
    if total_tuples > tuple_limit:
        raise GameError(
            f"C(m={game.m}, k={game.k}) = {total_tuples} tuples exceed the "
            f"LP limit of {tuple_limit}"
        )
    with obs_ledger.run("solvers.lp.solve_minimax", game=game,
                        tuples=total_tuples):
        return minimax_over_strategies(
            game.graph.sorted_vertices(),
            all_tuples(game.graph, game.k),
            tuple_vertices,
        )


@tracing.traced("lp.lp_equilibrium")
def lp_equilibrium(
    game: TupleGame, tuple_limit: int = _DEFAULT_TUPLE_LIMIT
) -> Tuple[MixedConfiguration, LPSolution]:
    """A (possibly unstructured) mixed NE assembled from the LP optima.

    Every vertex player adopts the optimal attacker distribution, the
    tuple player the optimal defender distribution; by zero-sum
    exchangeability the profile is a mixed NE of ``Π_k(G)``.
    """
    solution = solve_minimax(game, tuple_limit=tuple_limit)
    config = MixedConfiguration(
        game, [solution.attacker] * game.nu, solution.defender
    )
    return config, solution


def lp_defender_gain(
    game: TupleGame, tuple_limit: int = _DEFAULT_TUPLE_LIMIT
) -> float:
    """The defender's equilibrium gain ``ν · value`` — exact, unstructured."""
    return game.nu * solve_minimax(game, tuple_limit=tuple_limit).value
