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

Solved by HiGHS through scipy's bundled binding
``scipy.optimize._highspy._core._Highs`` (scipy >= 1.17.1): one
:class:`_MatrixDuel` model per duel, which the double-oracle loop grows by
its new columns each iteration so each restricted solve warm-starts from
the previous optimal basis, and which :mod:`repro.solvers.ranges` pins at
the game value to probe the optimal-strategy polytope.  Every solve
reads the attacker's mixture off the model's duals and certifies both
mixtures against the payoff matrix.  A model's first solve runs HiGHS's
default (dual) simplex, and that is the only solve a one-shot duel
makes; every later solve of the same model runs primal simplex, for
which the previous optimal basis is still a feasible start.  The same
binding answers the double oracle's certificate on large games:
:class:`_CoverageMatching` is the defender's best response as a matching
model of ``G⁺``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

try:
    from scipy.optimize._highspy._core import (
        HighsModelStatus,
        HighsVarType,
        _Highs,
    )
except ImportError as exc:
    raise ImportError(
        "repro.solvers.lp needs the HiGHS binding that scipy bundles as "
        "scipy.optimize._highspy._core._Highs (scipy >= 1.17.1); "
        f"importing it failed: {exc}"
    ) from exc

from repro.core.configuration import MixedConfiguration
from repro.core.game import GameError, TupleGame
from repro.core.tuples import EdgeTuple, all_tuples, tuple_vertices
from repro.graphs.core import tuple_sort_key, vertex_sort_key
from repro.graphs.properties import is_bipartite
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

#: The most tuples an exact duel over all of ``E^k`` enumerates
#: (:func:`solve_minimax`, :func:`repro.weighted.weighted_minimax`).
_TUPLE_LIMIT = 200_000
_PRUNE = 1e-10
#: HiGHS's ``simplex_strategy`` option value for primal simplex.
_PRIMAL_SIMPLEX = 4
#: The smallest feasibility tolerance HiGHS accepts.
_MIN_FEASIBILITY = 1e-10
#: How far, per unit of the largest payoff magnitude, a duel's returned
#: mixtures may miss its value (:meth:`_MatrixDuel.solve`).
_CERTIFICATE_SLACK = 1e-7


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


class _MatrixDuel:
    """One HiGHS model of the duel over a defender-payoff matrix ``A``:
    maximize ``z`` s.t. ``Σₜ pₜ·A[t, r] ≥ z`` for every attacker
    strategy ``r``, ``Σ p = 1``, ``p ≥ 0``.

    ``A`` has one row per defender strategy ``t`` (an LP column ``pₜ``)
    and one column per attacker strategy ``r`` (an LP row).
    :meth:`add_columns` appends defender strategies and the next
    :meth:`solve` warm-starts from the previous optimal basis by primal
    simplex, so the double-oracle loop grows one model instead of
    rebuilding it every iteration.  The model keeps the payoff rows it
    is given, against which :meth:`solve` certifies its answer.
    """

    __slots__ = ("_highs", "_z", "_payoff")

    def __init__(self, payoff: np.ndarray,
                 tolerance: Optional[float] = None) -> None:
        count, attackers = payoff.shape
        highs = _Highs()
        highs.setOptionValue("output_flag", False)
        if tolerance is not None:
            # A duel certified to ``tolerance`` needs its optimum feasible
            # to about that: at HiGHS's default 1e-7 the defender mixture
            # can fall short of the value by more than the certificate
            # allows.
            for option in ("primal_feasibility_tolerance",
                           "dual_feasibility_tolerance"):
                highs.setOptionValue(option, max(tolerance, _MIN_FEASIBILITY))
        # LP row r < attackers reads z − Σₜ pₜ·A[t, r] ≤ 0, the last one
        # Σ p = 1.  The p columns come first and z after them: the column
        # order decides which optimal vertex of a degenerate duel HiGHS
        # returns, and this one keeps one-shot results byte-identical to
        # earlier releases.
        highs.addRows(
            attackers + 1, np.append(np.full(attackers, -np.inf), 1.0),
            np.append(np.zeros(attackers), 1.0), 0,
            np.zeros(attackers + 1, np.int32), np.empty(0, np.int32),
            np.empty(0),
        )
        self._highs = highs
        self._payoff = payoff[:0]
        self.add_columns(payoff)
        # z is free with cost −1: HiGHS minimizes.
        self._z = count
        highs.addCol(-1.0, -np.inf, np.inf, attackers,
                     np.arange(attackers, dtype=np.int32), np.ones(attackers))

    def add_columns(self, payoff: np.ndarray) -> None:
        """Append one column per row of ``payoff``, in one bulk call."""
        self._payoff = np.concatenate((self._payoff, payoff))
        count = payoff.shape[0]
        entries = np.hstack([-payoff, np.ones((count, 1))])
        columns, rows = np.nonzero(entries)
        self._highs.addCols(
            count, np.zeros(count), np.zeros(count),
            np.full(count, np.inf), len(rows),
            np.searchsorted(columns, np.arange(count)).astype(np.int32),
            rows.astype(np.int32), entries[columns, rows],
        )

    def solve(self) -> Tuple[float, np.ndarray, np.ndarray]:
        """``(value, p, q)``: the duel's value, the defender's optimal
        weights ``p`` and the attacker's optimal mixture ``q``, read off
        the negated duals of the attacker rows (stationarity of z makes
        them sum to 1, complementary slackness puts mass only on min-hit
        strategies).  Raises :class:`~repro.core.game.GameError` unless
        ``max_t (A q)_t`` and ``min_r (pᵀA)_r`` are within
        :data:`_CERTIFICATE_SLACK` (per unit of ``max |A|``) of the value.
        """
        value, weights, attacker = self._optimum()
        payoff = self._payoff
        slack = _CERTIFICATE_SLACK * max(1.0, float(np.abs(payoff).max()))
        concedes = float((payoff @ attacker).max())
        guarantees = float((weights @ payoff).min())
        if concedes > value + slack or guarantees < value - slack:
            raise GameError(
                f"duel LP certificate failed: value {value!r}, but the "
                f"attacker mixture concedes {concedes!r} and the defender "
                f"mixture guarantees {guarantees!r}"
            )
        return value, weights, attacker

    def _optimum(self) -> Tuple[float, np.ndarray, np.ndarray]:
        """Run HiGHS and read ``(value, p, q)`` off its optimum."""
        highs = self._highs
        self._run("duel LP")
        solution = highs.getSolution()
        return (
            -highs.getObjectiveValue(),
            np.delete(solution.col_value, self._z),
            -np.asarray(solution.row_dual)[:self._payoff.shape[1]],
        )

    def _run(self, model: str) -> None:
        """Run HiGHS; raise :class:`~repro.core.game.GameError`, naming
        ``model``, unless the model status is optimal.

        The first run of a model keeps HiGHS's default (dual) simplex.
        Every later run restarts from the previous optimal basis, which
        stays primal feasible under what the callers change: a column
        from :meth:`add_columns` enters at 0, and :meth:`minimize_pinned`'s
        new costs do not touch feasibility (pinning ``z`` moves it by the
        probes' relaxation only).  Primal simplex is the textbook restart
        for that, as in column generation, where dual simplex would start
        each re-solve dual infeasible and pay its phase 1.
        """
        highs = self._highs
        highs.run()
        highs.setOptionValue("simplex_strategy", _PRIMAL_SIMPLEX)
        status = highs.getModelStatus()
        if status != HighsModelStatus.kOptimal:
            raise GameError(
                f"{model} failed: {highs.modelStatusToString(status)}"
            )

    def minimize_pinned(self, guarantee: float, costs: np.ndarray) -> float:
        """Fix ``z`` at ``guarantee``, give the ``p`` columns the costs
        ``costs`` and return ``min costs·p`` over the defender mixtures
        that guarantee at least ``guarantee``.

        The model stays pinned, so a run of probes against one
        ``guarantee`` warm-starts each from the last optimal basis;
        :meth:`solve` no longer solves the duel afterwards.  Raises
        :class:`~repro.core.game.GameError` when that polytope is empty
        (``guarantee`` above the duel's value) or the solve fails.
        """
        highs = self._highs
        highs.changeColBounds(self._z, guarantee, guarantee)
        count = len(costs) + 1
        highs.changeColsCost(count, np.arange(count, dtype=np.int32),
                             np.insert(costs, self._z, 0.0))
        self._run("pinned duel LP")
        return highs.getObjectiveValue()


class _CoverageMatching:
    """One HiGHS model of the defender's best response as a matching.

    "``k`` edges covering the most vertex weight" is a maximum-weight
    matching of at most ``k`` edges in ``G⁺``: ``G`` plus one pendant edge
    per non-isolated vertex ``v``, weighing ``w(v)``, where a ``G``-edge
    ``(u, v)`` weighs ``w(u) + w(v)``.  One column per ``G``-edge and per
    pendant, in ``[0, 1]``; one row per vertex (its matched edges ``≤ 1``)
    and one cardinality row (``≤ k``).  On bipartite ``G`` the LP is a
    ``k``-unit flow and so integral; otherwise the columns are integer
    and the model is a MIP solved to an absolute gap of ``tolerance``.

    The model is built once; :meth:`best` only changes the column costs,
    so each LP re-solve warm-starts from the last optimal basis, which a
    cost change leaves primal feasible.
    """

    __slots__ = ("_highs", "_oracle", "_eu", "_ev", "_pendants", "_integral")

    def __init__(self, oracle, tolerance: float) -> None:
        vertices, edges = oracle.vertices, oracle.edges
        slot = oracle.vertex_slot
        n, m = len(vertices), len(edges)
        eu = np.array([slot(u) for u, _ in edges], np.int32)
        ev = np.array([slot(v) for _, v in edges], np.int32)
        pendants = np.array(
            [i for i, v in enumerate(vertices) if oracle.incident_edge_slots(v)],
            np.int32,
        )
        highs = _Highs()
        highs.setOptionValue("output_flag", False)
        highs.addRows(
            n + 1, np.full(n + 1, -np.inf),
            np.append(np.ones(n), float(oracle.k)), 0,
            np.zeros(n + 1, np.int32), np.empty(0, np.int32), np.empty(0),
        )
        # A G-edge column has entries in rows u, v and n (cardinality), a
        # pendant column in rows v and n.
        count = m + len(pendants)
        cardinality = np.full(count, n, np.int32)
        index = np.concatenate([
            np.column_stack([eu, ev, cardinality[:m]]).ravel(),
            np.column_stack([pendants, cardinality[m:]]).ravel(),
        ]).astype(np.int32)
        starts = np.append(np.arange(0, 3 * m, 3),
                           3 * m + np.arange(0, 2 * len(pendants), 2))
        highs.addCols(
            count, np.zeros(count), np.zeros(count), np.ones(count),
            len(index), starts.astype(np.int32), index, np.ones(len(index)),
        )
        self._integral = not is_bipartite(oracle.graph)
        if self._integral:
            highs.changeColsIntegrality(
                count, np.arange(count, dtype=np.int32),
                np.full(count, HighsVarType.kInteger, np.uint8),
            )
            highs.setOptionValue("mip_rel_gap", 0.0)
            highs.setOptionValue("mip_abs_gap", tolerance)
        self._highs = highs
        self._oracle = oracle
        self._eu = eu
        self._ev = ev
        self._pendants = pendants

    def best(self, weights) -> Tuple[EdgeTuple, float]:
        """``(tuple, bound)``: a ``k``-tuple decoded from the optimal
        matching and an upper bound on every ``k``-tuple's coverage of
        ``weights`` (nonnegative, by vertex): the LP's weak-duality bound
        or the MIP's dual bound, within ``tolerance`` of the optimum."""
        metrics.counter("lp.matching.solve.count").inc()
        highs = self._highs
        oracle = self._oracle
        w = np.array([weights.get(v, 0.0) for v in oracle.vertices])
        costs = -np.concatenate([w[self._eu] + w[self._ev], w[self._pendants]])
        count = len(costs)
        highs.changeColsCost(count, np.arange(count, dtype=np.int32), costs)
        with metrics.timer("lp.matching.solve.seconds"):
            highs.run()
        status = highs.getModelStatus()
        if status != HighsModelStatus.kOptimal:
            raise GameError(
                f"matching model failed: {highs.modelStatusToString(status)}"
            )
        solution = highs.getSolution()
        if self._integral:
            bound = -highs.getInfo().mip_dual_bound
        else:
            # Weak duality with any row duals y ≥ 0 bounds the optimum by
            # Σ b·y plus each column's positive reduced cost; at HiGHS's
            # optimum that is its objective, up to its tolerances.
            y = np.maximum(-np.asarray(solution.row_dual), 0.0)
            priced = np.concatenate([y[self._eu] + y[self._ev],
                                     y[self._pendants]]) + y[-1]
            bound = (y[:-1].sum() + oracle.k * y[-1]
                     + np.maximum(-costs - priced, 0.0).sum())
            highs.setOptionValue("simplex_strategy", _PRIMAL_SIMPLEX)
        picked = np.asarray(solution.col_value) > 0.5
        m = len(self._eu)
        return self._decode(np.flatnonzero(picked[:m]),
                            self._pendants[picked[m:]]), float(bound)

    def _decode(self, matched: np.ndarray, pendants: np.ndarray) -> EdgeTuple:
        """The matched edges, then for each pendant vertex still uncovered
        its lowest-slot unused incident edge, then the lowest unused
        slots until ``k`` edges — coverage at least the matching's."""
        oracle = self._oracle
        eu, ev = self._eu, self._ev
        chosen = set(matched.tolist())
        covered = set(eu[matched].tolist()) | set(ev[matched].tolist())
        for v in pendants.tolist():
            if v in covered:
                continue
            for e in oracle.incident_edge_slots(oracle.vertices[v]):
                if e not in chosen:
                    chosen.add(e)
                    covered.update((int(eu[e]), int(ev[e])))
                    break
        filler = iter(range(oracle.m))
        while len(chosen) < oracle.k:
            chosen.add(next(e for e in filler if e not in chosen))
        edges = oracle.edges
        return tuple(edges[e] for e in sorted(chosen))


@tracing.traced("lp.minimax_over_strategies")
def minimax_over_strategies(vertices, strategies, coverage_of) -> LPSolution:
    """Generic zero-sum minimax: defender mixes over ``strategies``, the
    attacker over ``vertices``; ``coverage_of(strategy)`` yields the
    vertices that strategy protects.

    :func:`solve_minimax` runs the same duel over every k-tuple; this
    is the engine under the generalized defender models of
    :mod:`repro.models` (path and star defenders), which differ only in
    the strategy family.
    """
    return _minimax(vertices, strategies, coverage_of, None)


def _payoff_matrix(vertices, strategies, coverage_of, weights) -> np.ndarray:
    """The 0/1 coverage matrix ``A[t, v]``, or with vertex ``weights`` the
    negated escape ``w(v)·(A[t, v] − 1)``.

    Strategies may protect vertices outside the attacker's set (e.g. in
    the restricted duels of the double-oracle solver); those columns
    simply do not exist in this duel.
    """
    vertex_index = {v: i for i, v in enumerate(vertices)}
    payoff = np.zeros((len(strategies), len(vertices)))
    for row, strategy in enumerate(strategies):
        for v in coverage_of(strategy):
            column = vertex_index.get(v)
            if column is not None:
                payoff[row, column] = 1.0
    if weights is not None:
        w = np.array([weights[v] for v in vertices])
        payoff = w[None, :] * (payoff - 1.0)
    return payoff


def _minimax(vertices, strategies, coverage_of, weights) -> LPSolution:
    """:func:`minimax_over_strategies` over :func:`_payoff_matrix`."""
    vertices = list(vertices)
    strategies = list(strategies)
    if not vertices or not strategies:
        raise GameError("minimax needs non-empty strategy sets on both sides")
    payoff = _payoff_matrix(vertices, strategies, coverage_of, weights)
    return _solve_duel(_MatrixDuel(payoff), vertices, strategies)


def _solve_duel(duel: _MatrixDuel, vertices, strategies) -> LPSolution:
    """Solve ``duel``, built over ``strategies`` × ``vertices`` (one-shot,
    or the double-oracle loop's, grown column by column), with the
    attacker read off the duals and both mixtures certified, under the
    ``lp.solve`` counter, histograms, span, debug log and event."""
    t_count, n = len(strategies), len(vertices)
    metrics.counter("lp.solve.count").inc()
    metrics.histogram("lp.matrix.strategies").observe(t_count)
    metrics.histogram("lp.matrix.vertices").observe(n)
    with tracing.span("lp.solve", strategies=t_count, vertices=n), \
            metrics.timer("lp.solve.seconds") as timing:
        value, weights, attacker = duel.solve()
        solution = LPSolution(float(value),
                              _prune_and_normalize(weights, strategies),
                              _prune_and_normalize(attacker, vertices))
    _log.debug(
        "lp.solve", strategies=t_count, vertices=n,
        value=solution.value, seconds=timing.elapsed,
    )
    obs_events.publish(
        "lp.solve", strategies=t_count, vertices=n,
        value=solution.value, seconds=timing.elapsed,
    )
    return solution


def _enumerated_minimax(game: TupleGame, weights=None) -> LPSolution:
    """The duel over all ``C(m, k)`` tuples of ``game`` — the negated
    escape duel with vertex ``weights`` — once the count is checked
    against :data:`_TUPLE_LIMIT`, so an oversized game raises
    :class:`~repro.core.game.GameError` before any tuple is enumerated."""
    total_tuples = game.tuple_strategy_count()
    if total_tuples > _TUPLE_LIMIT:
        raise GameError(
            f"C(m={game.m}, k={game.k}) = {total_tuples} tuples exceed the "
            f"LP limit of {_TUPLE_LIMIT}"
        )
    return _minimax(game.graph.sorted_vertices(),
                    all_tuples(game.graph, game.k), tuple_vertices, weights)


@tracing.traced("lp.solve_minimax")
def solve_minimax(game: TupleGame) -> LPSolution:
    """Solve the Tuple-model duel exactly over the full strategy sets.

    Raises :class:`~repro.core.game.GameError` when the defender's
    strategy set exceeds the module's ``_TUPLE_LIMIT`` of 200,000 tuples
    (the LP matrix would not fit) — use the structural algorithms or
    fictitious play there instead.
    """
    with obs_ledger.run("solvers.lp.solve_minimax", game=game,
                        tuples=game.tuple_strategy_count()):
        return _enumerated_minimax(game)


@tracing.traced("lp.lp_equilibrium")
def lp_equilibrium(game: TupleGame) -> Tuple[MixedConfiguration, LPSolution]:
    """A (possibly unstructured) mixed NE assembled from the LP optima.

    Every vertex player adopts the optimal attacker distribution, the
    tuple player the optimal defender distribution; by zero-sum
    exchangeability the profile is a mixed NE of ``Π_k(G)``.
    """
    solution = solve_minimax(game)
    config = MixedConfiguration(
        game, [solution.attacker] * game.nu, solution.defender
    )
    return config, solution


def lp_defender_gain(game: TupleGame) -> float:
    """The defender's equilibrium gain ``ν · value`` — exact, unstructured."""
    return game.nu * solve_minimax(game).value
