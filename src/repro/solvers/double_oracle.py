"""Double oracle: exact equilibria without enumerating ``E^k``.

The exact LP of :mod:`repro.solvers.lp` materializes all ``C(m, k)``
defender strategies — hopeless beyond small instances.  The double-oracle
algorithm (McMahan, Gordon & Blum 2003; the standard scaling technique in
the security-games literature) solves the same zero-sum duel by lazy
strategy generation:

1. solve the *restricted* duel over small strategy pools;
2. ask each side's **best-response oracle** for an improving strategy
   against the opponent's current optimal mixture — for the defender this
   is weighted k-edge coverage (the :mod:`repro.kernels` coverage oracle,
   exact), for the attacker the minimum-hit vertex;
3. add improving strategies to the pools and repeat; stop when neither
   oracle improves.  At that point the restricted equilibrium is an
   equilibrium of the *full* game, and the final oracle payoffs bracket
   the value (the gap certifies optimality).

The defender pool typically stays tiny — a few dozen tuples even when
``E^k`` has millions — because equilibrium supports are small (cf. the
``δ`` tuples of Lemma 4.8).  The attacker has only ``n`` pure strategies,
so by default the attacker pool is materialized *eagerly* (all vertices up
front) and the attacker mixture is read off the defender LP's duals: one
LP per iteration instead of two, and no iterations spent growing the
attacker pool one vertex at a time.  ``lazy_attacker=True`` restores the
textbook both-sides-lazy variant.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter
from typing import Callable, Dict, List, Mapping, Optional, Set

import repro.cache as result_cache
from repro.core.game import GameError, TupleGame
from repro.core.tuples import EdgeTuple, tuple_vertices
from repro.graphs.core import Vertex
from repro.kernels.coverage import CoverageOracle, shared_oracle
from repro.obs import events as obs_events
from repro.obs import get_logger, metrics, tracing
from repro.solvers.lp import (
    LPSolution,
    _lp_solution_from_payload,
    _lp_solution_payload,
    _MatrixDuel,
    _minimax,
    _payoff_matrix,
    _solve_duel,
    minimax_over_strategies,
)

__all__ = [
    "DOUBLE_ORACLE_CALL",
    "DoubleOracleResult",
    "double_oracle",
    "double_oracle_result_to_json",
    "double_oracle_result_from_json",
]

_log = get_logger("repro.solvers.double_oracle")


class DoubleOracleResult:
    """Outcome of a double-oracle run.

    Attributes
    ----------
    solution:
        Equilibrium value and mixtures (over the final pools).
    iterations:
        Outer iterations until neither oracle improved.
    defender_pool_size / attacker_pool_size:
        Final pool sizes — the point of the method is that the defender's
        stays far below ``C(m, k)``.
    certified_gap:
        ``defender_oracle_payoff − attacker_oracle_payoff`` at
        termination, with the defender payoff recomputed by an *exact*
        oracle when the run used the greedy one — so the gap is always a
        valid optimality certificate.
    exact:
        Whether the certificate holds: ``certified_gap`` within the
        convergence slack (``2·tolerance``, one tolerance per oracle).
        Always true for exact oracle methods; a greedy run that stalled
        below the true optimum reports ``False`` (and logs a warning).
    gap_history:
        The certified gap after each outer iteration, oldest first —
        the convergence trajectory that the scaling experiments plot.
    """

    __slots__ = (
        "solution",
        "iterations",
        "defender_pool_size",
        "attacker_pool_size",
        "certified_gap",
        "exact",
        "gap_history",
    )

    def __init__(
        self,
        solution: LPSolution,
        iterations: int,
        defender_pool_size: int,
        attacker_pool_size: int,
        certified_gap: float,
        gap_history: Optional[List[float]] = None,
        exact: bool = True,
    ) -> None:
        self.solution = solution
        self.iterations = iterations
        self.defender_pool_size = defender_pool_size
        self.attacker_pool_size = attacker_pool_size
        self.certified_gap = certified_gap
        self.exact = exact
        self.gap_history = list(gap_history) if gap_history is not None else []

    @property
    def value(self) -> float:
        return self.solution.value

    def __repr__(self) -> str:
        return (
            f"DoubleOracleResult(value={self.value:.6f}, "
            f"iterations={self.iterations}, "
            f"pools={self.defender_pool_size}/{self.attacker_pool_size}, "
            f"exact={self.exact})"
        )


_RESULT_FORMAT = "repro.solvers.double-oracle-result.v1"


def double_oracle_result_to_json(result: DoubleOracleResult) -> str:
    """Canonical, byte-deterministic JSON dump of a double-oracle result.

    Support mixtures are emitted in canonical strategy order and floats
    round-trip exactly, so the result-cache replay
    (:func:`double_oracle_result_from_json`) reproduces these bytes.
    """
    with metrics.timer("cache.encode.seconds"):
        payload = {
            "format": _RESULT_FORMAT,
            **_lp_solution_payload(result.solution),
            "iterations": result.iterations,
            "defender_pool_size": result.defender_pool_size,
            "attacker_pool_size": result.attacker_pool_size,
            "certified_gap": result.certified_gap,
            "gap_history": result.gap_history,
            "exact": result.exact,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def double_oracle_result_from_json(text: str) -> DoubleOracleResult:
    """Parse a :func:`double_oracle_result_to_json` document.

    Raises :class:`~repro.core.game.GameError` on malformed documents or
    a format tag this reader does not understand.
    """
    return DOUBLE_ORACLE_CALL.decode(text)


def _initial_defender_pool(oracle: CoverageOracle) -> List[EdgeTuple]:
    """Seed: a greedy family of tuples that together cover every vertex.

    Equilibrium defender supports rotate k-matchings until every vertex
    is protected (cf. Lemma 4.8), so a pool that already covers the whole
    vertex set starts the restricted LP near the final support — the
    remaining iterations only refine the mixture instead of discovering
    coverage one tuple at a time.  Each extra seed costs one greedy kernel
    query, orders of magnitude cheaper than the LP iteration it saves.
    """
    pool: List[EdgeTuple] = []
    seen: Set[EdgeTuple] = set()
    uncovered = set(oracle.vertices)
    first, _ = oracle.greedy({v: 1.0 for v in oracle.vertices})
    pool.append(first)
    seen.add(first)
    uncovered -= tuple_vertices(first)
    for _ in range(4 * oracle.n):
        if not uncovered:
            break
        masses = {v: (1.0 if v in uncovered else 0.0) for v in oracle.vertices}
        seed, value = oracle.greedy(masses)
        if value <= 0.0:
            break  # the rest of the vertices are not newly coverable
        if seed not in seen:
            pool.append(seed)
            seen.add(seed)
        uncovered -= tuple_vertices(seed)
    return pool


def double_oracle(
    game: TupleGame,
    tolerance: float = 1e-9,
    max_iterations: int = 200,
    method: str = "auto",
    lazy_attacker: bool = False,
) -> DoubleOracleResult:
    """Solve the duel of ``Π_k(G)`` by lazy strategy generation.

    ``method`` selects the defender-oracle coverage solver ("auto" uses
    the exact kernel searches; "greedy" trades the exactness certificate
    for speed on very large instances).  Greedy runs are re-certified at
    convergence with one exact oracle call: if the certified gap exceeds
    the convergence slack the result is returned with ``exact=False``, a
    warning is logged and ``double_oracle.inexact_convergence.count`` is
    bumped — greedy can stall on a suboptimal tuple that the restricted
    LP already contains, silently leaving value on the table.

    ``lazy_attacker=True`` grows the attacker pool one best-response
    vertex at a time (the textbook variant, two LPs per iteration)
    instead of materializing all ``n`` vertices up front.

    Raises :class:`~repro.core.game.GameError` if the oracles still
    improve after ``max_iterations`` (not observed in practice; a guard
    against pathological tolerance settings).
    """
    return DOUBLE_ORACLE_CALL(
        game, tolerance=tolerance, max_iterations=max_iterations,
        method=method, lazy_attacker=lazy_attacker,
    )


#: :func:`double_oracle`'s cache identity and cold path, shared with the
#: ``/double-oracle`` endpoint of :mod:`repro.serve`.
DOUBLE_ORACLE_CALL = result_cache.CachedCall(
    "solvers.double_oracle",
    lambda game, **params: _double_oracle_loop(game, None, **params),
    double_oracle_result_to_json,
    lambda payload: DoubleOracleResult(
        _lp_solution_from_payload(payload),
        int(payload["iterations"]),
        int(payload["defender_pool_size"]),
        int(payload["attacker_pool_size"]),
        float(payload["certified_gap"]),
        [float(g) for g in payload["gap_history"]],
        bool(payload["exact"]),
    ),
    _RESULT_FORMAT,
    attributes=lambda params: {"method": params["method"],
                               "lazy_attacker": params["lazy_attacker"]},
    scope=lambda game, _params: [tracing.span(
        "double_oracle.solve", n=game.graph.n, m=game.graph.m, k=game.k)],
)


def _double_oracle_loop(
    game: TupleGame,
    weights: Optional[Mapping[Vertex, float]],
    tolerance: float,
    max_iterations: int,
    method: str,
    lazy_attacker: bool,
    audit: Optional[
        Callable[[LPSolution, List[Vertex], List[EdgeTuple]], None]
    ] = None,
) -> DoubleOracleResult:
    """The loop over the duel of ``game``: payoff ``cov[t, v]``, or with
    vertex ``weights`` the negated escape ``w(v)·(cov[t, v] − 1)`` (values
    and gaps in those units).

    With the eager attacker pool the rows never change, so the loop keeps
    one :class:`~repro.solvers.lp._MatrixDuel` and adds one column per
    new defender tuple; the lazy pool rebuilds the two-LP duel each
    iteration.  ``audit(solution, attacker_pool, defender_pool)``, when
    given, sees every restricted optimum (the fuzz invariants re-solve
    it from scratch).
    """
    oracle = shared_oracle(game.graph, game.k)
    vertices = oracle.vertices
    defender_pool: List[EdgeTuple] = _initial_defender_pool(oracle)
    defender_seen: Set[EdgeTuple] = set(defender_pool)
    attacker_pool: List[Vertex] = (
        [vertices[0]] if lazy_attacker else list(vertices)
    )
    attacker_seen: Set[Vertex] = set(attacker_pool)
    restricted = None if lazy_attacker else _MatrixDuel(_payoff_matrix(
        vertices, defender_pool, tuple_vertices, weights))
    # The plain rebuilt duel goes through the public entry point (and its
    # span); both take the two-LP path.
    rebuilt = (minimax_over_strategies if weights is None else
               functools.partial(_minimax, weights=weights,
                                 dual_attacker=False))

    solution = None
    gap = float("inf")
    gap_history: List[float] = []
    oracle_timer = metrics.histogram("double_oracle.oracle.seconds")
    for iteration in range(1, max_iterations + 1):
        if restricted is None:
            solution = rebuilt(attacker_pool, defender_pool, tuple_vertices)
        else:
            solution = _solve_duel(restricted, vertices, defender_pool)
        if audit is not None:
            audit(solution, attacker_pool, defender_pool)

        # Defender oracle: best tuple against the attacker's mixture over
        # the *full* vertex set (off-pool vertices have mass 0); weighted,
        # a tuple scores its covered mass q·w minus the whole mass.
        masses: Dict[Vertex, float] = dict(solution.attacker)
        total_mass = 0.0
        if weights is not None:
            masses = {v: q * weights[v] for v, q in masses.items()}
            total_mass = sum(masses.values())
        with tracing.span("double_oracle.oracle.best_response"):
            oracle_start = perf_counter()
            best_def, covered = oracle.best(masses, method=method)
            oracle_timer.observe(perf_counter() - oracle_start)
        def_payoff = covered - total_mass

        # Attacker oracle: the first least-payoff vertex in canonical order.
        hit: Dict[Vertex, float] = {v: 0.0 for v in vertices}
        for t, p in solution.defender.items():
            for v in tuple_vertices(t):
                hit[v] += p
        column = hit if weights is None else {
            v: weights[v] * (hit[v] - 1.0) for v in vertices
        }
        best_att = min(vertices, key=column.__getitem__)
        att_payoff = column[best_att]

        gap = def_payoff - att_payoff
        gap_history.append(gap)
        obs_events.publish(
            "solver.iteration", solver="double_oracle",
            iteration=iteration, value=solution.value, gap=gap,
            defender_pool=len(defender_pool),
            attacker_pool=len(attacker_pool),
        )
        _log.debug(
            "double_oracle.iteration", i=iteration, value=solution.value,
            gap=gap, defender_pool=len(defender_pool),
            attacker_pool=len(attacker_pool),
        )
        improved = False
        if def_payoff > solution.value + tolerance and best_def not in defender_seen:
            defender_pool.append(best_def)
            defender_seen.add(best_def)
            if restricted is not None:
                restricted.add_column(_payoff_matrix(
                    vertices, [best_def], tuple_vertices, weights)[0])
            improved = True
        if att_payoff < solution.value - tolerance and best_att not in attacker_seen:
            attacker_pool.append(best_att)
            attacker_seen.add(best_att)
            improved = True
        if not improved:
            if method == "greedy":
                # A greedy defender oracle's payoff is NOT an upper
                # bound on the value, so the loop's gap is not a
                # certificate — re-certify with one exact query.
                _, exact_covered = oracle.best(masses, method="auto")
                gap = exact_covered - total_mass - att_payoff
                gap_history[-1] = gap
            # At convergence each oracle is within one `tolerance` of
            # the restricted value, so a certified gap beyond twice
            # that means the oracle stalled short of the optimum.
            exact = gap <= 2.0 * tolerance
            metrics.counter("double_oracle.runs.count").inc()
            metrics.counter("double_oracle.iterations.count").inc(iteration)
            metrics.gauge("double_oracle.pool.defender").set(len(defender_pool))
            metrics.gauge("double_oracle.pool.attacker").set(len(attacker_pool))
            metrics.gauge("double_oracle.gap").set(gap)
            if not exact:
                metrics.counter(
                    "double_oracle.inexact_convergence.count"
                ).inc()
                _log.warning(
                    "double_oracle.inexact_convergence",
                    method=method, value=solution.value, gap=gap,
                    tolerance=tolerance,
                )
            _log.info(
                "double_oracle.converged", iterations=iteration,
                value=solution.value, gap=gap, exact=exact,
            )
            obs_events.publish(
                "solver.iteration", solver="double_oracle",
                iteration=iteration, value=solution.value, gap=gap,
                defender_pool=len(defender_pool),
                attacker_pool=len(attacker_pool),
                converged=True, certified=exact,
            )
            return DoubleOracleResult(
                solution, iteration, len(defender_pool),
                len(attacker_pool), gap, gap_history, exact,
            )

    raise GameError(
        f"double oracle did not converge within {max_iterations} iterations "
        f"(remaining gap {gap!r})"
    )
