"""Double oracle: exact equilibria without enumerating ``E^k``.

The exact LP of :mod:`repro.solvers.lp` materializes all ``C(m, k)``
defender strategies — hopeless beyond small instances.  The double-oracle
algorithm (McMahan, Gordon & Blum 2003; the standard scaling technique in
the security-games literature) solves the same zero-sum duel by lazy
strategy generation:

1. solve the *restricted* duel over small strategy pools;
2. ask each side's **best-response oracle** for an improving strategy
   against the opponent's current optimal mixture — for the defender this
   is weighted k-edge coverage, for the attacker the minimum-hit vertex;
3. add improving strategies to the pools and repeat; stop when neither
   oracle improves.  At that point the restricted equilibrium is an
   equilibrium of the *full* game, and the final oracle payoffs bracket
   the value (the gap certifies optimality).

The defender side follows the column-generation recipe: the kernel's
greedy cover *proposes* new tuples, up to three per master solve (the
greedy cover, then greedy again with the vertices of the earlier
proposals zeroed), and every new proposal that prices out becomes a
column.  The exact oracle is asked only when none does; the loop stops
only when the exact oracle adds nothing, so the final gap is still a
certificate, while the exact search typically runs once per solve.  That
exact oracle is the coverage kernel's branch and bound on small games
and, beyond ``C(m, k) = 10¹⁵``, one HiGHS model of the same question as
a maximum-weight matching of at most ``k`` edges in ``G⁺``
(:class:`~repro.solvers.lp._CoverageMatching`), whose cost does not
swing with the attacker mixture as branch and bound's does.

The defender pool typically stays tiny — a few dozen tuples even when
``E^k`` has millions — because equilibrium supports are small (cf. the
``δ`` tuples of Lemma 4.8).  The attacker has only ``n`` pure strategies,
so the attacker pool is materialized *eagerly* (all vertices up front)
and the attacker mixture is read off the defender LP's duals, as in every
game LP: one certified LP per iteration, and no iterations spent growing
the attacker pool one vertex at a time.
"""

from __future__ import annotations

import itertools
import json
from time import perf_counter
from typing import Callable, Dict, List, Mapping, Optional, Set, Tuple

import repro.cache as result_cache
from repro.core.game import TupleGame
from repro.core.tuples import EdgeTuple, tuple_vertices
from repro.graphs.core import Vertex
from repro.kernels.coverage import CoverageOracle, shared_oracle
from repro.obs import events as obs_events
from repro.obs import get_logger, metrics, tracing
from repro.solvers.best_response import coverage_value
from repro.solvers.lp import (
    LPSolution,
    _CoverageMatching,
    _lp_solution_from_payload,
    _lp_solution_payload,
    _MatrixDuel,
    _payoff_matrix,
    _solve_duel,
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
        Outer iterations until the exact oracle found nothing to add.
    defender_pool_size / attacker_pool_size:
        Final pool sizes — the point of the method is that the defender's
        stays far below ``C(m, k)``.
    certified_gap:
        ``defender_oracle_payoff − attacker_oracle_payoff`` at
        termination, with the defender payoff from the *exact* oracle —
        a valid optimality certificate.
    exact:
        Whether the certificate holds: ``certified_gap`` within the
        convergence slack (``2·tolerance``, one tolerance per oracle).
    gap_history:
        One gap per outer iteration, oldest first — the convergence
        trajectory that the scaling experiments plot.  Only the last
        entry is certified: an iteration whose columns greedy proposed
        records the best proposal's payoff minus the attacker's, a lower
        bound on that iteration's true gap.
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


_RESULT_FORMAT = "repro.solvers.double-oracle-result.v4"

#: Greedy proposals per master solve (see :func:`_greedy_family`).
_GREEDY_PROPOSALS = 3

#: Runs certify with the kernel up to this many defender tuples ``C(m, k)``
#: and with the ``G⁺`` matching model above (see :func:`_certifier`).
_KERNEL_CERTIFICATE_TUPLES = 10**15


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


def _greedy_family(
    oracle: CoverageOracle, masses: Mapping[Vertex, float],
    cap: Optional[int],
) -> List[EdgeTuple]:
    """Greedy proposals against ``masses``: the greedy cover, then greedy
    again with the vertices of every earlier proposal zeroed — at most
    ``cap`` of them (no cap for ``None``), and none once the zeroed
    masses leave nothing to cover, so the proposals are distinct.

    One greedy kernel query per proposal, orders of magnitude cheaper
    than the master solve each column can save.
    """
    family: List[EdgeTuple] = []
    remaining = dict(masses)
    while cap is None or len(family) < cap:
        proposal, gain = oracle.greedy(remaining)
        if gain <= 0.0:
            break
        family.append(proposal)
        for v in tuple_vertices(proposal):
            remaining[v] = 0.0
    return family


def _initial_defender_pool(oracle: CoverageOracle) -> List[EdgeTuple]:
    """Seed: the greedy family on unit masses, uncapped — tuples that
    together cover every vertex.

    Equilibrium defender supports rotate k-matchings until every vertex
    is protected (cf. Lemma 4.8), so a pool that already covers the whole
    vertex set starts the restricted LP near the final support — the
    remaining iterations only refine the mixture instead of discovering
    coverage one tuple at a time.
    """
    return _greedy_family(oracle, {v: 1.0 for v in oracle.vertices}, None)


def _certifier(
    oracle: CoverageOracle, tolerance: float,
) -> Callable[[Mapping[Vertex, float]], Tuple[EdgeTuple, float]]:
    """The exact oracle that certifies a run: ``masses -> (tuple,
    bound)``, ``bound`` an upper bound on every tuple's coverage within
    ``tolerance`` of the optimum.

    That is the kernel's :meth:`~repro.kernels.coverage.CoverageOracle.best`
    up to :data:`_KERNEL_CERTIFICATE_TUPLES` defender tuples and, above,
    one :class:`~repro.solvers.lp._CoverageMatching` model of ``G⁺``,
    built on the first query and warm-started by the later ones.
    """
    if oracle.tuple_count <= _KERNEL_CERTIFICATE_TUPLES:
        return oracle.best
    model: Optional[_CoverageMatching] = None

    def certify(masses: Mapping[Vertex, float]) -> Tuple[EdgeTuple, float]:
        nonlocal model
        if model is None:
            model = _CoverageMatching(oracle, tolerance)
        return model.best(masses)

    return certify


def double_oracle(
    game: TupleGame,
    tolerance: float = 1e-9,
) -> DoubleOracleResult:
    """Solve the duel of ``Π_k(G)`` by lazy strategy generation.

    Greedy coverage proposes the defender's new tuples, up to three per
    iteration; when greedy has nothing to add, the exact oracle certifies
    — the coverage kernel up to ``C(m, k) = 10¹⁵`` tuples and the ``G⁺``
    matching model above.

    The loop has no iteration cap: it stops only when the exact oracle
    adds nothing, and every other iteration pools a new tuple, so it
    ends within ``C(m, k)`` iterations.  The game on
    ``random_bipartite_graph(100, 150, 0.025, seed=7)`` with ``k = 20``
    (m ≈ 400) converges in about 110, ``gnp_random_graph(200, 0.02,
    seed=1)`` with ``k = 20`` (m = 434) in 206.  The result is
    ``exact=False`` when the certified gap at that stop exceeds
    ``2·tolerance``.
    """
    return DOUBLE_ORACLE_CALL(game, tolerance=tolerance)


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
    scope=lambda game, _params: [tracing.span(
        "double_oracle.solve", n=game.graph.n, m=game.graph.m, k=game.k)],
)


def _double_oracle_loop(
    game: TupleGame,
    weights: Optional[Mapping[Vertex, float]],
    tolerance: float,
    audit: Optional[
        Callable[[LPSolution, List[Vertex], List[EdgeTuple]], None]
    ] = None,
) -> DoubleOracleResult:
    """The loop over the duel of ``game``: payoff ``cov[t, v]``, or with
    vertex ``weights`` the negated escape ``w(v)·(cov[t, v] − 1)`` (values
    and gaps in those units).

    The attacker pool holds every vertex, so the rows never change: the
    loop keeps one :class:`~repro.solvers.lp._MatrixDuel` and adds the
    one to three new defender tuples of an iteration in one
    :meth:`~repro.solvers.lp._MatrixDuel.add_columns` call.
    ``audit(solution, attacker_pool, defender_pool)``, when given, sees
    every restricted optimum (the fuzz invariants re-solve it from
    scratch and price the columns added since the last one).
    """
    oracle = shared_oracle(game.graph, game.k)
    certify = _certifier(oracle, tolerance)
    vertices = oracle.vertices
    defender_pool: List[EdgeTuple] = _initial_defender_pool(oracle)
    defender_seen: Set[EdgeTuple] = set(defender_pool)
    restricted = _MatrixDuel(_payoff_matrix(
        vertices, defender_pool, tuple_vertices, weights), tolerance)

    gap_history: List[float] = []
    oracle_timer = metrics.histogram("double_oracle.oracle.seconds")
    # The loop ends only on its certificate, an iteration that adds no
    # column.  Every other iteration pools at least one tuple outside
    # `defender_seen` (greedy's proposals are pairwise distinct, and they
    # and the certificate's tuple are filtered against it), so the pool
    # grows strictly and the loop ends within C(m, k) iterations.
    for iteration in itertools.count(1):
        solution = _solve_duel(restricted, vertices, defender_pool)
        if audit is not None:
            audit(solution, vertices, defender_pool)

        # Defender oracle: best tuples against the attacker's mixture over
        # the *full* vertex set (off-pool vertices have mass 0); weighted,
        # a tuple scores its covered mass q·w minus the whole mass.
        # Greedy proposes a family; every new proposal that prices out
        # becomes a column.  The exact oracle is asked only when none
        # does, so the loop can stop only on an exact answer.
        masses: Dict[Vertex, float] = dict(solution.attacker)
        total_mass = 0.0
        if weights is not None:
            masses = {v: q * weights[v] for v, q in masses.items()}
            total_mass = sum(masses.values())
        threshold = solution.value + tolerance
        with tracing.span("double_oracle.oracle.best_response"):
            oracle_start = perf_counter()
            columns: List[EdgeTuple] = []
            def_payoff = float("-inf")
            for proposal in _greedy_family(oracle, masses, _GREEDY_PROPOSALS):
                payoff = coverage_value(masses, proposal) - total_mass
                if payoff > threshold and proposal not in defender_seen:
                    columns.append(proposal)
                    def_payoff = max(def_payoff, payoff)
            if not columns:
                best_def, bound = certify(masses)
                def_payoff = bound - total_mass
                if (coverage_value(masses, best_def) - total_mass > threshold
                        and best_def not in defender_seen):
                    columns.append(best_def)
            oracle_timer.observe(perf_counter() - oracle_start)

        # Attacker oracle: the least payoff over all vertices.  Every
        # vertex is already pooled, so it only bounds the gap.
        hit: Dict[Vertex, float] = {v: 0.0 for v in vertices}
        for t, p in solution.defender.items():
            for v in tuple_vertices(t):
                hit[v] += p
        column = hit if weights is None else {
            v: weights[v] * (hit[v] - 1.0) for v in vertices
        }
        att_payoff = min(column.values())

        gap = def_payoff - att_payoff
        gap_history.append(gap)
        # At convergence each oracle is within one `tolerance` of the
        # restricted value, so a certified gap beyond twice that means
        # the loop stopped short of the optimum.
        exact = gap <= 2.0 * tolerance
        obs_events.publish(
            "solver.iteration", solver="double_oracle",
            iteration=iteration, value=solution.value, gap=gap,
            defender_pool=len(defender_pool),
            attacker_pool=len(vertices),
            **({} if columns else {"converged": True, "certified": exact}),
        )
        _log.debug(
            "double_oracle.iteration", i=iteration, value=solution.value,
            gap=gap, defender_pool=len(defender_pool),
            attacker_pool=len(vertices),
        )
        if not columns:
            break
        defender_pool.extend(columns)
        defender_seen.update(columns)
        restricted.add_columns(_payoff_matrix(
            vertices, columns, tuple_vertices, weights))

    metrics.counter("double_oracle.runs.count").inc()
    metrics.counter("double_oracle.iterations.count").inc(iteration)
    metrics.gauge("double_oracle.pool.defender").set(len(defender_pool))
    metrics.gauge("double_oracle.pool.attacker").set(len(vertices))
    metrics.gauge("double_oracle.gap").set(gap)
    _log.info(
        "double_oracle.converged", iterations=iteration,
        value=solution.value, gap=gap, exact=exact,
    )
    return DoubleOracleResult(
        solution, iteration, len(defender_pool),
        len(vertices), gap, gap_history, exact,
    )
