"""Fictitious play — a learning-dynamics baseline for the duel.

Brown–Robinson fictitious play on the defender-vs-attacker zero-sum game:
each round both sides best-respond to the opponent's *empirical mixture*.
In zero-sum games the empirical mixtures converge to optimal strategies and
the best-response payoffs sandwich the game value, so this provides an
anytime, enumeration-free estimate of the defender's equilibrium gain —
usable on instances where the exact LP (over ``C(m,k)`` tuples) is out of
reach, and a second independent confirmation of the linear-in-k law on
instances where it is not.

The defender's best response is the exact k-edge coverage maximum,
answered by the amortized :mod:`repro.kernels` coverage oracle — built
once per run, queried every round — so both value bounds are exact
bounds.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

import repro.cache as result_cache
from repro.core.game import GameError, TupleGame
from repro.core.tuples import EdgeTuple, tuple_vertices
from repro.graphs.core import Vertex, tuple_sort_key, vertex_sort_key
from repro.kernels.coverage import shared_oracle
from repro.obs import events as obs_events
from repro.obs import get_logger, metrics, tracing

__all__ = [
    "FICTITIOUS_PLAY_CALL",
    "FictitiousPlayResult",
    "fictitious_play",
    "fictitious_play_result_to_json",
    "fictitious_play_result_from_json",
]

_log = get_logger("repro.solvers.fictitious_play")


class FictitiousPlayResult:
    """Trace and outcome of a fictitious-play run.

    Attributes
    ----------
    rounds:
        Number of iterations played.
    lower_bound / upper_bound:
        Sandwich on the per-attacker game value: the defender's average
        payoff against the attacker's empirical mixture (upper) and the
        hit probability the attacker could still secure (lower).
    value_estimate:
        Midpoint of the final sandwich.
    attacker_strategy / defender_strategy:
        The empirical mixtures (support only).
    history:
        Per-round ``(lower, upper)`` bound pairs, for convergence plots.
    residual_history:
        Per-round sandwich widths ``upper − lower`` (derived from
        ``history``) — the convergence residual trajectory.
    """

    __slots__ = (
        "rounds",
        "lower_bound",
        "upper_bound",
        "attacker_strategy",
        "defender_strategy",
        "history",
    )

    def __init__(
        self,
        rounds: int,
        lower_bound: float,
        upper_bound: float,
        attacker_strategy: Dict[Vertex, float],
        defender_strategy: Dict[EdgeTuple, float],
        history: List[Tuple[float, float]],
    ) -> None:
        self.rounds = rounds
        self.lower_bound = lower_bound
        self.upper_bound = upper_bound
        self.attacker_strategy = attacker_strategy
        self.defender_strategy = defender_strategy
        self.history = history

    @property
    def value_estimate(self) -> float:
        return (self.lower_bound + self.upper_bound) / 2.0

    @property
    def residual_history(self) -> List[float]:
        """Per-round convergence residuals ``upper − lower``."""
        return [upper - lower for lower, upper in self.history]

    @property
    def gap(self) -> float:
        return self.upper_bound - self.lower_bound

    def defender_gain_estimate(self, nu: int) -> float:
        """Estimated equilibrium gain for a ν-attacker instance."""
        return nu * self.value_estimate

    def __repr__(self) -> str:
        return (
            f"FictitiousPlayResult(rounds={self.rounds}, "
            f"value≈{self.value_estimate:.4f}, gap={self.gap:.4f})"
        )


_RESULT_FORMAT = "repro.solvers.fictitious-play-result.v1"


def fictitious_play_result_to_json(result: FictitiousPlayResult) -> str:
    """Canonical, byte-deterministic JSON dump of a fictitious-play run.

    Strategies are emitted in canonical order with exact float
    round-trip, so cache replay
    (:func:`fictitious_play_result_from_json`) reproduces these bytes.
    """
    with metrics.timer("cache.encode.seconds"):
        payload = {
            "format": _RESULT_FORMAT,
            "rounds": result.rounds,
            "lower_bound": result.lower_bound,
            "upper_bound": result.upper_bound,
            "attacker_strategy": [
                [v, p]
                for v, p in sorted(
                    result.attacker_strategy.items(),
                    key=lambda item: vertex_sort_key(item[0]),
                )
            ],
            "defender_strategy": [
                [[list(e) for e in t], p]
                for t, p in sorted(
                    result.defender_strategy.items(),
                    key=lambda item: tuple_sort_key(item[0]),
                )
            ],
            "history": [[lower, upper] for lower, upper in result.history],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def fictitious_play_result_from_json(text: str) -> FictitiousPlayResult:
    """Parse a :func:`fictitious_play_result_to_json` document.

    Raises :class:`~repro.core.game.GameError` on malformed documents or
    an unknown format tag.
    """
    return FICTITIOUS_PLAY_CALL.decode(text)


def fictitious_play(
    game: TupleGame,
    rounds: int = 200,
    tolerance: Optional[float] = None,
) -> FictitiousPlayResult:
    """Run fictitious play for the duel underlying ``Π_k(G)``.

    Parameters
    ----------
    game:
        The instance; only its graph and ``k`` matter (value is
        per-attacker).
    rounds:
        Maximum iterations (at least 1).
    tolerance:
        Optional early stop once ``upper − lower ≤ tolerance``; must be
        positive when given.

    Raises
    ------
    GameError
        On degenerate parameters (``rounds < 1``, ``tolerance <= 0``).
    """
    _check_params(rounds, tolerance)
    return FICTITIOUS_PLAY_CALL(game, rounds=rounds, tolerance=tolerance)


def _check_params(rounds: int, tolerance: Optional[float]) -> None:
    # Parameter validation happens before the cache probe: invalid
    # parameters must never mint a cache key (or a ledger record claiming
    # a run happened), and ``rounds=0`` would otherwise surface as a bare
    # ``ValueError: max() arg is an empty sequence`` from the history
    # reduction (and a zero division building the empirical strategies).
    if rounds < 1:
        raise GameError(f"fictitious play needs rounds >= 1; got {rounds}")
    if tolerance is not None and tolerance <= 0:
        raise GameError(
            f"fictitious play needs a positive tolerance; got {tolerance}"
        )


def _fictitious_play_finish(_game: TupleGame, _params: Dict[str, Any],
                            result: FictitiousPlayResult) -> None:
    metrics.counter("fictitious_play.runs.count").inc()
    metrics.counter("fictitious_play.rounds.count").inc(result.rounds)
    metrics.gauge("fictitious_play.residual").set(result.gap)
    _log.info(
        "fictitious_play.finished", rounds=result.rounds,
        value=result.value_estimate, residual=result.gap,
    )


#: :func:`fictitious_play`'s cache identity and cold path, shared with the
#: ``/fictitious-play`` endpoint of :mod:`repro.serve` (whose schema
#: enforces the parameter checks :func:`fictitious_play` makes first).
FICTITIOUS_PLAY_CALL = result_cache.CachedCall(
    "solvers.fictitious_play",
    lambda game, **params: _run_fictitious_play(game, **params),
    fictitious_play_result_to_json,
    lambda payload: FictitiousPlayResult(
        int(payload["rounds"]),
        float(payload["lower_bound"]),
        float(payload["upper_bound"]),
        {v: float(p) for v, p in payload["attacker_strategy"]},
        {
            tuple(tuple(e) for e in t): float(p)
            for t, p in payload["defender_strategy"]
        },
        [(float(lower), float(upper))
         for lower, upper in payload["history"]],
    ),
    _RESULT_FORMAT,
    scope=lambda game, params: [
        tracing.span("fictitious_play.run", n=game.graph.n, k=game.k,
                     max_rounds=params["rounds"]),
        metrics.timer("fictitious_play.run.seconds"),
    ],
    finish=_fictitious_play_finish,
)


def _run_fictitious_play(
    game: TupleGame,
    rounds: int,
    tolerance: Optional[float],
) -> FictitiousPlayResult:
    graph = game.graph
    oracle = shared_oracle(graph, game.k)
    vertices = oracle.vertices

    # Ties among the attacker's best responses break by ``repr(v)`` on
    # purpose: canonical order steers other trajectories, made the
    # fp-rounds benchmark 1.6–1.8× slower (same answers) and would change
    # every stored fictitious-play result.  ``min`` keeps the first of
    # equal keys, so scanning the vertices in ``repr`` order (a stable
    # sort, built once per run) is that tie-break.
    by_repr = sorted(vertices, key=repr)

    attacker_counts: Dict[Vertex, int] = {}
    defender_counts: Dict[EdgeTuple, int] = {}
    # Cumulative hit tallies: hit_mass[v] = number of past defender
    # responses covering v.
    hit_mass: Dict[Vertex, float] = {v: 0.0 for v in vertices}

    # Round 0 seeds: attacker at the deterministically-first vertex.
    current_attack: Vertex = vertices[0]
    history: List[Tuple[float, float]] = []
    lower = 0.0
    upper = 1.0

    for round_index in range(1, rounds + 1):
        attacker_counts[current_attack] = attacker_counts.get(current_attack, 0) + 1
        # Defender best-responds to the attacker's empirical mixture.
        weights = {v: c / round_index for v, c in attacker_counts.items()}
        response, response_value = oracle.best(weights)
        defender_counts[response] = defender_counts.get(response, 0) + 1
        for v in tuple_vertices(response):
            hit_mass[v] += 1.0
        # Attacker best-responds to the defender's empirical mixture:
        # the vertex with the lowest empirical hit probability, ties
        # broken by ``repr(v)`` (see ``by_repr``).
        current_attack = min(by_repr, key=hit_mass.__getitem__)
        # Value sandwich: the defender's best response against the
        # empirical attacker guarantees >= value; the attacker's best
        # response against the empirical defender concedes <= value.
        upper = response_value
        lower = hit_mass[current_attack] / round_index
        history.append((lower, upper))
        obs_events.publish(
            "solver.iteration", solver="fictitious_play",
            round=round_index, lower=lower, upper=upper,
            residual=upper - lower,
        )
        if tolerance is not None and upper - lower <= tolerance:
            break

    total_rounds = len(history)
    attacker_strategy = {
        v: c / total_rounds
        for v, c in sorted(
            attacker_counts.items(), key=lambda item: vertex_sort_key(item[0])
        )
    }
    defender_strategy = {
        t: c / total_rounds
        for t, c in sorted(
            defender_counts.items(), key=lambda item: tuple_sort_key(item[0])
        )
    }
    # Report the tightest bounds seen (both are valid bounds every round).
    best_lower = max(l for l, _ in history)
    best_upper = min(u for _, u in history)
    return FictitiousPlayResult(
        total_rounds,
        best_lower,
        best_upper,
        attacker_strategy,
        defender_strategy,
        history,
    )
