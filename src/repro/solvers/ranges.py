"""Probing the optimal-strategy polytopes: what *every* equilibrium needs.

The LP minimax of :mod:`repro.solvers.lp` returns *one* optimal strategy
per side, but equilibria of the duel are rarely unique — Lemma 4.1's
uniform profile and the LP's vertex solution can differ while sharing the
value.  For deployment questions one wants the whole polytope:

* *which hosts can a rational attacker use at all?*  — vertex ``v`` is
  usable iff some optimal attacker mixture puts positive mass on it;
* *which links must every optimal scan schedule cover?* — edge ``e`` is
  mandatory iff its marginal probability is positive in every optimal
  defender mixture.

Both reduce to secondary LPs over the optimality polytope: fix the game
value ``v*`` (computed once), then minimize / maximize the coordinate of
interest subject to the optimality constraints.  Exact, no enumeration of
equilibria needed.  Each side is one :class:`~repro.solvers.lp._MatrixDuel`
— the duel model every other game LP uses — with its guarantee ``z``
pinned at the relaxed optimum; its ``2 × coordinates`` probes (and the
widened retry) only change column costs, so each warm-starts from the
last, by primal simplex.  ``v*`` is one solve of the defender's duel on
the coverage matrix ``A``, the very model the defender side then pins;
:func:`strategy_ranges` builds that matrix and solves that duel once for
both sides.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.core.game import GameError, TupleGame
from repro.core.tuples import all_tuples, tuple_vertices
from repro.graphs.core import edge_sort_key, vertex_sort_key
from repro.obs import events as obs_events
from repro.obs import ledger as obs_ledger
from repro.obs import metrics, tracing
from repro.solvers.lp import _MatrixDuel, _payoff_matrix

__all__ = [
    "SIDES",
    "StrategyRanges",
    "attacker_vertex_ranges",
    "defender_edge_ranges",
    "strategy_ranges",
]

#: The two polytopes :func:`strategy_ranges` probes.
SIDES = ("attacker", "defender")

_TOL = 1e-9
_TOL_WIDEN = 1e4
"""Infeasibility fallback: one retry with the relaxation widened by this
factor (1e-9 → 1e-5) before giving up.

The duel's value ``v*`` carries solver error around 1e-8 on some
instances; relaxing the optimality constraints by a smaller tolerance can
make the probed polytope *empty*, so a probe would fail on games that
are perfectly well-posed.  The relaxation is relative (scaled by
``max(1, |v*|)``) and the widened retry keeps the probe well inside any
meaningful probability resolution (ranges are reported at 1e-7)."""
_TUPLE_LIMIT = 100_000
"""The most tuples :func:`strategy_ranges` enumerates; it also bounds
what one served ``/ranges`` request may cost."""


def _relaxation(value: float) -> float:
    """Relative optimality relaxation for the probe LPs."""
    return _TOL * max(1.0, abs(value))


class StrategyRanges:
    """Per-coordinate [min, max] probabilities over an optimal polytope.

    ``sort_key`` is the canonical key function for the coordinate keys —
    :func:`~repro.graphs.core.vertex_sort_key` for attacker (vertex)
    ranges, :func:`~repro.graphs.core.edge_sort_key` for defender (edge)
    ranges.  When omitted it is inferred from the key shape (edges are
    2-tuples; vertices are ints or strings), so :meth:`required` /
    :meth:`usable` always report in the same canonical order as
    :meth:`~repro.graphs.core.Graph.sorted_edges` and the serializers —
    sorting edges with the vertex key would drop mixed-label graphs into
    the ``(type_name, repr)`` fallback and diverge.
    """

    __slots__ = ("value", "ranges", "sort_key")

    def __init__(self, value: float, ranges: Dict, sort_key=None) -> None:
        self.value = value
        self.ranges = ranges
        if sort_key is None:
            sort_key = (
                edge_sort_key
                if any(isinstance(key, tuple) for key in ranges)
                else vertex_sort_key
            )
        self.sort_key = sort_key

    def required(self, tol: float = 1e-7) -> List:
        """Coordinates positive in *every* optimal strategy (min > 0)."""
        return sorted(
            (key for key, (low, _) in self.ranges.items() if low > tol),
            key=self.sort_key,
        )

    def usable(self, tol: float = 1e-7) -> List:
        """Coordinates positive in *some* optimal strategy (max > 0)."""
        return sorted(
            (key for key, (_, high) in self.ranges.items() if high > tol),
            key=self.sort_key,
        )

    def __repr__(self) -> str:
        return (
            f"StrategyRanges(value={self.value:.6f}, "
            f"coordinates={len(self.ranges)})"
        )


def _coverage(game: TupleGame):
    """The sorted vertices, every k-tuple and the 0/1 coverage matrix."""
    if game.tuple_strategy_count() > _TUPLE_LIMIT:
        raise GameError(
            f"C(m={game.m}, k={game.k}) exceeds the probing limit "
            f"{_TUPLE_LIMIT}"
        )
    vertices = game.graph.sorted_vertices()
    tuples = list(all_tuples(game.graph, game.k))
    return vertices, tuples, _payoff_matrix(vertices, tuples, tuple_vertices,
                                            None)


def _probe_ranges(
    side: str, duel: _MatrixDuel, duel_value: float, value: float,
    keys: List, costs: np.ndarray, sort_key,
) -> StrategyRanges:
    """[min, max] of ``costs[i]·p`` for each ``keys[i]`` over the mixtures
    of ``duel`` that guarantee its value ``duel_value`` up to the
    relaxation — retried once, widened, if that polytope is empty."""
    last_error = None
    for widen in (1.0, _TOL_WIDEN):
        z = duel_value - widen * _relaxation(value)
        obs_events.publish(
            "solver.iteration", solver=f"ranges.{side}",
            probes=2 * len(keys), widen=widen, value=value,
        )
        try:
            ranges = {}
            for key, row in zip(keys, costs):
                low = duel.minimize_pinned(z, row)
                high = -duel.minimize_pinned(z, -row)
                ranges[key] = (max(0.0, low), min(1.0, high))
            return StrategyRanges(value, ranges, sort_key=sort_key)
        except GameError as exc:
            # v* carries solver error; an over-tight relaxation can empty
            # the optimality polytope.  Retry once, widened.
            last_error = exc
            metrics.counter("ranges.probe.retry.count").inc()
    raise GameError(
        f"{side} range probes infeasible even with a widened tolerance "
        f"({_TOL_WIDEN:g}x): {last_error}"
    )


def strategy_ranges(
    game: TupleGame,
    sides: Sequence[str] = SIDES,
) -> Dict[str, StrategyRanges]:
    """The ranges of each of ``sides`` (``"attacker"``, ``"defender"``),
    keyed by side in the order given.

    Both sides share one coverage matrix and one solve of the defender's
    duel for ``v*``; each answer is the one the side's own function
    returns, bit for bit.  Raises :class:`~repro.core.game.GameError`,
    before enumerating any tuple, when ``C(m, k)`` exceeds the module's
    ``_TUPLE_LIMIT`` of 100,000 tuples.
    """
    sides = tuple(sides)
    if not sides or not set(sides) <= set(SIDES):
        raise ValueError(f"sides must be drawn from {SIDES}; got {sides!r}")
    entry = "both" if len(set(sides)) > 1 else sides[0]
    with obs_ledger.run(f"solvers.ranges.{entry}", game=game), \
            tracing.span("ranges", sides=entry, n=game.graph.n, k=game.k):
        return _strategy_ranges(game, sides)


def _strategy_ranges(
    game, sides, solve_minimax=None
) -> Dict[str, StrategyRanges]:
    """:func:`strategy_ranges` without the ledger run; a
    ``solve_minimax`` stand-in, when given, supplies ``v*``."""
    vertices, tuples, coverage = _coverage(game)
    # The defender's duel A: its one solve gives v*, and the defender
    # side then pins it.
    duel = _MatrixDuel(coverage)
    if solve_minimax is not None:
        value = solve_minimax(game).value
    else:
        value = float(duel.solve()[0])
    out: Dict[str, StrategyRanges] = {}
    for side in sides:
        metrics.counter(f"ranges.{side}.count").inc()
        with tracing.span(f"ranges.{side}", n=game.graph.n, k=game.k), \
                metrics.timer(f"ranges.{side}.seconds"):
            if side == "attacker":
                # The attacker's duel on −Aᵀ has value −v*; pinning
                # z = −(v* + ε) leaves exactly the q with (A q)_t ≤ v* + ε.
                out[side] = _probe_ranges(
                    side, _MatrixDuel(-coverage.T), -value, value,
                    vertices, np.eye(len(vertices)), vertex_sort_key,
                )
            else:
                edges = game.graph.sorted_edges()
                # Row e of the cost matrix is e's tuple membership [e ∈ t].
                membership = _payoff_matrix(edges, tuples, lambda t: t,
                                            None).T
                out[side] = _probe_ranges(
                    side, duel, value, value, edges, membership,
                    edge_sort_key,
                )
    return out


def attacker_vertex_ranges(game: TupleGame) -> StrategyRanges:
    """[min, max] probability of each vertex across optimal attacker
    mixtures.

    The optimality polytope is ``{q ≥ 0 : Σq = 1, (A q)_t ≤ v* ∀t}``.
    """
    return strategy_ranges(game, ("attacker",))["attacker"]


def defender_edge_ranges(game: TupleGame) -> StrategyRanges:
    """[min, max] *marginal* probability of each edge (the chance the
    schedule scans it) across optimal defender mixtures.

    The optimality polytope is ``{p ≥ 0 : Σp = 1, (Aᵀ p)_v ≥ v* ∀v}``;
    the probed coordinate is ``Σ_{t ∋ e} p_t``.
    """
    return strategy_ranges(game, ("defender",))["defender"]
