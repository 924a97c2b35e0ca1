"""Defender-gain analysis: the paper's headline linear-in-k law.

Section 1.2 ("the gain of the defender ... is linear to the parameter k")
is quantified by Corollaries 4.7/4.10: at the structural equilibria the
defender earns ``k · ν / ρ(G)`` where ``ρ(G) = |IS| = n − ν(G)`` is the
minimum-edge-cover size.  This module sweeps ``k`` on a fixed instance,
records analytic / LP / simulated gains, and fits the through-origin slope
so benchmark E6 can report "slope ≈ ν/ρ(G), residual ≈ 0".
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional

from repro.core.game import TupleGame
from repro.graphs.core import Graph
from repro.equilibria.solve import solve_game
from repro.matching.covers import minimum_edge_cover_size

__all__ = ["GainPoint", "gain_curve", "fit_slope_through_origin", "max_linearity_residual"]


class GainPoint:
    """One sweep sample: defender power vs equilibrium gain."""

    __slots__ = ("k", "kind", "gain", "lp_gain", "simulated_gain")

    def __init__(
        self,
        k: int,
        kind: str,
        gain: float,
        lp_gain: Optional[float] = None,
        simulated_gain: Optional[float] = None,
    ) -> None:
        self.k = k
        self.kind = kind
        self.gain = gain
        self.lp_gain = lp_gain
        self.simulated_gain = simulated_gain

    def __repr__(self) -> str:
        return f"GainPoint(k={self.k}, kind={self.kind!r}, gain={self.gain:.4f})"


def gain_curve(
    graph: Graph,
    nu: int,
    ks: Optional[Iterable[int]] = None,
    include_lp: bool = False,
    lp_tuple_limit: int = 50_000,
    seed: int = 0,
) -> List[GainPoint]:
    """Sweep ``k`` and record the defender's equilibrium gain.

    ``ks`` defaults to the whole mixed regime ``1 .. ρ(G) − 1`` plus the
    first pure point ``ρ(G)``.  With ``include_lp=True`` each point also
    carries the exact LP gain (skipped silently where ``C(m,k)`` exceeds
    ``lp_tuple_limit``).
    """
    rho = minimum_edge_cover_size(graph)
    if ks is None:
        ks = range(1, min(rho + 1, graph.m + 1))
    points: List[GainPoint] = []
    for k in ks:
        game = TupleGame(graph, k, nu)
        result = solve_game(game, seed=seed)
        lp_gain: Optional[float] = None
        if include_lp and game.tuple_strategy_count() <= lp_tuple_limit:
            from repro.solvers.lp import lp_defender_gain

            lp_gain = lp_defender_gain(game)
        points.append(GainPoint(k, result.kind, result.defender_gain, lp_gain))
    return points


def fit_slope_through_origin(points: Iterable[GainPoint]) -> float:
    """Least-squares slope of gain vs k with zero intercept.

    At the paper's equilibria the mixed-regime points satisfy
    ``gain = (ν/ρ) · k`` exactly, so the fitted slope equals ``ν/ρ``.
    """
    num = 0.0
    den = 0.0
    for p in points:
        num += p.k * p.gain
        den += p.k * p.k
    if math.isclose(den, 0.0, abs_tol=1e-12):
        raise ValueError("cannot fit a slope through no points")
    return num / den


def max_linearity_residual(points: Iterable[GainPoint], slope: float) -> float:
    """Largest absolute deviation from the fitted line — 0 when the gain
    law holds exactly."""
    return max((abs(p.gain - slope * p.k) for p in points), default=0.0)
