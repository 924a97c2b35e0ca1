"""Pure Nash equilibria of the Tuple model — Theorem 3.1 and corollaries.

Theorem 3.1: ``Π_k(G)`` has a pure NE **iff** ``G`` has an edge cover of
size ``k``.  The equilibria themselves are the profiles where the
defender's ``k`` edges cover every vertex (so each attacker earns its
maximum possible profit, 0, no matter where it stands, and the defender
earns ``ν``).

Corollary 3.2 (polynomial decidability) follows because minimum edge covers
are a matching computation (Gallai; see :mod:`repro.matching.covers`), and
Corollary 3.3 (no pure NE once ``n ≥ 2k + 1``) because any edge cover needs
at least ``n/2`` edges.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.configuration import PureConfiguration
from repro.core.game import GameError, TupleGame
from repro.core.profits import pure_profit_tp, pure_profit_vp
from repro.graphs.core import Edge, edge_sort_key
from repro.matching.covers import minimum_edge_cover, minimum_edge_cover_size

__all__ = [
    "pure_nash_exists",
    "find_pure_nash",
    "edge_cover_of_size",
    "is_pure_nash",
]


def pure_nash_exists(game: TupleGame) -> bool:
    """Decide pure-NE existence (Theorem 3.1 + Corollary 3.2).

    Equivalent to ``ρ(G) ≤ k`` where ``ρ`` is the minimum-edge-cover size;
    ``k ≤ m`` is guaranteed by the game's own validation.
    """
    return minimum_edge_cover_size(game.graph) <= game.k


def edge_cover_of_size(game: TupleGame) -> Optional[List[Edge]]:
    """An edge cover with exactly ``k`` distinct edges, or ``None``.

    A minimum cover is padded with arbitrary further edges — adding edges
    never uncovers a vertex, so any ``k`` between ``ρ(G)`` and ``m`` works.
    """
    minimum = sorted(minimum_edge_cover(game.graph), key=edge_sort_key)
    if len(minimum) > game.k:
        return None
    extras = [e for e in game.graph.sorted_edges() if e not in set(minimum)]
    return minimum + extras[: game.k - len(minimum)]


def find_pure_nash(game: TupleGame) -> Optional[PureConfiguration]:
    """Construct a pure NE, or ``None`` when Theorem 3.1 rules one out.

    Follows the theorem's sufficiency proof: the defender plays an edge
    cover of size ``k``; attackers may stand anywhere (every placement
    yields the same zero profit), so we place them all on the smallest
    vertex for determinism.
    """
    cover = edge_cover_of_size(game)
    if cover is None:
        return None
    anchor = game.graph.sorted_vertices()[0]
    return PureConfiguration(game, [anchor] * game.nu, cover)


def is_pure_nash(game: TupleGame, config: PureConfiguration) -> bool:
    """Directly verify that a pure profile is a Nash equilibrium.

    Checks best responses from first principles (no reliance on Theorem
    3.1), so tests can use it to *validate* the theorem:

    * attacker ``i`` must earn ``1``, or no uncovered vertex may exist;
    * the defender's tuple must achieve ``max_t |{i : s_i ∈ V(t)}|``,
      computed exactly by the coverage solver.
    """
    if config.game != game:
        raise GameError("configuration belongs to a different game")
    covered = config.covered_vertices()
    fully_covered = covered == game.graph.vertices()
    for i in range(game.nu):
        if pure_profit_vp(config, i) == 0 and not fully_covered:
            return False  # the attacker could move to an uncovered vertex
    # Lazy: verification defers up to the solver layer; a module-level
    # import would invert the core -> solvers layering (LAY001).
    from repro.solvers.best_response import best_tuple

    weights = {v: 0.0 for v in game.graph.vertices()}
    for v in config.vertex_choices:
        weights[v] += 1.0
    _, optimum = best_tuple(game.graph, weights, game.k)
    return pure_profit_tp(config) >= optimum - 1e-9
