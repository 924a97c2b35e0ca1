"""One-shot security report for a network.

Bundles the library's analyses into a single plain-text document a
security operator can read top to bottom: topology facts, the pure-NE
threshold, the gain/price profile across defender power, the equilibrium
at a chosen operating point, the optimal-polytope facts (which hosts
rational attackers can use, which links every optimal schedule must
scan), and a Monte-Carlo validation run.

Exposed on the CLI as ``repro-defender report``.
"""

from __future__ import annotations

from typing import List

from repro.analysis.defense import defense_profile
from repro.analysis.gain import fit_slope_through_origin, gain_curve
from repro.analysis.tables import Table
from repro.core.game import TupleGame
from repro.core.profits import expected_profit_tp, hit_probability
from repro.equilibria.solve import NoEquilibriumFoundError, solve_game
from repro.graphs.core import Graph, vertex_sort_key
from repro.graphs.properties import is_bipartite, max_degree, min_degree
from repro.matching.blossom import matching_number
from repro.matching.covers import minimum_edge_cover_size
from repro.simulation.engine import simulate

__all__ = ["security_report"]

_RANGES_TUPLE_LIMIT = 20_000


def _topology_section(graph: Graph, lines: List[str]) -> int:
    from repro.graphs.metrics import density, diameter, girth
    from repro.graphs.properties import is_connected

    rho = minimum_edge_cover_size(graph)
    table = Table(["property", "value"])
    table.add_row(["hosts (n)", graph.n])
    table.add_row(["links (m)", graph.m])
    table.add_row(["degree range", f"{min_degree(graph)}..{max_degree(graph)}"])
    table.add_row(["density", density(graph)])
    if is_connected(graph):
        table.add_row(["diameter (hops)", diameter(graph)])
    shortest_cycle = girth(graph)
    table.add_row(["girth", "acyclic" if shortest_cycle is None else shortest_cycle])
    table.add_row(["bipartite", is_bipartite(graph)])
    table.add_row(["maximum matching", matching_number(graph)])
    table.add_row(["minimum edge cover rho(G)", rho])
    table.add_row(["full lockdown needs k >=", rho])
    lines.append(table.render(title="1. Topology"))
    return rho


def _profile_section(graph: Graph, nu: int, lines: List[str]) -> None:
    points = defense_profile(graph, nu)
    table = Table(["k", "equilibrium", "expected catches", "price nu/IP_tp"])
    gain_points = []
    for p in points:
        gain_points.append(p)
        table.add_row([p.k, p.kind, nu / p.price, p.price])
    lines.append(table.render(title=f"2. Defender power profile (nu = {nu})"))
    mixed = [
        g for g in gain_curve(graph, nu) if g.kind in ("k-matching",)
    ]
    if mixed:
        slope = fit_slope_through_origin(mixed)
        lines.append(
            f"marginal value of one extra scanned link: {slope:.4f} "
            "expected catches per round (linear gain law, Theorem 4.5)"
        )


def _operating_point_section(
    graph: Graph, k: int, nu: int, trials: int, seed: int, lines: List[str]
) -> None:
    game = TupleGame(graph, k, nu)
    result = solve_game(game, seed=seed)
    config = result.mixed
    lines.append(f"3. Operating point k = {k}")
    lines.append(f"   equilibrium kind : {result.kind}")
    lines.append(f"   expected catches : {result.defender_gain:.4f} of {nu}")
    if result.kind != "pure":
        support = sorted(config.vp_support_union(), key=vertex_sort_key)
        lines.append(f"   attacker support : {support}")
        lines.append(
            f"   interception rate: "
            f"{hit_probability(config, support[0]):.4f} per attacker"
        )
        lines.append(
            f"   scan schedule    : {len(config.tp_support())} line(s), "
            "uniform rotation"
        )
    if trials > 0:
        sim = simulate(game, config, trials=trials, seed=seed)
        low, high = sim.defender_profit.confidence_interval()
        verdict = "confirmed" if low <= expected_profit_tp(config) <= high else "OUTSIDE CI"
        lines.append(
            f"   simulation       : {sim.defender_profit.mean:.4f} catches/round "
            f"over {trials} trials (95% CI [{low:.4f}, {high:.4f}]) — {verdict}"
        )


def _polytope_section(graph: Graph, k: int, lines: List[str]) -> None:
    from repro.solvers.ranges import strategy_ranges

    game = TupleGame(graph, k, nu=1)
    if game.tuple_strategy_count() > _RANGES_TUPLE_LIMIT:
        lines.append(
            "4. Optimal-polytope analysis skipped "
            f"(C(m, k) > {_RANGES_TUPLE_LIMIT})"
        )
        return
    ranges = strategy_ranges(game)
    attacker, defender = ranges["attacker"], ranges["defender"]
    safe = sorted(
        graph.vertices() - set(attacker.usable()), key=vertex_sort_key
    )
    lines.append("4. Optimal-polytope analysis")
    lines.append(
        f"   hosts rational attackers may use : {attacker.usable()}"
    )
    lines.append(f"   hosts no rational attacker uses  : {safe}")
    mandatory = defender.required()
    lines.append(
        "   links every optimal schedule scans (with positive probability): "
        + (", ".join(f"{u}-{v}" for u, v in mandatory) if mandatory else "none")
    )


def security_report(
    graph: Graph,
    k: int,
    nu: int = 1,
    trials: int = 20_000,
    seed: int = 0,
) -> str:
    """Produce the full plain-text security report.

    Raises :class:`~repro.equilibria.solve.NoEquilibriumFoundError` when
    the operating point cannot be solved structurally (the report's
    profile section would be empty anyway).
    """
    lines: List[str] = [
        "NETWORK SECURITY GAME REPORT",
        "(model: 'The Power of the Defender', ICDCS 2006)",
        "",
    ]
    _topology_section(graph, lines)
    lines.append("")
    _profile_section(graph, nu, lines)
    lines.append("")
    _operating_point_section(graph, k, nu, trials, seed, lines)
    lines.append("")
    _polytope_section(graph, k, lines)
    return "\n".join(lines)
