"""The mixed Nash equilibrium characterization — Theorem 3.4.

A mixed configuration of ``Π_k(G)`` is a Nash equilibrium iff:

1. ``E(D_s(tp))`` is an edge cover of ``G`` **and** ``D_s(VP)`` is a vertex
   cover of the graph obtained by ``E(D_s(tp))``;
2. (a) all support vertices of the attackers have equal — and globally
   minimal — hit probability; (b) the defender's probabilities sum to 1;
3. (a) all support tuples of the defender carry equal — and globally
   maximal — attacker mass; (b) the attacker mass on ``V(D_s(tp))`` is
   ``ν``.

:func:`check_characterization` evaluates each clause separately and reports
a structured verdict, so tests and benchmarks can demonstrate not only that
constructed equilibria pass but *which* clause a perturbed profile breaks.

:func:`verify_best_responses` is an independent first-principles NE check
(every player's expected profit equals its best-response payoff); the two
must agree — Theorem 3.4 — and the test suite asserts exactly that.

**Degenerate boundary.**  The necessity proof of clause 1 (the paper's
Claim 3.6) swaps one support edge for another and therefore assumes
``|E(D_s(tp))| ≥ k + 1`` — the paper notes "otherwise s* is a pure
configuration".  A profile whose defender support is a *single* tuple that
happens to be an edge cover is a Nash equilibrium (every attacker is hit
with probability 1 wherever it stands) yet violates clause 1's
vertex-cover half.  :class:`CharacterizationReport` exposes this via
``properly_mixed``; :func:`is_mixed_nash` applies the characterization to
properly mixed profiles and falls back to the first-principles check on
degenerate ones, so it is a correct NE oracle everywhere.

The global comparisons in 2(a)/3(a) need ``min_v Hit(v)`` and
``max_t m_s(t)``; the latter is the NP-hard coverage maximum, delegated to
:mod:`repro.solvers.best_response` (exact for the instance sizes where
verification is meaningful).
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.core.configuration import MixedConfiguration
from repro.core.game import GameError, TupleGame
from repro.core.profits import (
    all_hit_probabilities,
    all_vertex_masses,
    expected_profit_tp,
    expected_profit_vp,
    tuple_mass,
)
from repro.graphs.core import Graph, tuple_sort_key, vertex_sort_key
from repro.graphs.properties import is_edge_cover, is_vertex_cover, uncovered_vertices


def _best_tuple(*args: Any, **kwargs: Any) -> Tuple[Any, float]:
    """Lazy bridge to :func:`repro.solvers.best_response.best_tuple`.

    Verification needs the exact coverage optimum from the solver layer;
    a module-level import would invert the core -> solvers layering
    (LAY001), so the dependency stays function-level.
    """
    from repro.solvers.best_response import best_tuple

    return best_tuple(*args, **kwargs)

__all__ = ["CharacterizationReport", "check_characterization", "is_mixed_nash", "verify_best_responses"]

_TOL = 1e-9


class CharacterizationReport:
    """Structured outcome of a Theorem 3.4 check.

    Attributes mirror the theorem's clauses; ``failures`` collects
    human-readable diagnostics for every violated clause.
    """

    __slots__ = (
        "condition_1_edge_cover",
        "condition_1_vertex_cover",
        "condition_2a_uniform_min_hit",
        "condition_2b_tp_mass",
        "condition_3a_uniform_max_mass",
        "condition_3b_total_mass",
        "properly_mixed",
        "failures",
    )

    def __init__(self) -> None:
        self.condition_1_edge_cover = False
        self.condition_1_vertex_cover = False
        self.condition_2a_uniform_min_hit = False
        self.condition_2b_tp_mass = False
        self.condition_3a_uniform_max_mass = False
        self.condition_3b_total_mass = False
        self.properly_mixed = False
        self.failures: List[str] = []

    @property
    def is_nash(self) -> bool:
        """True when every clause of Theorem 3.4 holds."""
        return (
            self.condition_1_edge_cover
            and self.condition_1_vertex_cover
            and self.condition_2a_uniform_min_hit
            and self.condition_2b_tp_mass
            and self.condition_3a_uniform_max_mass
            and self.condition_3b_total_mass
        )

    def __bool__(self) -> bool:
        return self.is_nash

    def __repr__(self) -> str:
        status = "NE" if self.is_nash else f"not NE ({len(self.failures)} failures)"
        return f"CharacterizationReport({status})"


def check_characterization(
    game: TupleGame,
    config: MixedConfiguration,
    tol: float = _TOL,
) -> CharacterizationReport:
    """Evaluate every clause of Theorem 3.4 against a mixed configuration.

    Clause 3(a) takes the exact coverage maximum from
    :func:`repro.solvers.best_response.best_tuple`; ``tol`` is the
    numerical tolerance for probability comparisons.
    """
    if config.game != game:
        raise GameError("configuration belongs to a different game")
    graph: Graph = game.graph
    report = CharacterizationReport()

    support_edges = config.tp_support_edges()
    vp_support = config.vp_support_union()
    # Claim 3.6's premise: the theorem targets properly mixed profiles.
    report.properly_mixed = len(support_edges) >= game.k + 1

    # --- Condition 1 --------------------------------------------------
    report.condition_1_edge_cover = is_edge_cover(graph, support_edges)
    if not report.condition_1_edge_cover:
        missing = sorted(uncovered_vertices(graph, support_edges), key=vertex_sort_key)
        report.failures.append(
            f"condition 1: E(D(tp)) leaves vertices uncovered: {missing!r}"
        )
    obtained = graph.subgraph_from_edges(support_edges)
    cover_candidates = vp_support & obtained.vertices()
    report.condition_1_vertex_cover = is_vertex_cover(obtained, cover_candidates)
    if not report.condition_1_vertex_cover:
        report.failures.append(
            "condition 1: D(VP) is not a vertex cover of the graph obtained "
            "by E(D(tp))"
        )

    # --- Condition 2 --------------------------------------------------
    hits = all_hit_probabilities(config)
    support_hits = [hits[v] for v in vp_support]
    global_min = min(hits.values())
    spread = max(support_hits) - min(support_hits) if support_hits else 0.0
    above_min = max(support_hits) - global_min if support_hits else 0.0
    report.condition_2a_uniform_min_hit = spread <= tol and above_min <= tol
    if not report.condition_2a_uniform_min_hit:
        report.failures.append(
            "condition 2(a): hit probabilities on D(VP) are not uniformly "
            f"minimal (spread={spread:.3e}, above global min={above_min:.3e})"
        )
    tp_mass = sum(config.tp_distribution().values())
    report.condition_2b_tp_mass = abs(tp_mass - 1.0) <= tol
    if not report.condition_2b_tp_mass:
        report.failures.append(
            f"condition 2(b): defender probabilities sum to {tp_mass!r}, not 1"
        )

    # --- Condition 3 --------------------------------------------------
    masses = all_vertex_masses(config)
    support_tuple_masses = [
        tuple_mass(config, t) for t in sorted(config.tp_support(), key=tuple_sort_key)
    ]
    _, global_max = _best_tuple(graph, masses, game.k)
    mass_spread = (
        max(support_tuple_masses) - min(support_tuple_masses)
        if support_tuple_masses
        else 0.0
    )
    below_max = (
        global_max - min(support_tuple_masses) if support_tuple_masses else 0.0
    )
    report.condition_3a_uniform_max_mass = mass_spread <= tol and below_max <= tol
    if not report.condition_3a_uniform_max_mass:
        report.failures.append(
            "condition 3(a): support-tuple masses are not uniformly maximal "
            f"(spread={mass_spread:.3e}, below global max={below_max:.3e})"
        )
    covered_mass = sum(masses[v] for v in config.tp_support_vertices())
    report.condition_3b_total_mass = abs(covered_mass - game.nu) <= tol * max(
        1.0, game.nu
    )
    if not report.condition_3b_total_mass:
        report.failures.append(
            f"condition 3(b): mass on V(D(tp)) is {covered_mass!r}, expected ν={game.nu}"
        )

    return report


def is_mixed_nash(
    game: TupleGame,
    config: MixedConfiguration,
    tol: float = _TOL,
) -> bool:
    """True when the configuration is a mixed Nash equilibrium.

    Applies Theorem 3.4 to properly mixed profiles and the
    first-principles best-response check to degenerate ones (see the
    module docstring on the Claim 3.6 boundary).
    """
    report = check_characterization(game, config, tol=tol)
    if report.properly_mixed:
        return report.is_nash
    ok, _ = verify_best_responses(game, config, tol=tol)
    return ok


def verify_best_responses(
    game: TupleGame,
    config: MixedConfiguration,
    tol: float = _TOL,
) -> Tuple[bool, Dict[str, float]]:
    """First-principles NE check, independent of Theorem 3.4.

    A mixed profile is an NE iff no player gains by deviating to any pure
    strategy.  For vertex player ``i`` the best deviation earns
    ``max_v (1 − Hit(v))``; for the defender it earns ``max_t m_s(t)``.
    Returns ``(is_nash, gaps)`` where ``gaps`` maps each player label to
    its best-response regret (non-positive up to tolerance at an NE).
    """
    if config.game != game:
        raise GameError("configuration belongs to a different game")
    hits = all_hit_probabilities(config)
    best_vp_payoff = 1.0 - min(hits.values())
    gaps: Dict[str, float] = {}
    ok = True
    for i in range(game.nu):
        regret = best_vp_payoff - expected_profit_vp(config, i)
        gaps[f"vp_{i}"] = regret
        if regret > tol:
            ok = False
    masses = all_vertex_masses(config)
    _, best_tp_payoff = _best_tuple(game.graph, masses, game.k)
    tp_regret = best_tp_payoff - expected_profit_tp(config)
    gaps["tp"] = tp_regret
    if tp_regret > tol * max(1.0, game.nu):
        ok = False
    return ok, gaps
