"""The differential-invariant catalog: what every solver path must agree on.

Each check takes one :class:`~repro.core.game.TupleGame` and returns the
list of :class:`Violation` records it found (empty = clean).  The catalog
is keyed by name so the runner, the corpus replayer and the docs all refer
to the same set; every check carries the paper result it enforces:

============================  ==========  =======================================
check                         theorem     cross-checked paths
============================  ==========  =======================================
``pure-threshold``            T3.1, C3.3  Gallai/blossom cover vs pure-NE search
``value-agreement``           —           LP minimax (its profile is an NE),
                                          attacker LP on ``−Aᵀ``, double
                                          oracle, fictitious-play sandwich
``solve-cascade``             T3.4, T4.5  structural cascade vs LP value; the
                                          k-matching gain law ``k·ν/ρ(G)``
``serialize-roundtrip``       —           JSON dump → load → re-verify → re-dump
``weighted-serialize-roundtrip``  —       weighted dump → load → dump byte
                                          fixpoint; weights separate sha256
                                          fingerprints
``weighted-value-agreement``  —           weighted LP vs weighted double
                                          oracle; both profiles verify
``unit-weight-agreement``     —           unit-weight escape value vs
                                          ``1 −`` plain LP value
``incremental-lp``            —           every double-oracle restricted duel,
                                          plain and weighted: the grown
                                          model vs a fresh one-shot duel vs
                                          the attacker LP on ``−Aᵀ``; the
                                          dual-read attacker mixture is
                                          optimal; each master solve adds
                                          1–3 new columns that price out
``cache-replay``              —           every cached entry point, plain and
                                          weighted: cold result vs its
                                          replay from a throwaway store
``graph-io-roundtrip``        —           graph JSON + edge-list codecs
``kernel-reference``          —           ``best`` (bnb) and its exhaustive
                                          DFS reference vs the brute-force
                                          lexicographically first argmax,
                                          above unit mass too
``certificate-reference``     —           the double oracle's ``G⁺``
                                          matching certificate vs ``best``
                                          and the DFS; its decoded tuple
                                          covers its value
``simulation-agreement``      D2.1        vectorized Monte Carlo vs exact profit
``ranges-consistency``        —           attacker and defender polytope
                                          probes vs LP value and coordinate
                                          totals (gated)
============================  ==========  =======================================

A check that *raises* is itself a finding — the harness converts the
exception into a ``crash`` violation rather than aborting the batch, so
one broken game never hides the rest.
"""

from __future__ import annotations

import hashlib
import json
import random
import tempfile
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import repro.cache as result_cache
from repro.core.characterization import is_mixed_nash
from repro.core.game import TupleGame
from repro.core.pure import pure_nash_exists
from repro.core.serialize import (
    configuration_from_json,
    configuration_to_json,
    game_from_json,
    game_to_json,
    solve_result_to_json,
)
from repro.core.tuples import EdgeTuple, all_tuples, tuple_vertices
from repro.equilibria.solve import NoEquilibriumFoundError, solve_game
from repro.graphs.core import Graph, tuple_sort_key
from repro.graphs.io import (
    format_edge_list,
    graph_from_json,
    graph_to_json,
    parse_edge_list,
)
from repro.kernels.coverage import shared_oracle
from repro.matching.covers import minimum_edge_cover_size
from repro.obs import metrics
from repro.simulation.engine import simulate
from repro.solvers.double_oracle import (
    _GREEDY_PROPOSALS,
    _double_oracle_loop,
    double_oracle,
    double_oracle_result_to_json,
)
from repro.solvers.fictitious_play import (
    fictitious_play,
    fictitious_play_result_to_json,
)
from repro.solvers.lp import (
    LPSolution,
    _CoverageMatching,
    _MatrixDuel,
    _payoff_matrix,
    lp_equilibrium,
    solve_minimax,
)
from repro.solvers.ranges import attacker_vertex_ranges, defender_edge_ranges
from repro.weighted.game import (
    WeightedTupleGame,
    weighted_do_result_to_json,
    weighted_double_oracle,
    weighted_lp_equilibrium,
    weighted_lp_result_to_json,
    weighted_minimax,
)

__all__ = ["Violation", "INVARIANTS", "check_game", "DEFAULT_TOLERANCE"]

DEFAULT_TOLERANCE = 1e-6
"""Value-agreement tolerance across solver paths (each path is itself
accurate to ~1e-9; the slack absorbs accumulation across pipelines)."""

#: ``ranges-consistency`` probes 2 LPs per coordinate — only worth the
#: cycles on small instances.
_RANGES_TUPLE_LIMIT = 150
_RANGES_MAX_N = 8

#: ``incremental-lp`` compares LP values of the same restricted duel, so
#: it holds them to solver accuracy, not the cross-pipeline slack.
_INCREMENTAL_LP_TOLERANCE = 1e-9
#: The double oracle's ``tolerance`` in ``incremental-lp``'s runs, which
#: every added column must price out by, and in ``certificate-reference``.
_DO_TOLERANCE = 1e-9

_SIMULATION_TRIALS = 4_000
_FP_ROUNDS = 120


class Violation:
    """One observed divergence between solver paths (or from a theorem)."""

    __slots__ = ("check", "theorem", "message")

    def __init__(self, check: str, message: str, theorem: str = "") -> None:
        self.check = check
        self.theorem = theorem
        self.message = message

    def to_payload(self) -> Dict[str, str]:
        return {
            "check": self.check,
            "theorem": self.theorem,
            "message": self.message,
        }

    def __repr__(self) -> str:
        tag = f" [{self.theorem}]" if self.theorem else ""
        return f"Violation({self.check}{tag}: {self.message})"


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


# --------------------------------------------------------------------------
# individual checks


def check_pure_threshold(game: TupleGame, tol: float) -> List[Violation]:
    """Pure NE exists iff ``k ≥ ρ(G)`` (Theorem 3.1 / Corollary 3.3)."""
    rho = minimum_edge_cover_size(game.graph)
    exists = pure_nash_exists(game)
    out: List[Violation] = []
    if exists != (game.k >= rho):
        out.append(Violation(
            "pure-threshold",
            f"pure_nash_exists={exists} but k={game.k}, rho={rho}",
            theorem="Theorem 3.1",
        ))
    if game.graph.n >= 2 * game.k + 1 and exists:
        out.append(Violation(
            "pure-threshold",
            f"pure NE reported with n={game.graph.n} >= 2k+1={2 * game.k + 1}",
            theorem="Corollary 3.3",
        ))
    return out


def check_value_agreement(game: TupleGame, tol: float) -> List[Violation]:
    """Four solver routes must agree on the per-attacker value, and the
    LP profile (attacker read off the duals) must be a mixed NE."""
    out: List[Violation] = []
    config, solution = lp_equilibrium(game)
    value = solution.value
    if not is_mixed_nash(game, config):
        out.append(Violation(
            "value-agreement",
            "lp_equilibrium's profile is not a mixed NE"))
    coverage = _payoff_matrix(game.graph.sorted_vertices(),
                              list(all_tuples(game.graph, game.k)),
                              tuple_vertices, None)
    attacker_value = -_MatrixDuel(-coverage.T).solve()[0]
    if not _close(attacker_value, value, tol):
        out.append(Violation(
            "value-agreement",
            f"attacker LP on -A^T={attacker_value!r} vs LP={value!r}"))

    do_exact = double_oracle(game)
    if not do_exact.exact:
        out.append(Violation(
            "value-agreement",
            f"exact double oracle failed its own certificate "
            f"(gap={do_exact.certified_gap:.3e})",
        ))
    if not _close(do_exact.value, value, tol):
        out.append(Violation(
            "value-agreement",
            f"double_oracle={do_exact.value!r} vs LP={value!r}",
        ))

    fp = fictitious_play(game, rounds=_FP_ROUNDS)
    if not (fp.lower_bound - tol <= value <= fp.upper_bound + tol):
        out.append(Violation(
            "value-agreement",
            f"LP value {value!r} escapes the fictitious-play sandwich "
            f"[{fp.lower_bound!r}, {fp.upper_bound!r}]",
        ))
    return out


def check_solve_cascade(game: TupleGame, tol: float) -> List[Violation]:
    """The structural cascade must emit verified equilibria with the
    theorem-mandated gain (Theorem 3.4 characterization, Theorem 4.5 law).
    """
    try:
        result = solve_game(game)
    except NoEquilibriumFoundError:
        # An honest "out of reach" is allowed (non-bipartite heuristics);
        # the LP paths still cover the instance via value-agreement.
        return []
    out: List[Violation] = []
    if not is_mixed_nash(game, result.mixed):
        out.append(Violation(
            "solve-cascade",
            f"solve_game kind={result.kind!r} returned a non-equilibrium",
            theorem="Theorem 3.4",
        ))
    value = solve_minimax(game).value
    if not _close(result.defender_gain, game.nu * value, tol):
        out.append(Violation(
            "solve-cascade",
            f"defender_gain={result.defender_gain!r} != nu*value="
            f"{game.nu * value!r} (kind={result.kind!r})",
        ))
    if result.kind == "k-matching":
        rho = minimum_edge_cover_size(game.graph)
        expected = game.k * game.nu / rho
        if not _close(result.defender_gain, expected, tol):
            out.append(Violation(
                "solve-cascade",
                f"k-matching gain {result.defender_gain!r} != "
                f"k*nu/rho = {expected!r}",
                theorem="Theorem 4.5",
            ))
    return out


def check_serialize_roundtrip(game: TupleGame, tol: float) -> List[Violation]:
    """dump → load → the equilibrium still verifies → dump is canonical."""
    try:
        config = solve_game(game).mixed
    except NoEquilibriumFoundError:
        return []
    text = configuration_to_json(config)
    restored = configuration_from_json(text)
    out: List[Violation] = []
    if restored.game != game:
        out.append(Violation(
            "serialize-roundtrip", "game did not survive the round trip",
        ))
        return out
    if not is_mixed_nash(restored.game, restored):
        out.append(Violation(
            "serialize-roundtrip",
            "restored configuration is no longer a Nash equilibrium",
        ))
    if configuration_to_json(restored) != text:
        out.append(Violation(
            "serialize-roundtrip",
            "serialization is not canonical (re-dump differs)",
        ))
    return out


def _game_sha256(text: str) -> str:
    """The ledger/cache content fingerprint of a ``game_to_json`` text."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _weighted_lift(game: TupleGame) -> WeightedTupleGame:
    """``game`` with weights derived deterministically from the sorted
    vertex order (1, 1.25, …, 2, repeating)."""
    vertices = game.graph.sorted_vertices()
    weights = {v: 1.0 + (i % 5) * 0.25 for i, v in enumerate(vertices)}
    return WeightedTupleGame(game.graph, game.k, weights, nu=game.nu)


def check_weighted_serialize_roundtrip(
    game: TupleGame, tol: float
) -> List[Violation]:
    """Weighted identity: dump → load → dump is a byte fixpoint and the
    weight vector is part of the content address.

    Lifts the fuzzed game to a :class:`WeightedTupleGame` with weights
    derived deterministically from the sorted vertex order, then requires

    * the round trip to restore a *weighted* game with equal weights
      (the historical bug silently downgraded to a plain game);
    * the re-dump to be byte-identical (canonical serialization);
    * bumping a single weight to change the sha256 fingerprint
      (injectivity — distinct weights must never share a cache entry);
    * the plain game's document to stay free of weight keys (the
      pre-weighted byte format is a compatibility contract).
    """
    weighted = _weighted_lift(game)
    text = game_to_json(weighted)
    restored = game_from_json(text)
    out: List[Violation] = []
    if not isinstance(restored, WeightedTupleGame):
        out.append(Violation(
            "weighted-serialize-roundtrip",
            f"weighted game round-tripped as {type(restored).__name__} — "
            "weights silently dropped",
        ))
        return out
    if restored.weights != weighted.weights:
        out.append(Violation(
            "weighted-serialize-roundtrip",
            "weight vector did not survive the round trip",
        ))
    if game_to_json(restored) != text:
        out.append(Violation(
            "weighted-serialize-roundtrip",
            "weighted serialization is not canonical (re-dump differs)",
        ))
    first = game.graph.sorted_vertices()[0]
    bumped = dict(weighted.weights)
    bumped[first] += 0.5
    other = WeightedTupleGame(game.graph, game.k, bumped, nu=game.nu)
    if _game_sha256(text) == _game_sha256(game_to_json(other)):
        out.append(Violation(
            "weighted-serialize-roundtrip",
            "games differing only in one weight share a sha256 "
            "fingerprint — the content address is weight-blind",
        ))
    plain_payload = json.loads(game_to_json(game))
    if "weights" in plain_payload or "model" in plain_payload:
        out.append(Violation(
            "weighted-serialize-roundtrip",
            "plain game document carries weighted keys — the pre-weighted "
            "byte format must stay stable",
        ))
    return out


def check_weighted_value_agreement(
    game: TupleGame, tol: float
) -> List[Violation]:
    """The weighted LP and the weighted double oracle agree on the escape
    value of the weighted lift, and both profiles are equilibria."""
    weighted = _weighted_lift(game)
    lp_config, lp_solution = weighted_lp_equilibrium(weighted)
    do_config, do_value = weighted_double_oracle(weighted)
    out: List[Violation] = []
    if not _close(lp_solution.value, do_value, tol):
        out.append(Violation(
            "weighted-value-agreement",
            f"weighted_double_oracle={do_value!r} vs "
            f"weighted_minimax={lp_solution.value!r}",
        ))
    for route, config in (("weighted_minimax", lp_config),
                          ("weighted_double_oracle", do_config)):
        ok, gaps = weighted.verify_best_responses(config, tol=tol)
        if not ok:
            out.append(Violation(
                "weighted-value-agreement",
                f"{route} profile is not an equilibrium: regrets {gaps!r}",
            ))
    return out


def check_unit_weight_agreement(
    game: TupleGame, tol: float
) -> List[Violation]:
    """With every weight 1 the escape value is ``1 −`` the plain value."""
    unit = WeightedTupleGame(
        game.graph, game.k, {v: 1.0 for v in game.graph.vertices()},
        nu=game.nu,
    )
    expected = 1.0 - solve_minimax(game).value
    escape = weighted_minimax(unit).value
    if not _close(escape, expected, tol):
        return [Violation(
            "unit-weight-agreement",
            f"unit-weight escape value {escape!r} != 1 - LP value "
            f"= {expected!r}",
        )]
    return []


def check_incremental_lp(game: TupleGame, tol: float) -> List[Violation]:
    """On every double-oracle iteration, plain and on the weighted lift,
    the value of the restricted duel the loop grows column by column
    equals that of a freshly built one-shot duel over the same pools, and
    minus the attacker's own duel's on ``−Aᵀ`` equals it too, within
    :data:`_INCREMENTAL_LP_TOLERANCE`; and the dual-read attacker mixture
    ``q`` is optimal: no pooled tuple scores ``(A q)ₜ`` above the value
    plus that tolerance.  Between two master solves the loop adds one to
    ``_GREEDY_PROPOSALS`` columns, each new and pricing out against the
    previous restricted optimum: ``(A q)ₜ`` above its value by more than
    the loop's ``tolerance``."""
    out: List[Violation] = []
    for label, weights in (("plain", None),
                           ("weighted", _weighted_lift(game).weights)):
        previous: List = []

        def audit(solution: LPSolution, attackers, defenders,
                  label=label, weights=weights, previous=previous) -> None:
            payoff = _payoff_matrix(
                attackers, defenders, tuple_vertices, weights)
            if previous:
                out.extend(_pricing_violations(
                    label, previous[0], previous[1], defenders, payoff,
                    attackers))
            previous[:] = [solution, list(defenders)]
            fresh, _, _ = _MatrixDuel(payoff).solve()
            attacker_lp, _, _ = _MatrixDuel(-payoff.T).solve()
            for route, value, reference in (
                ("incremental", solution.value, fresh),
                ("attacker-LP", -attacker_lp, fresh),
            ):
                if not _close(value, reference, _INCREMENTAL_LP_TOLERANCE):
                    out.append(Violation(
                        "incremental-lp",
                        f"{label} double oracle, {len(defenders)} defender "
                        f"tuples: {route} value {value!r} != fresh "
                        f"dual-read value {reference!r}",
                    ))
            q = [solution.attacker.get(v, 0.0) for v in attackers]
            best = float((payoff @ q).max())
            if best > solution.value + _INCREMENTAL_LP_TOLERANCE:
                out.append(Violation(
                    "incremental-lp",
                    f"{label} double oracle, {len(defenders)} defender "
                    f"tuples: a pooled tuple scores {best!r} against the "
                    f"dual-read attacker mixture, above the value "
                    f"{solution.value!r}",
                ))

        _double_oracle_loop(game, weights, tolerance=_DO_TOLERANCE,
                            audit=audit)
    return out


def _pricing_violations(
    label: str, last: LPSolution, pooled: List[EdgeTuple],
    defenders: List[EdgeTuple], payoff, attackers,
) -> List[Violation]:
    """What is wrong with the columns added after the restricted optimum
    ``last`` over ``pooled``: their count, a repeat, or a column that
    does not price out against ``last`` (``payoff`` rows are the grown
    pool's)."""
    added = defenders[len(pooled):]
    where = f"{label} double oracle, after {len(pooled)} defender tuples"
    out: List[Violation] = []
    if defenders[:len(pooled)] != pooled or not (
            1 <= len(added) <= _GREEDY_PROPOSALS):
        out.append(Violation(
            "incremental-lp",
            f"{where}: {len(added)} columns added between two master "
            f"solves, not 1 to {_GREEDY_PROPOSALS} appended",
        ))
    q = [last.attacker.get(v, 0.0) for v in attackers]
    scores = payoff[len(pooled):] @ q
    for t, score in zip(added, scores):
        if t in pooled or added.count(t) > 1:
            out.append(Violation(
                "incremental-lp", f"{where}: column {t!r} is already pooled",
            ))
        if not score > last.value + _DO_TOLERANCE:
            out.append(Violation(
                "incremental-lp",
                f"{where}: column {t!r} scores {float(score)!r} against "
                f"the previous restricted optimum, not above its value "
                f"{last.value!r} by more than {_DO_TOLERANCE!r}",
            ))
    return out


def check_cache_replay(game: TupleGame, tol: float) -> List[Violation]:
    """Every cached entry point, plain and on the weighted lift, solves
    cold into a throwaway store and then replays: the replayed result
    re-serializes to the cold result's bytes, and each replay counts
    exactly one ``cache.hits.count``."""
    weighted = _weighted_lift(game)
    routes = (
        ("solve_game", lambda: solve_game(game), solve_result_to_json),
        ("double_oracle", lambda: double_oracle(game),
         double_oracle_result_to_json),
        ("fictitious_play", lambda: fictitious_play(game, rounds=_FP_ROUNDS),
         fictitious_play_result_to_json),
        ("weighted_lp_equilibrium", lambda: weighted_lp_equilibrium(weighted),
         lambda result: weighted_lp_result_to_json(*result)),
        ("weighted_double_oracle", lambda: weighted_double_oracle(weighted),
         lambda result: weighted_do_result_to_json(*result)),
    )
    hits = metrics.counter("cache.hits.count")
    was_enabled = result_cache.cache_enabled()
    directory = result_cache.cache_directory()
    out: List[Violation] = []
    with tempfile.TemporaryDirectory() as scratch:
        result_cache.enable_cache(scratch)
        try:
            for route, solve, encode in routes:
                try:
                    cold = encode(solve())
                except NoEquilibriumFoundError:
                    continue
                before = hits.value
                replayed = encode(solve())
                if hits.value != before + 1:
                    out.append(Violation(
                        "cache-replay",
                        f"{route}: one replay counted "
                        f"{hits.value - before:g} cache hits, not 1",
                    ))
                if replayed != cold:
                    out.append(Violation(
                        "cache-replay",
                        f"{route}: the replayed result re-serializes to "
                        "other bytes than the cold one",
                    ))
        finally:
            # Re-enabling the caller's directory closes the throwaway
            # store before its directory goes.
            result_cache.enable_cache(directory)
            if not was_enabled:
                result_cache.disable_cache()
    return out


def check_graph_io_roundtrip(game: TupleGame, tol: float) -> List[Violation]:
    """The graph codecs must be lossless on every generated label shape.

    JSON always round-trips; the edge-list format carries no type
    information, so it is only required to round-trip when all labels
    share one type (pure-int files re-coerce, pure-str files stay put).
    """
    graph = game.graph
    out: List[Violation] = []
    if graph_from_json(graph_to_json(graph)) != graph:
        out.append(Violation(
            "graph-io-roundtrip", "JSON graph codec is not lossless",
        ))
    label_types = {type(v) for v in graph.vertices()}
    if len(label_types) == 1:
        if parse_edge_list(format_edge_list(graph)) != graph:
            out.append(Violation(
                "graph-io-roundtrip",
                f"edge-list codec is not lossless on "
                f"{label_types.pop().__name__} labels",
            ))
    return out


def _reference_best(game: TupleGame, weights: Dict,
                    tol: float) -> Tuple[EdgeTuple, float]:
    """Brute-force coverage argmax — the kernel's independent referee:
    the best value, and the lexicographically first tuple within ``tol``
    of it (so summation-order ulps between tuples covering the same
    vertices do not decide the tie)."""
    scored = [
        (t, sum(weights[v] for v in tuple_vertices(t)))
        for t in sorted(all_tuples(game.graph, game.k), key=tuple_sort_key)
    ]
    best = max(value for _, value in scored)
    first = next(t for t, value in scored if value >= best - tol)
    return first, best


def check_kernel_reference(game: TupleGame, tol: float) -> List[Violation]:
    """The exact best response (``best``, branch and bound) and its
    reference, the exhaustive DFS, must both return the brute-force
    lexicographically first argmax, with values equal bit for bit.

    Three trials draw uniform masses; a fourth draws small integers,
    whose exact sums make many tuples tie and so test the tie-break.  A
    fifth draws counts ``c / r`` (``r`` = 3–7): mathematically tied
    coverages that round a few ulps apart, at a total mass above 1, so
    the searches agree only if their tie tolerance scales with the mass.
    """
    rng = random.Random(game.graph.n * 7919 + game.graph.m * 31 + game.k)
    vertices = game.graph.sorted_vertices()
    oracle = shared_oracle(game.graph, game.k)
    trials = [{v: rng.uniform(0.0, 1.0) for v in vertices} for _ in range(3)]
    trials.append({v: float(rng.randrange(3)) for v in vertices})
    r = rng.randint(3, 7)
    trials.append({v: rng.randrange(r + 1) / r for v in vertices})
    out: List[Violation] = []
    for trial, weights in enumerate(trials):
        ref_tuple, reference = _reference_best(game, weights, tol)
        best = oracle.best(weights)
        exhaustive = oracle.exhaustive(weights)
        for name, (got, value) in (("best", best),
                                   ("exhaustive", exhaustive)):
            if got != ref_tuple or not _close(value, reference, tol):
                out.append(Violation(
                    "kernel-reference",
                    f"{name} returned {got!r} worth {value!r}; brute "
                    f"force's first argmax is {ref_tuple!r} worth "
                    f"{reference!r} (trial {trial})",
                ))
        # Same tuple, same summation order: the values must be the same
        # float, not merely close.
        if best[1] != exhaustive[1]:
            out.append(Violation(
                "kernel-reference",
                f"best value {best[1]!r} != exhaustive "
                f"{exhaustive[1]!r} (trial {trial})",
            ))
        _, greedy_value = oracle.greedy(weights)
        if greedy_value > reference + tol:
            out.append(Violation(
                "kernel-reference",
                f"greedy value {greedy_value!r} exceeds the exact optimum "
                f"{reference!r} (trial {trial})",
            ))
    return out


def check_certificate_reference(game: TupleGame,
                                tol: float) -> List[Violation]:
    """The double oracle's ``G⁺`` certificate (one
    :class:`~repro.solvers.lp._CoverageMatching` model, warm across the
    trials) must agree in value with the kernel's ``best`` and its
    exhaustive reference, bipartite ``G`` or not, and its decoded tuple
    — ``k`` distinct edges of ``G`` — must cover that value.

    Unit masses come first: on non-bipartite ``G`` they are where the
    ``G⁺`` LP relaxation overshoots (6 against 5 on two disjoint
    triangles with ``k = 3``), so an LP standing in for the MIP shows.
    Two uniform trials and one of small, tie-prone integers follow.
    """
    rng = random.Random(game.graph.n * 6271 + game.graph.m * 37 + game.k)
    vertices = game.graph.sorted_vertices()
    oracle = shared_oracle(game.graph, game.k)
    model = _CoverageMatching(oracle, _DO_TOLERANCE)
    trials = [{v: 1.0 for v in vertices}]
    trials += [{v: rng.uniform(0.0, 1.0) for v in vertices}
               for _ in range(2)]
    trials.append({v: float(rng.randrange(3)) for v in vertices})
    edges = set(oracle.edges)
    out: List[Violation] = []
    for trial, weights in enumerate(trials):
        decoded, bound = model.best(weights)
        for name, (_, value) in (
                ("best", oracle.best(weights)),
                ("exhaustive", oracle.exhaustive(weights))):
            if not _close(bound, value, tol):
                out.append(Violation(
                    "certificate-reference",
                    f"G+ certificate reads {bound!r}, {name} {value!r} "
                    f"(trial {trial})",
                ))
        if len(set(decoded)) != game.k or not set(decoded) <= edges:
            out.append(Violation(
                "certificate-reference",
                f"decoded {decoded!r} is not {game.k} distinct edges of G "
                f"(trial {trial})",
            ))
        covered = sum(weights[v] for v in tuple_vertices(decoded))
        if not _close(covered, bound, tol):
            out.append(Violation(
                "certificate-reference",
                f"decoded {decoded!r} covers {covered!r}, the certificate "
                f"reads {bound!r} (trial {trial})",
            ))
    return out


def check_simulation_agreement(game: TupleGame, tol: float) -> List[Violation]:
    """Monte-Carlo profit must bracket the exact expectation (Def. 2.1)."""
    try:
        result = solve_game(game)
    except NoEquilibriumFoundError:
        return []
    sim = simulate(game, result.mixed, trials=_SIMULATION_TRIALS, seed=7)
    stderr = sim.defender_profit.stddev / max(1, _SIMULATION_TRIALS) ** 0.5
    slack = 6.0 * stderr + tol
    if abs(sim.defender_profit.mean - result.defender_gain) > slack:
        return [Violation(
            "simulation-agreement",
            f"simulated gain {sim.defender_profit.mean!r} is {slack!r}-far from "
            f"exact {result.defender_gain!r} "
            f"({_SIMULATION_TRIALS} trials, 6 sigma)",
            theorem="Definition 2.1",
        )]
    return []


def check_ranges_consistency(game: TupleGame, tol: float) -> List[Violation]:
    """Polytope probes on both sides, at the LP value (gated): every
    interval is well formed, the minima sum to at most and the maxima to
    at least what every mixture's coordinates sum to (1 for the attacker's
    vertex mass, ``k`` for the defender's edge marginals), and every
    required coordinate is usable."""
    if (
        game.tuple_strategy_count() > _RANGES_TUPLE_LIMIT
        or game.graph.n > _RANGES_MAX_N
    ):
        return []
    value = solve_minimax(game).value
    out: List[Violation] = []
    for side, ranges, total in (
        ("attacker", attacker_vertex_ranges(game), 1.0),
        ("defender", defender_edge_ranges(game), float(game.k)),
    ):
        messages = []
        if not _close(ranges.value, value, tol):
            messages.append(
                f"probe value {ranges.value!r} != LP value {value!r}")
        for key, (low, high) in ranges.ranges.items():
            if not (-tol <= low <= high + tol and high <= 1.0 + tol):
                messages.append(
                    f"malformed interval [{low!r}, {high!r}] for {key!r}")
        total_low = sum(low for low, _ in ranges.ranges.values())
        total_high = sum(high for _, high in ranges.ranges.values())
        if not total_low - tol <= total <= total_high + tol:
            messages.append(
                f"bounds sum to [{total_low!r}, {total_high!r}], which "
                f"misses the coordinate total {total!r}")
        stray = set(ranges.required()) - set(ranges.usable())
        if stray:
            messages.append(
                f"required but not usable: {sorted(map(repr, stray))}")
        out.extend(Violation("ranges-consistency", f"{side}: {message}")
                   for message in messages)
    return out


# --------------------------------------------------------------------------
# catalog + driver


Check = Callable[[TupleGame, float], List[Violation]]

INVARIANTS: Dict[str, Check] = {
    "pure-threshold": check_pure_threshold,
    "value-agreement": check_value_agreement,
    "solve-cascade": check_solve_cascade,
    "serialize-roundtrip": check_serialize_roundtrip,
    "weighted-serialize-roundtrip": check_weighted_serialize_roundtrip,
    "weighted-value-agreement": check_weighted_value_agreement,
    "unit-weight-agreement": check_unit_weight_agreement,
    "incremental-lp": check_incremental_lp,
    "cache-replay": check_cache_replay,
    "graph-io-roundtrip": check_graph_io_roundtrip,
    "kernel-reference": check_kernel_reference,
    "certificate-reference": check_certificate_reference,
    "simulation-agreement": check_simulation_agreement,
    "ranges-consistency": check_ranges_consistency,
}
"""Name → check, in execution order.  Names are stable API: the corpus,
the CLI ``--invariant`` filter and :doc:`docs/fuzzing.md` all use them."""


def check_game(
    game: TupleGame,
    tolerance: float = DEFAULT_TOLERANCE,
    checks: Optional[Sequence[str]] = None,
) -> List[Violation]:
    """Run the selected invariants (default: all) against one game.

    Exceptions inside a check are converted into ``crash`` violations so
    a single pathological instance cannot abort a fuzz batch.
    """
    names = list(INVARIANTS) if checks is None else list(checks)
    violations: List[Violation] = []
    for name in names:
        try:
            check = INVARIANTS[name]
        except KeyError:
            raise ValueError(
                f"unknown invariant {name!r}; known: {sorted(INVARIANTS)}"
            ) from None
        try:
            violations.extend(check(game, tolerance))
        except Exception as exc:  # noqa: BLE001 — a crash IS a finding
            violations.append(Violation(
                name, f"check crashed: {type(exc).__name__}: {exc}",
            ))
    return violations
