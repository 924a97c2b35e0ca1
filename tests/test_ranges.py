"""Tests for optimal-strategy-polytope probing (repro.solvers.ranges)."""

import pytest

from repro.core.game import GameError, TupleGame
from repro.core.profits import hit_probability
from repro.equilibria.solve import solve_game
from repro.graphs.generators import (
    complete_bipartite_graph,
    cycle_graph,
    path_graph,
    random_bipartite_graph,
    star_graph,
)
from repro.matching.covers import minimum_edge_cover_size
from repro.solvers.ranges import attacker_vertex_ranges, defender_edge_ranges


class TestAttackerRanges:
    def test_star_attacker_avoids_center(self):
        """On a star the center is hit by every edge; no optimal attacker
        ever stands there, and the leaves are interchangeable."""
        g = star_graph(4)
        game = TupleGame(g, 1, nu=1)
        ranges = attacker_vertex_ranges(game)
        low, high = ranges.ranges[0]  # center
        assert high == pytest.approx(0.0, abs=1e-6)
        for leaf in range(1, 5):
            leaf_low, leaf_high = ranges.ranges[leaf]
            assert leaf_high > 0.2
        assert 0 not in ranges.usable()

    def test_cycle_symmetry(self):
        """C6 is vertex-transitive: every vertex is usable, none is
        required (mass can concentrate on alternating triples)."""
        game = TupleGame(cycle_graph(6), 1, nu=1)
        ranges = attacker_vertex_ranges(game)
        assert len(ranges.usable()) == 6
        assert ranges.required() == []

    def test_bounds_contain_structural_equilibrium(self):
        g = complete_bipartite_graph(2, 4)
        game = TupleGame(g, 2, nu=1)
        config = solve_game(game).mixed
        ranges = attacker_vertex_ranges(game)
        for v in g.vertices():
            low, high = ranges.ranges[v]
            p = config.prob_vp(0, v)
            assert low - 1e-6 <= p <= high + 1e-6

    def test_value_matches_k_over_rho(self):
        g = complete_bipartite_graph(2, 4)
        game = TupleGame(g, 2, nu=1)
        ranges = attacker_vertex_ranges(game)
        assert ranges.value == pytest.approx(2 / minimum_edge_cover_size(g))


class TestDefenderRanges:
    def test_path_endpoint_edges_are_required(self):
        """On P4 with k=1, every optimal schedule must sometimes scan the
        two end edges (they are the only cover of the endpoints)."""
        game = TupleGame(path_graph(4), 1, nu=1)
        ranges = defender_edge_ranges(game)
        required = ranges.required()
        assert (0, 1) in required
        assert (2, 3) in required

    def test_bounds_contain_structural_marginals(self):
        g = complete_bipartite_graph(2, 3)
        game = TupleGame(g, 2, nu=1)
        config = solve_game(game).mixed
        ranges = defender_edge_ranges(game)
        for e in g.edges():
            marginal = sum(
                p for t, p in config.tp_distribution().items() if e in t
            )
            low, high = ranges.ranges[e]
            assert low - 1e-6 <= marginal <= high + 1e-6

    def test_star_every_optimal_schedule_is_uniformish(self):
        """Star K_{1,3}, k=1: hit(leaf_i) = p(edge_i) and the minimum must
        be v* = 1/3 with only unit mass available — every optimal schedule
        is exactly uniform, so all ranges collapse to [1/3, 1/3]."""
        game = TupleGame(star_graph(3), 1, nu=1)
        ranges = defender_edge_ranges(game)
        for low, high in ranges.ranges.values():
            assert low == pytest.approx(1 / 3, abs=1e-6)
            assert high == pytest.approx(1 / 3, abs=1e-6)


class TestErgonomics:
    def test_limit_guard(self):
        """C(20, 8) = 125,970 tuples exceed the 100,000 probing limit."""
        game = TupleGame(complete_bipartite_graph(4, 5), 8, nu=1)
        with pytest.raises(GameError, match="probing limit 100000"):
            attacker_vertex_ranges(game)
        with pytest.raises(GameError, match="probing limit 100000"):
            defender_edge_ranges(game)

    def test_repr(self):
        game = TupleGame(path_graph(4), 1, nu=1)
        assert "value=" in repr(attacker_vertex_ranges(game))


class TestBothSides:
    """``/ranges side=both`` builds the coverage matrix and solves the
    defender duel's value once, and answers the bytes of two single-side
    requests."""

    @pytest.mark.parametrize("graph, k", [
        (star_graph(3), 1),
        (cycle_graph(5), 2),
        (complete_bipartite_graph(2, 3), 2),
        (random_bipartite_graph(8, 10, 0.25, seed=5), 3),
    ], ids=["star3", "cycle5", "k23", "bipartite"])
    def test_payload_bytes_equal_two_single_side_calls(self, graph, k):
        import json

        from repro.serve.routes import _ranges_payload

        game = TupleGame(graph, k, nu=1)

        def payload(side):
            return _ranges_payload(game, {"side": side})

        single = {side: payload(side)[side]
                  for side in ("attacker", "defender")}
        assert json.dumps(payload("both"), sort_keys=True).encode() \
            == json.dumps(single, sort_keys=True).encode()

    def test_both_sides_share_one_matrix_and_one_value_solve(
            self, monkeypatch):
        import repro.solvers.ranges as ranges

        calls = {"coverage": 0, "solve": 0}
        real_coverage = ranges._coverage
        real_solve = ranges._MatrixDuel.solve

        def coverage(*args):
            calls["coverage"] += 1
            return real_coverage(*args)

        def solve(self):
            calls["solve"] += 1
            return real_solve(self)

        monkeypatch.setattr(ranges, "_coverage", coverage)
        monkeypatch.setattr(ranges._MatrixDuel, "solve", solve)
        found = ranges.strategy_ranges(TupleGame(cycle_graph(5), 2, nu=1))
        assert list(found) == ["attacker", "defender"]
        assert calls == {"coverage": 1, "solve": 1}

    def test_unknown_side_is_rejected(self):
        from repro.solvers.ranges import strategy_ranges

        with pytest.raises(ValueError, match="sides"):
            strategy_ranges(TupleGame(path_graph(4), 1, nu=1), ("both",))


class TestPerturbedValueRobustness:
    """Regression: the probe LPs used an *absolute* 1e-9 relaxation on the
    optimality constraints and no fallback.  A game value carrying normal
    HiGHS solver error (~1e-8) could make the probed polytope empty and the
    whole range computation fail on well-posed games.  The relaxation is
    now relative and infeasibility triggers one widened retry.
    """

    @staticmethod
    def _stub_minimax(delta):
        """A solve_minimax stand-in whose value is off by ``delta``."""
        from repro.solvers.lp import solve_minimax

        class _Result:
            def __init__(self, value):
                self.value = value

        def stub(game):
            return _Result(solve_minimax(game).value + delta)

        return stub

    def test_attacker_ranges_survive_undershot_value(self):
        """v* reported 1e-7 low: (Aq)_t <= v* + 1e-9 is infeasible, the
        widened retry (1e-5 relative) recovers."""
        from repro.obs import metrics
        from repro.solvers.ranges import _strategy_ranges

        game = TupleGame(star_graph(3), 1, nu=1)
        before = metrics.counter("ranges.probe.retry.count").value
        ranges = _strategy_ranges(game, ("attacker",),
                                  self._stub_minimax(-1e-7))["attacker"]
        assert metrics.counter("ranges.probe.retry.count").value == before + 1
        # Star K_{1,3}: the attacker hides on a leaf, never the center.
        low, high = ranges.ranges[0]
        assert high == pytest.approx(0.0, abs=1e-4)

    def test_defender_ranges_survive_overshot_value(self):
        """v* reported 1e-7 high: (A^T p)_v >= v* - 1e-9 is infeasible,
        the widened retry recovers."""
        from repro.obs import metrics
        from repro.solvers.ranges import _strategy_ranges

        game = TupleGame(star_graph(3), 1, nu=1)
        before = metrics.counter("ranges.probe.retry.count").value
        ranges = _strategy_ranges(game, ("defender",),
                                  self._stub_minimax(1e-7))["defender"]
        assert metrics.counter("ranges.probe.retry.count").value == before + 1
        for low, high in ranges.ranges.values():
            assert low == pytest.approx(1 / 3, abs=1e-4)
            assert high == pytest.approx(1 / 3, abs=1e-4)

    def test_hopeless_value_still_fails_loudly(self):
        """An error far beyond the widened relaxation must still raise."""
        from repro.solvers.ranges import _strategy_ranges

        game = TupleGame(star_graph(3), 1, nu=1)
        with pytest.raises(GameError, match="widened tolerance"):
            _strategy_ranges(game, ("attacker",),
                             self._stub_minimax(-0.05))

    def test_unperturbed_paths_do_not_retry(self):
        from repro.obs import metrics

        game = TupleGame(path_graph(4), 1, nu=1)
        before = metrics.counter("ranges.probe.retry.count").value
        attacker_vertex_ranges(game)
        defender_edge_ranges(game)
        assert metrics.counter("ranges.probe.retry.count").value == before


class TestCanonicalOrdering:
    """Regression: required()/usable() must report edge keys in the
    library's canonical edge order (edge_sort_key), not the vertex key's
    (type_name, repr) fallback that mixed-label tuples drop into."""

    def test_edge_keys_sort_like_sorted_edges(self):
        from repro.graphs.core import edge_sort_key
        from repro.solvers.ranges import StrategyRanges

        # Canonical edge order: (1, 2) < (1, "a") < ("a", "b").  The old
        # vertex_sort_key fallback compared reprs, where "(1, 'a')" sorts
        # *before* "(1, 2)" ("'" < "2" in ASCII).
        ranges = StrategyRanges(0.5, {
            ("a", "b"): (0.4, 0.9),
            (1, "a"): (0.3, 0.8),
            (1, 2): (0.2, 0.7),
        })
        canonical = [(1, 2), (1, "a"), ("a", "b")]
        assert sorted(ranges.ranges, key=edge_sort_key) == canonical
        assert ranges.usable() == canonical
        assert ranges.required() == canonical

    def test_vertex_keys_keep_vertex_order(self):
        from repro.graphs.core import vertex_sort_key
        from repro.solvers.ranges import StrategyRanges

        ranges = StrategyRanges(0.5, {"b": (0.1, 0.9), 3: (0.1, 0.9),
                                      1: (0.1, 0.9), "a": (0.1, 0.9)})
        assert ranges.usable() == sorted([1, 3, "a", "b"],
                                         key=vertex_sort_key)

    def test_mixed_label_defender_ranges_end_to_end(self):
        """defender_edge_ranges on an int+str graph reports usable edges
        in Graph.sorted_edges order."""
        from repro.graphs.core import Graph, edge_sort_key

        graph = Graph([(2, 1), ("a", 1), ("b", "a")])
        game = TupleGame(graph, 1, nu=1)
        defender = defender_edge_ranges(game)
        usable = defender.usable()
        assert usable == sorted(usable, key=edge_sort_key)
        required = defender.required()
        assert required == sorted(required, key=edge_sort_key)
        # The probed coordinate set is exactly the edge set, in order.
        assert sorted(defender.ranges, key=edge_sort_key) \
            == graph.sorted_edges()

    def test_mixed_label_attacker_ranges_end_to_end(self):
        from repro.graphs.core import Graph, vertex_sort_key

        graph = Graph([(2, 1), ("a", 1), ("b", "a")])
        game = TupleGame(graph, 1, nu=1)
        attacker = attacker_vertex_ranges(game)
        usable = attacker.usable()
        assert usable == sorted(usable, key=vertex_sort_key)


def _linprog_ranges(game, side):
    """The probes' earlier formulation, kept here as the reference: one
    fresh ``linprog`` per probe over the explicit optimality polytope,
    with the same relative relaxation and one widened retry."""
    import numpy as np
    from scipy.optimize import linprog

    from repro.core.tuples import all_tuples, tuple_vertices
    from repro.solvers.lp import solve_minimax

    value = solve_minimax(game).value
    vertices = game.graph.sorted_vertices()
    tuples = list(all_tuples(game.graph, game.k))
    index = {v: i for i, v in enumerate(vertices)}
    coverage = np.zeros((len(tuples), len(vertices)))
    for row, t in enumerate(tuples):
        for v in tuple_vertices(t):
            coverage[row, index[v]] = 1.0
    if side == "attacker":
        keys, costs = vertices, np.eye(len(vertices))
    else:
        keys = game.graph.sorted_edges()
        costs = np.array([[1.0 if e in t else 0.0 for t in tuples]
                          for e in keys])
    for widen in (1.0, 1e4):
        slack = widen * 1e-9 * max(1.0, abs(value))
        if side == "attacker":
            a_ub, b_ub = coverage, np.full(len(tuples), value + slack)
        else:
            a_ub = -coverage.T
            b_ub = np.full(len(vertices), -(value - slack))
        width = a_ub.shape[1]
        ranges = {}
        for key, c in zip(keys, costs):
            low, high = (
                linprog(sign * c, A_ub=a_ub, b_ub=b_ub,
                        A_eq=np.ones((1, width)), b_eq=[1.0],
                        bounds=[(0.0, 1.0)] * width, method="highs")
                for sign in (1.0, -1.0)
            )
            if not (low.success and high.success):
                break
            ranges[key] = (max(0.0, low.fun), min(1.0, -high.fun))
        else:
            return value, ranges
    raise AssertionError(f"reference probes infeasible on {game!r}")


def _reference_games():
    import random

    from repro.fuzz.generators import random_spec
    from repro.graphs.generators import (
        grid_graph,
        petersen_graph,
        random_bipartite_graph,
    )

    games = [random_spec(random.Random(seed)).to_game() for seed in range(40)]
    games = [g for g in games if g.tuple_strategy_count() <= 3000]
    return games + [
        TupleGame(petersen_graph(), 2, nu=1),
        TupleGame(petersen_graph(), 3, nu=1),
        TupleGame(grid_graph(3, 4), 2, nu=1),
        TupleGame(random_bipartite_graph(8, 10, 0.25, seed=5), 3, nu=1),
    ]


class TestAgainstLinprogFormulation:
    """The probes run on the duel's pinned HiGHS model; they must agree
    with the explicit ``linprog`` formulation to the 1e-7 resolution at
    which ``required()`` / ``usable()`` report, on every game."""

    @pytest.mark.parametrize("side", ["attacker", "defender"])
    def test_same_ranges_as_linprog(self, side):
        from repro.solvers.ranges import StrategyRanges

        probe = (attacker_vertex_ranges if side == "attacker"
                 else defender_edge_ranges)
        games = _reference_games()
        assert len(games) >= 40
        for game in games:
            ranges = probe(game)
            value, expected = _linprog_ranges(game, side)
            assert ranges.value == value, game
            assert set(ranges.ranges) == set(expected), game
            for key, (low, high) in expected.items():
                got_low, got_high = ranges.ranges[key]
                assert got_low == pytest.approx(low, abs=1e-7), (game, key)
                assert got_high == pytest.approx(high, abs=1e-7), (game, key)
            reference = StrategyRanges(value, expected)
            assert ranges.required() == reference.required(), game
            assert ranges.usable() == reference.usable(), game
