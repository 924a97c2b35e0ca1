"""Tests for Algorithm A_tuple and the cyclic construction
(repro.equilibria.atuple) — Lemma 4.8, Claim 4.9, Theorems 4.12/5.1."""

from collections import Counter
from math import gcd
from pathlib import Path

import pytest

import repro.equilibria.solve as solve_module
from repro.core.characterization import is_mixed_nash
from repro.core.configuration import MixedConfiguration
from repro.core.game import GameError, TupleGame
from repro.core.serialize import solve_result_to_json
from repro.equilibria import NoEquilibriumFoundError, solve_game
from repro.equilibria.atuple import (
    algorithm_a_tuple,
    cyclic_tuples,
    expected_tuple_count,
)
from repro.equilibria.kmatching import is_kmatching_nash
from repro.equilibria.matching_ne import algorithm_a
from repro.fuzz.corpus import iter_corpus
from repro.graphs.core import edge_sort_key
from repro.graphs.generators import complete_bipartite_graph, random_bipartite_graph
from repro.matching.covers import minimum_edge_cover_size
from repro.matching.partition import bipartite_partition
from tests.conftest import bipartite_zoo, zoo_params


def fake_edges(count):
    return [(2 * i, 2 * i + 1) for i in range(count)]


class TestCyclicTuples:
    @pytest.mark.parametrize(
        "e_num, k",
        [(6, 2), (6, 3), (6, 4), (5, 2), (5, 3), (7, 3), (8, 6), (9, 6), (4, 4), (1, 1)],
    )
    def test_claim_49_delta_and_alpha(self, e_num, k):
        edges = fake_edges(e_num)
        tuples = cyclic_tuples(edges, k)
        delta = e_num // gcd(e_num, k)
        alpha = k // gcd(e_num, k)
        assert len(tuples) == delta == expected_tuple_count(e_num, k)
        counts = Counter(e for t in tuples for e in t)
        # Every edge appears, each exactly alpha times.
        assert set(counts) == set(edges)
        assert set(counts.values()) == {alpha}

    @pytest.mark.parametrize("e_num, k", [(6, 2), (5, 3), (7, 4), (9, 6)])
    def test_each_window_has_k_distinct_edges(self, e_num, k):
        for window in cyclic_tuples(fake_edges(e_num), k):
            assert len(window) == k
            assert len(set(window)) == k

    def test_windows_are_distinct_tuples(self):
        tuples = cyclic_tuples(fake_edges(9), 6)
        as_sets = {frozenset(t) for t in tuples}
        assert len(as_sets) == len(tuples)

    def test_k_equals_enum_single_window(self):
        tuples = cyclic_tuples(fake_edges(4), 4)
        assert len(tuples) == 1

    def test_divisible_case_is_a_partition(self):
        # k | E_num: windows tile the edges exactly once (alpha = 1).
        tuples = cyclic_tuples(fake_edges(8), 4)
        assert len(tuples) == 2
        counts = Counter(e for t in tuples for e in t)
        assert set(counts.values()) == {1}

    def test_rejects_k_above_enum(self):
        with pytest.raises(GameError, match="pure NE"):
            cyclic_tuples(fake_edges(3), 4)

    def test_rejects_empty_edges(self):
        with pytest.raises(GameError, match="at least one edge"):
            cyclic_tuples([], 1)

    def test_construction_order_matches_figure_1(self):
        """Figure 1 walks labels 0,1,...: the i-th window starts at
        (i-1)k mod E_num."""
        edges = fake_edges(5)
        tuples = cyclic_tuples(edges, 2)
        assert tuples[0][0] == edges[0]
        assert tuples[1][0] == edges[2]
        assert tuples[2][0] == edges[4]
        assert tuples[2][1] == edges[0]  # wraps around


class TestAlgorithmATuple:
    @pytest.mark.parametrize("graph", zoo_params(bipartite_zoo()))
    def test_theorem_412_correctness(self, graph):
        independent, cover_side = bipartite_partition(graph)
        rho = minimum_edge_cover_size(graph)
        for k in range(1, rho):
            game = TupleGame(graph, k, nu=2)
            config = algorithm_a_tuple(game, independent, cover_side)
            assert is_kmatching_nash(game, config)
            assert is_mixed_nash(game, config)

    def test_k1_coincides_with_algorithm_a(self, k24):
        from repro.equilibria.matching_ne import algorithm_a

        game = TupleGame(k24, k=1, nu=2)
        independent, cover_side = bipartite_partition(k24)
        via_tuple = algorithm_a_tuple(game, independent, cover_side)
        via_edge = algorithm_a(game, independent, cover_side)
        assert via_tuple.tp_support() == via_edge.tp_support()
        assert via_tuple.vp_support_union() == via_edge.vp_support_union()

    def test_support_size_is_delta(self):
        graph = complete_bipartite_graph(2, 6)
        independent, cover_side = bipartite_partition(graph)
        rho = minimum_edge_cover_size(graph)  # 6
        for k in range(1, rho):
            game = TupleGame(graph, k, nu=1)
            config = algorithm_a_tuple(game, independent, cover_side)
            assert len(config.tp_support()) == expected_tuple_count(rho, k)

    def test_k_equals_rho_degenerates_to_full_cover(self):
        """At k = rho the walk emits a single window covering all of V —
        a degenerate (pure-like) equilibrium, same as Theorem 3.1's."""
        graph = complete_bipartite_graph(2, 4)
        independent, cover_side = bipartite_partition(graph)
        rho = minimum_edge_cover_size(graph)
        game = TupleGame(graph, rho, nu=1)
        config = algorithm_a_tuple(game, independent, cover_side)
        assert len(config.tp_support()) == 1
        assert is_mixed_nash(game, config)

    def test_rejects_k_above_rho(self):
        graph = complete_bipartite_graph(2, 4)
        independent, cover_side = bipartite_partition(graph)
        rho = minimum_edge_cover_size(graph)
        game = TupleGame(graph, rho + 1, nu=1)
        with pytest.raises(GameError, match="pure NE"):
            algorithm_a_tuple(game, independent, cover_side)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_bipartite_full_sweep(self, seed):
        graph = random_bipartite_graph(4, 6, 0.35, seed=seed)
        independent, cover_side = bipartite_partition(graph)
        rho = minimum_edge_cover_size(graph)
        for k in range(1, rho):
            game = TupleGame(graph, k, nu=3)
            config = algorithm_a_tuple(game, independent, cover_side)
            assert is_kmatching_nash(game, config)


def _edge_profile_route(game, independent_set, vertex_cover):
    """``A_tuple`` with step 1 building, and validating, the whole
    Edge-model profile of Algorithm ``A`` only to read its support."""
    independent_set = tuple(independent_set)
    edge_config = algorithm_a(game.edge_game(), independent_set, vertex_cover)
    labelled = sorted(edge_config.tp_support_edges(), key=edge_sort_key)
    return MixedConfiguration.uniform(
        game, independent_set, cyclic_tuples(labelled, game.k))


def _corpus_games():
    for _path, spec in iter_corpus(Path(__file__).parent / "corpus"):
        graph = spec.to_game().graph
        for k in range(1, min(graph.m, 4) + 1):
            yield TupleGame(graph, k, nu=spec.nu)


def _bipartite_games():
    for seed in range(1, 9):
        graph = random_bipartite_graph(6, 9, 0.3, seed=seed)
        for k in range(1, min(graph.m, 4) + 1):
            yield TupleGame(graph, k, nu=2)


def _solved_bytes(games):
    """``(kind, solve_result_to_json bytes)`` per game; ``(None, None)``
    where the game has no equilibrium."""
    out = []
    for game in games:
        try:
            result = solve_game(game)
        except NoEquilibriumFoundError:
            out.append((None, None))
            continue
        out.append((result.kind, solve_result_to_json(result)))
    return out


class TestOneProfile:
    """Step 1 reads Algorithm A's support D(tp) straight from
    build_matching_cover: one validated profile per k-matching solve,
    and the same bytes as the Edge-model route."""

    @pytest.mark.parametrize("games", [_corpus_games, _bipartite_games],
                             ids=["corpus", "seeded-bipartite"])
    def test_same_bytes_as_the_edge_profile_route(self, games, monkeypatch):
        current = _solved_bytes(games())
        kinds = Counter(kind for kind, _text in current)
        assert kinds["k-matching"] >= 5, kinds
        monkeypatch.setattr(solve_module, "algorithm_a_tuple",
                            _edge_profile_route)
        assert _solved_bytes(games()) == current

    def test_builds_one_profile(self, monkeypatch):
        graph = random_bipartite_graph(6, 9, 0.3, seed=3)
        independent, cover_side = bipartite_partition(graph)
        game = TupleGame(graph, 2, nu=2)
        built = []
        real_init = MixedConfiguration.__init__

        def counted(self, *args, **kwargs):
            built.append(args[0])
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(MixedConfiguration, "__init__", counted)
        algorithm_a_tuple(game, independent, cover_side)
        assert built == [game]
        built.clear()
        _edge_profile_route(game, independent, cover_side)
        assert len(built) == 2 and built[0].k == 1
