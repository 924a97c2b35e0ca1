"""Tests for the coverage best response (repro.solvers.best_response) and
the kernel's named searches behind it."""

import random

import pytest

from repro.graphs.core import GraphError
from repro.graphs.generators import (
    complete_bipartite_graph,
    cycle_graph,
    gnp_random_graph,
    path_graph,
    star_graph,
)
from repro.kernels import shared_oracle
from repro.obs import metrics
from repro.solvers.best_response import best_tuple, coverage_value


def exhaustive(graph, weights, k):
    return shared_oracle(graph, k).exhaustive(weights)


def best(graph, weights, k):
    return shared_oracle(graph, k).best(weights)


def greedy(graph, weights, k):
    return shared_oracle(graph, k).greedy(weights)


class TestCoverageValue:
    def test_distinct_endpoints_only(self):
        weights = {0: 1.0, 1: 2.0, 2: 4.0}
        assert coverage_value(weights, ((0, 1), (1, 2))) == pytest.approx(7.0)

    def test_missing_vertices_count_zero(self):
        assert coverage_value({}, ((0, 1),)) == 0.0

    def test_sums_in_canonical_order(self):
        # 1e16 + 1.0 rounds back to 1e16, so only the tuple's own order
        # a, b, c gives 0.0; a hash-ordered sum over {a, b, c} could give 1.0.
        weights = {"a": 1e16, "b": 1.0, "c": -1e16}
        assert coverage_value(weights, (("a", "b"), ("b", "c"))) == 0.0


class TestExactSolvers:
    def test_known_optimum_path(self):
        g = path_graph(5)
        weights = {0: 5.0, 1: 0.0, 2: 1.0, 3: 0.0, 4: 5.0}
        # Two edges cannot cover 0, 2 and 4 simultaneously on P5, so the
        # optimum takes both endpoints and forfeits the middle vertex.
        t, value = exhaustive(g, weights, 2)
        assert value == pytest.approx(10.0)
        assert t == ((0, 1), (3, 4))

    def test_overlap_penalized(self):
        # Star: all edges share the center, so extra edges add only leaves.
        g = star_graph(4)
        weights = {0: 10.0, 1: 1.0, 2: 2.0, 3: 3.0, 4: 4.0}
        t, value = exhaustive(g, weights, 2)
        assert value == pytest.approx(10.0 + 4.0 + 3.0)
        assert t == ((0, 3), (0, 4))

    @pytest.mark.parametrize("seed", range(15))
    def test_bnb_matches_exhaustive(self, seed):
        rng = random.Random(seed)
        g = gnp_random_graph(rng.randrange(5, 10), 0.5, seed=seed)
        weights = {v: rng.uniform(0, 3) for v in g.vertices()}
        k = rng.randrange(1, min(4, g.m) + 1)
        _, exhaustive_value = exhaustive(g, weights, k)
        _, bnb_value = best(g, weights, k)
        assert bnb_value == pytest.approx(exhaustive_value)

    def test_bnb_on_uniform_weights(self):
        g = cycle_graph(8)
        weights = {v: 1.0 for v in g.vertices()}
        _, value = best(g, weights, 4)
        assert value == pytest.approx(8.0)  # perfect cover exists

    def test_deterministic_tie_breaking(self):
        g = cycle_graph(6)
        weights = {v: 1.0 for v in g.vertices()}
        first = exhaustive(g, weights, 2)
        second = exhaustive(g, weights, 2)
        assert first == second


class TestCanonicalTieBreak:
    """Regression: the seed bnb explored edges in static-weight order and
    could return an equal-value but lexicographically *larger* tuple than
    exhaustive enumeration on ties.  Both exact methods must now return
    the canonical (lexicographically smallest) optimal tuple."""

    def test_pinned_pre_fix_disagreement(self):
        # On this instance the seed code returned ((0, 4), (3, 5)) from
        # exhaustive but ((3, 5), (4, 5)) from bnb (both value 6.0).
        rng = random.Random(1)
        g = gnp_random_graph(rng.randrange(5, 9), 0.5, seed=1)
        weights = {v: float(rng.choice([0, 1, 1, 2])) for v in g.vertices()}
        t_exh, v_exh = exhaustive(g, weights, 2)
        t_bnb, v_bnb = best(g, weights, 2)
        assert t_exh == t_bnb == ((0, 4), (3, 5))
        assert v_exh == v_bnb == pytest.approx(6.0)

    @pytest.mark.parametrize("seed", range(20))
    def test_exact_methods_agree_on_ties(self, seed):
        # Integer weights with few levels make value ties the common case.
        rng = random.Random(seed)
        g = gnp_random_graph(rng.randrange(5, 9), 0.5, seed=seed)
        weights = {v: float(rng.choice([0, 1, 1, 2])) for v in g.vertices()}
        for k in range(1, min(4, g.m) + 1):
            assert exhaustive(g, weights, k) == best(g, weights, k)


class TestGreedy:
    def test_greedy_is_optimal_on_disjoint_instance(self):
        g = path_graph(6)
        weights = {0: 3.0, 1: 3.0, 2: 0.0, 3: 0.0, 4: 2.0, 5: 2.0}
        _, value = greedy(g, weights, 2)
        assert value == pytest.approx(10.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_greedy_within_optimum(self, seed):
        rng = random.Random(seed)
        g = gnp_random_graph(8, 0.5, seed=seed)
        weights = {v: rng.uniform(0, 2) for v in g.vertices()}
        k = min(3, g.m)
        _, opt = exhaustive(g, weights, k)
        _, approx = greedy(g, weights, k)
        assert approx <= opt + 1e-9
        # 1 - 1/e guarantee, with slack for exact-arithmetic edge cases.
        assert approx >= (1 - 1 / 2.718281828) * opt - 1e-9

    def test_greedy_returns_k_distinct_edges(self):
        g = complete_bipartite_graph(3, 3)
        t, _ = greedy(g, {v: 1.0 for v in g.vertices()}, 4)
        assert len(set(t)) == 4


class TestDispatch:
    """``best_tuple`` is one kernel query, branch and bound at every
    size; it must return the exhaustive reference, tuple and value, on
    tie-prone weights."""

    @staticmethod
    def _check(graph, k):
        counter = metrics.counter("perf.kernel.query.count")
        for seed in range(3):
            rng = random.Random(seed)
            weights = {v: float(rng.choice([0, 1, 1, 2]))
                       for v in graph.vertices()}
            before = counter.value
            got = best_tuple(graph, weights, k)
            assert counter.value == before + 1, seed
            assert got == exhaustive(graph, weights, k), seed

    def test_one_query_matches_reference_at_19600_tuples(self):
        self._check(complete_bipartite_graph(5, 10), 3)  # C(50, 3)

    def test_one_query_matches_reference_at_20825_tuples(self):
        self._check(complete_bipartite_graph(3, 17), 3)  # C(51, 3)

    def test_bad_k(self):
        with pytest.raises(GraphError):
            best_tuple(path_graph(4), {}, 0)
        with pytest.raises(GraphError):
            best_tuple(path_graph(4), {}, 9)
