"""Tests for the coverage-oracle kernel (repro.kernels).

The property tests pin the kernel to *reference implementations* ported
verbatim from the seed ``best_response`` module (full enumeration over
``itertools.combinations`` and the original greedy loop), so any semantic
drift in the optimized searches is caught against first-principles code.

Weights in the identity sweeps are dyadic rationals (multiples of 1/64):
their coverage sums are exact in binary floating point, so mathematically
tied tuples compare exactly equal and the deterministic tie-break is
observable without summation-order noise.
"""

import gc
import hashlib
import inspect
import random
from itertools import combinations
from pathlib import Path

import pytest

from repro.core.game import TupleGame
from repro.core.tuples import tuple_vertices
from repro.graphs.core import GraphError
from repro.graphs.generators import (
    complete_bipartite_graph,
    cycle_graph,
    gnp_random_graph,
    path_graph,
    random_bipartite_graph,
)
from repro.kernels import CoverageOracle, clear_shared_oracles, shared_oracle
from repro.solvers.double_oracle import (
    double_oracle,
    double_oracle_result_to_json,
)
from repro.solvers.fictitious_play import (
    fictitious_play,
    fictitious_play_result_to_json,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


# --------------------------------------------------------------------------
# reference implementations (seed semantics, deliberately naive)
# --------------------------------------------------------------------------


def reference_exhaustive(graph, weights, k):
    best_t, best_v = None, float("-inf")
    for combo in combinations(graph.sorted_edges(), k):
        value = sum(weights.get(v, 0.0) for v in tuple_vertices(combo))
        if value > best_v + 1e-15:
            best_v = value
            best_t = combo
    return best_t, best_v


def reference_greedy(graph, weights, k):
    chosen, covered = [], set()
    remaining = set(graph.sorted_edges())
    value = 0.0
    for _ in range(k):
        best_edge, best_gain = None, float("-inf")
        for edge in sorted(remaining):
            gain = sum(
                weights.get(x, 0.0) for x in edge if x not in covered
            )
            if gain > best_gain + 1e-15:
                best_gain = gain
                best_edge = edge
        remaining.discard(best_edge)
        chosen.append(best_edge)
        covered.update(best_edge)
        value += best_gain
    return tuple(sorted(chosen)), value


def random_instance(seed, tie_prone):
    rng = random.Random(seed)
    graph = gnp_random_graph(rng.randrange(5, 9), 0.5, seed=seed)
    if tie_prone:
        weights = {v: float(rng.choice([0, 1, 1, 2])) for v in graph.vertices()}
    else:
        weights = {v: rng.randrange(0, 256) / 64.0 for v in graph.vertices()}
    return graph, weights


# --------------------------------------------------------------------------
# identity with the seed implementations
# --------------------------------------------------------------------------


class TestMatchesReference:
    @pytest.mark.parametrize("seed", range(25))
    @pytest.mark.parametrize("tie_prone", [False, True], ids=["dyadic", "ties"])
    def test_all_methods_match_seed_semantics(self, seed, tie_prone):
        graph, weights = random_instance(seed, tie_prone)
        for k in range(1, min(4, graph.m) + 1):
            oracle = CoverageOracle(graph, k)
            ref_t, ref_v = reference_exhaustive(graph, weights, k)
            for name in ("exhaustive", "best"):
                got_t, got_v = getattr(oracle, name)(weights)
                assert got_t == ref_t, (name, seed, k)
                assert got_v == pytest.approx(ref_v, abs=1e-12)
            ref_t, ref_v = reference_greedy(graph, weights, k)
            got_t, got_v = oracle.greedy(weights)
            assert got_t == ref_t, ("greedy", seed, k)
            assert got_v == pytest.approx(ref_v, abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_best_dispatch_is_exact(self, seed):
        graph, weights = random_instance(seed, tie_prone=False)
        k = min(3, graph.m)
        oracle = CoverageOracle(graph, k)
        ref_t, ref_v = reference_exhaustive(graph, weights, k)
        got_t, got_v = oracle.best(weights)
        assert got_t == ref_t and got_v == pytest.approx(ref_v)
        assert (got_t, got_v) == oracle.exhaustive(weights)

    def test_off_graph_weights_ignored(self):
        graph = path_graph(4)
        oracle = CoverageOracle(graph, 1)
        t, v = oracle.best({0: 1.0, "nope": 99.0})
        assert v == pytest.approx(1.0)
        assert 0 in tuple_vertices(t)

    def test_bad_k_rejected(self):
        with pytest.raises(GraphError):
            CoverageOracle(path_graph(4), 0)
        with pytest.raises(GraphError):
            CoverageOracle(path_graph(4), 9)


class TestExactMethodsAgreeOnTies:
    """Both exact searches must return the canonical (lexicographically
    smallest) optimal tuple — the seed bnb did not (see test_best_response
    for the pinned pre-fix disagreement)."""

    @pytest.mark.parametrize("seed", range(30))
    def test_bnb_tuple_equals_exhaustive_tuple(self, seed):
        graph, weights = random_instance(seed, tie_prone=True)
        for k in range(1, min(4, graph.m) + 1):
            oracle = CoverageOracle(graph, k)
            assert oracle.best(weights) == oracle.exhaustive(weights)

    def test_uniform_cycle_ties(self):
        graph = cycle_graph(8)
        weights = {v: 1.0 for v in graph.vertices()}
        oracle = CoverageOracle(graph, 3)
        t_bnb, _ = oracle.best(weights)
        t_exh, _ = oracle.exhaustive(weights)
        assert t_bnb == t_exh


def lp_noise_weights(rng, vertices):
    """An attacker mixture as an LP solution leaves it: uniform on a
    random support, each mass off by up to one 1e-16 of solver noise."""
    support = rng.sample(vertices, rng.randrange(2, len(vertices) + 1))
    return {
        v: 1 / len(support) + rng.choice([-1e-16, 0.0, 1e-16])
        for v in support
    }


def fp_count_weights(rng, vertices):
    """An attacker mixture as fictitious play builds it: the empirical
    frequencies ``count / rounds`` of ``rounds`` attacker picks."""
    rounds = rng.randrange(1, 200)
    counts = {}
    for _ in range(rounds):
        v = rng.choice(vertices)
        counts[v] = counts.get(v, 0) + 1
    return {v: c / rounds for v, c in counts.items()}


def bnb_sized_case(model, seed):
    """A ``k = 4`` instance of some 10⁵ tuples and one near-tie weight
    vector."""
    graph = gnp_random_graph(12, 0.6, seed=seed)
    oracle = CoverageOracle(graph, 4)
    rng = random.Random(f"{model.__name__}:{seed}")
    return graph, oracle, model(rng, graph.sorted_vertices())


class TestBitIdentityAtBnbSizes:
    """``_lex_greedy`` promises values bit-identical to the exhaustive
    DFS (same tuple, same summation order); pinned here by ``==`` on the
    near-tie vectors the solvers actually produce, at unit mass and
    above it."""

    MODELS = [lp_noise_weights, fp_count_weights]

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("model", MODELS, ids=["lp-noise", "fp-counts"])
    def test_bnb_equals_exhaustive(self, model, seed):
        _, oracle, weights = bnb_sized_case(model, seed)
        t_bnb, v_bnb = oracle.best(weights)
        t_exh, v_exh = oracle.exhaustive(weights)
        assert t_bnb == t_exh
        assert v_bnb == v_exh

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("model", MODELS, ids=["lp-noise", "fp-counts"])
    def test_greedy_equals_reference(self, model, seed):
        graph, oracle, weights = bnb_sized_case(model, seed)
        t_ref, v_ref = reference_greedy(graph, weights, oracle.k)
        t_got, v_got = oracle.greedy(weights)
        assert t_got == t_ref
        assert v_got == v_ref

    def test_exact_methods_split_above_unit_mass(self):
        # Fictitious-play-like counts that do not sum to the round count
        # (as weighted masses q(v)·w(v) need not), so coverage reaches
        # 5.8; an absolute 1e-15 tie tolerance, about one ulp there, let
        # the two searches split between equally covering tuples.
        graph = gnp_random_graph(12, 0.45, seed=238)
        oracle = CoverageOracle(graph, 4)
        counts = [5, 0, 2, 0, 3, 4, 0, 2, 4, 4, 4, 3]
        weights = {v: c / 5 for v, c in zip(graph.sorted_vertices(), counts)}
        assert oracle.best(weights) == oracle.exhaustive(weights)

    def test_certificate_query_with_a_rounding_near_miss(self):
        # The one certificate query of double_oracle(TupleGame(
        # random_bipartite_graph(25, 40, 0.10, seed=719340407), 5, 1)):
        # LP-dual masses on the 40 right-side vertices, summing to
        # 1.0000000000000002.  Phase 2's probe, summing in static order,
        # admits a 4-slot prefix whose last slot then falls 6.9e-18 short
        # in slot order; the answer must still be exhaustive's (pinned
        # here: exhaustive takes about a minute on this query).
        graph = random_bipartite_graph(25, 40, 0.10, seed=719340407)
        masses = [
        0.025000000000001382, 0.02499999999999971, 0.025000000000000258, 0.024999999999999065,
        0.02499999999999812, 0.025000000000004692, 0.024999999999997483, 0.024999999999999134,
        0.02500000000000055, 0.02500000000000024, 0.024999999999997025, 0.025000000000000355,
        0.024999999999995685, 0.025000000000005178, 0.02499999999999708, 0.02500000000000038,
        0.02500000000000059, 0.025000000000000938, 0.02499999999999946, 0.024999999999999772,
        0.024999999999998197, 0.02499999999999801, 0.025000000000000605, 0.025000000000000466,
        0.024999999999999818, 0.02499999999999994, 0.024999999999997878, 0.025000000000000463,
        0.025000000000000328, 0.02500000000000041, 0.025000000000001035, 0.025000000000000636,
        0.025000000000000577, 0.025000000000001243, 0.0249999999999979, 0.024999999999999203,
        0.02500000000000148, 0.025000000000005497, 0.02499999999999947, 0.024999999999999828,
        ]
        weights = dict(zip(range(25, 65), masses))
        assert CoverageOracle(graph, 5).best(weights) == (
            ((1, 55), (7, 25), (12, 62), (15, 30), (16, 38)),
            0.1250000000000178,
        )

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("model", MODELS, ids=["lp-noise", "fp-counts"])
    def test_fallback_search_equals_exhaustive(self, model, seed, monkeypatch):
        # Phase 2's fallback is rarely reached; force it on every query.
        _, oracle, weights = bnb_sized_case(model, seed)
        monkeypatch.setattr(CoverageOracle, "_lex_greedy",
                            lambda *args: None)
        assert oracle.best(weights) == oracle.exhaustive(weights)

    @pytest.mark.parametrize("seed", range(200, 210))
    def test_near_tie_sweep_above_unit_mass(self, seed):
        # Twelve vectors of counts c/r (r = 3..7), total mass about n/2:
        # mathematically tied coverages round a few ulps apart.  Under an
        # absolute 1e-15 tolerance these seeds split on 10 of 120.
        graph = gnp_random_graph(12, 0.45, seed=seed)
        oracle = CoverageOracle(graph, 4)
        rng = random.Random(f"near-tie:{seed}")
        for _ in range(12):
            r = rng.randint(3, 7)
            weights = {v: rng.randrange(r + 1) / r
                       for v in graph.sorted_vertices()}
            assert oracle.best(weights) == oracle.exhaustive(weights), r


class TestGoldenSolverBytes:
    """Solver results pinned byte for byte (sha256 of the canonical JSON):
    a kernel change that moves any answer, tie-break or float shows
    here.  Re-record only for a deliberate change of answers."""

    GOLDEN = {
        1: ("e45a9a8ef9f9045c9e8a8a6879e3531b6451766a517f6846b0d78707dbfdcd71",
            "890add71d137c3cdf6ce59b9e374d403a75ce0e55b7258d20c6ae4c2c7eb05bc"),
        # Seed 2's certificate query takes phase 2's fallback search.
        2: ("482875e9b9a50a459edf57e02b50dae9c816fab94f13487e64301c384e194be1",
            "e58ad5405dd1658d066095a7070dd92b47a13232305b680c97409ce3aea0a73f"),
    }

    @staticmethod
    def _sha(text):
        return hashlib.sha256(text.encode()).hexdigest()

    @pytest.mark.parametrize("seed", sorted(GOLDEN))
    def test_fictitious_play_and_double_oracle_bytes(self, seed):
        game = TupleGame(random_bipartite_graph(25, 40, 0.10, seed=seed), 5)
        fp_sha, do_sha = self.GOLDEN[seed]
        fp = fictitious_play(game, rounds=200)
        assert self._sha(fictitious_play_result_to_json(fp)) == fp_sha
        assert self._sha(double_oracle_result_to_json(double_oracle(game))) \
            == do_sha


class TestNoReferenceCycles:
    """A query frees what it allocates by reference counting alone: the
    recursive searches clear their closures' self-references, so a batch
    of queries leaves nothing for the cyclic collector and peak memory
    does not move with when a collection happens to run."""

    @staticmethod
    def _garbage_after(queries):
        gc.collect()
        gc.disable()
        try:
            queries()
            return gc.collect()
        finally:
            gc.enable()

    def test_best_batch(self):
        graph = random_bipartite_graph(25, 40, 0.10, seed=3)
        oracle = CoverageOracle(graph, 5)
        rng = random.Random(3)
        batch = [{v: rng.random() for v in graph.sorted_vertices()}
                 for _ in range(300)]
        assert self._garbage_after(
            lambda: [oracle.best(w) for w in batch]) == 0

    def test_fallback_and_exhaustive(self, monkeypatch):
        _, oracle, weights = bnb_sized_case(lp_noise_weights, 0)
        monkeypatch.setattr(CoverageOracle, "_lex_greedy",
                            lambda *args: None)
        assert self._garbage_after(
            lambda: (oracle.best(weights), oracle.exhaustive(weights))) == 0


# --------------------------------------------------------------------------
# shared cache + coverage views
# --------------------------------------------------------------------------


class TestSharedCache:
    def test_same_instance_is_reused(self):
        graph = path_graph(5)
        assert shared_oracle(graph, 2) is shared_oracle(graph, 2)

    def test_distinct_k_distinct_oracles(self):
        graph = path_graph(5)
        assert shared_oracle(graph, 1) is not shared_oracle(graph, 2)

    def test_equal_graphs_share(self):
        assert shared_oracle(path_graph(5), 2) is shared_oracle(path_graph(5), 2)

    def test_clear_drops_cache(self):
        graph = path_graph(5)
        before = shared_oracle(graph, 2)
        clear_shared_oracles()
        assert shared_oracle(graph, 2) is not before

    def test_clear_resets_size_gauge(self):
        # Regression: clear_shared_oracles() used to leave the
        # perf.kernel.cache.size gauge at its pre-clear value, reporting
        # phantom cached oracles until the next miss.
        from repro.obs import metrics

        shared_oracle(path_graph(5), 2)
        shared_oracle(path_graph(6), 2)
        assert metrics.gauge("perf.kernel.cache.size").value >= 2
        clear_shared_oracles()
        assert metrics.gauge("perf.kernel.cache.size").value == 0


class TestCoverageViews:
    def test_coverage_matrix_entries(self):
        np = pytest.importorskip("numpy")
        graph = cycle_graph(6)
        oracle = CoverageOracle(graph, 2)
        tuples = [((0, 1), (2, 3)), ((1, 2), (4, 5))]
        matrix, slot = oracle.coverage_matrix(tuples)
        for row, t in enumerate(tuples):
            covered = tuple_vertices(t)
            for v in oracle.vertices:
                assert matrix[row, slot[v]] == (v in covered)
        assert oracle.coverage_matrix(tuples)[0] is matrix


# --------------------------------------------------------------------------
# facade contract
# --------------------------------------------------------------------------


class TestFacadeContract:
    """The best_response facade's public surface is pinned: every export
    documented in docs/api.md, with these exact signatures."""

    EXPECTED_SIGNATURES = {
        "coverage_value": "(weights, t)",
        "best_tuple": "(graph, weights, k)",
    }

    def test_signatures_unchanged(self):
        from repro.solvers import best_response

        assert sorted(best_response.__all__) == sorted(self.EXPECTED_SIGNATURES)
        for name, expected in self.EXPECTED_SIGNATURES.items():
            sig = inspect.signature(getattr(best_response, name))
            # Compare parameter names and defaults, ignoring annotations.
            got = "({})".format(
                ", ".join(
                    p.name
                    if p.default is inspect.Parameter.empty
                    else f"{p.name}={p.default!r}"
                    for p in sig.parameters.values()
                )
            )
            assert got == expected, (name, got)

    def test_exports_documented_in_api_md(self):
        api = (REPO_ROOT / "docs" / "api.md").read_text()
        import repro.kernels
        from repro.solvers import best_response

        for name in list(best_response.__all__) + list(repro.kernels.__all__):
            assert f"`{name}`" in api, f"{name} missing from docs/api.md"
