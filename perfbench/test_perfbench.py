"""Tests of the benchmark itself (not of the program it measures).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import pb_checks  # noqa: E402
import pb_env  # noqa: E402
import pb_inputs  # noqa: E402
import pb_stats  # noqa: E402
import pb_tracer  # noqa: E402
import run as bench  # noqa: E402
from repro.core.game import TupleGame  # noqa: E402
from repro.core.serialize import solve_result_to_json  # noqa: E402
from repro.equilibria import solve_game  # noqa: E402
from repro.graphs.generators import random_bipartite_graph  # noqa: E402
from repro.solvers.double_oracle import double_oracle  # noqa: E402
from repro.weighted.game import (  # noqa: E402
    WeightedTupleGame,
    weighted_double_oracle,
)


# -- the tail-percentile rule ---------------------------------------------

def test_tail_rule_needs_ten_samples_beyond():
    assert pb_stats.min_count_for_tail(90) == 100
    assert pb_stats.min_count_for_tail(99) == 1000
    assert pb_stats.samples_beyond(100, 90) == 10
    assert pb_stats.samples_beyond(99, 90) == 9
    assert pb_stats.samples_beyond(999, 99) == 9


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert pb_stats.percentile(values, 90) == 90
    assert pb_stats.median([3, 1, 2]) == 2
    with pytest.raises(ValueError):
        pb_stats.percentile([], 50)


@pytest.mark.parametrize("seconds", [1, 5, 20, 60])
def test_every_run_supports_its_tail_percentiles(seconds):
    for workload in ("do-exact", "fp-rounds"):
        count = bench.op_count(workload, seconds)
        assert pb_stats.samples_beyond(count, 90) >= pb_stats.MIN_BEYOND
    serve = bench.op_count("serve-mixed", seconds)
    assert pb_stats.samples_beyond(serve, 99) >= pb_stats.MIN_BEYOND
    assert serve % 10 == 0
    # Each block of the serve window supports its own p90.
    import pb_serve

    assert pb_stats.samples_beyond(pb_serve.BLOCK, 90) >= pb_stats.MIN_BEYOND


# -- seeded generation ------------------------------------------------------

def _signature(ops):
    return [(op.kind, tuple(op.game.graph.sorted_edges()),
             tuple(sorted(getattr(op.game, "weights", {}).items())))
            for op in ops]


def test_library_inputs_repeat_per_seed_and_never_within_a_run():
    first = pb_inputs.library_ops("do-exact", 7, 12)
    again = pb_inputs.library_ops("do-exact", 7, 12)
    other = pb_inputs.library_ops("do-exact", 8, 12)
    assert _signature(first) == _signature(again)
    assert _signature(first) != _signature(other)
    graphs = [tuple(op.game.graph.sorted_edges()) for op in first]
    assert len(set(graphs)) == len(graphs)
    assert [op.kind for op in first].count("weighted") == 3
    assert all(set(op.game.weights.values()) <= set(pb_inputs.WEIGHT_CHOICES)
               for op in first if op.kind == "weighted")
    assert {op.kind for op in pb_inputs.library_ops("fp-rounds", 7, 3)} \
        == {"fp"}


def test_serve_inputs_repeat_per_seed():
    _, _, first = pb_inputs.serve_inputs(3, 100)
    _, _, again = pb_inputs.serve_inputs(3, 100)
    _, _, other = pb_inputs.serve_inputs(4, 100)
    assert first == again
    assert [op.body for op in first] != [op.body for op in other]


# -- exact per-class counts of serve-mixed ----------------------------------

def test_serve_sequence_has_exact_class_counts():
    hot, misses, ops = pb_inputs.serve_inputs(5, 1000)
    assert pb_inputs.kind_counts(ops) == {"hit": 600, "miss": 300,
                                          "reject": 100}
    rejects = [op.ref for op in ops if op.kind == "reject"]
    assert {kind: rejects.count(kind) for kind in pb_inputs.REJECT_KINDS} \
        == {"invalid-json": 34, "invalid-params": 33, "invalid-game": 33}
    miss_bodies = [op.body for op in ops if op.kind == "miss"]
    assert len(set(miss_bodies)) == len(misses) == 300
    hot_bodies = {pb_inputs.solve_body(game) for game in hot}
    assert {op.body for op in ops if op.kind == "hit"} <= hot_bodies
    assert not hot_bodies & set(miss_bodies)
    with pytest.raises(ValueError):
        pb_inputs.class_counts(1005)


def test_served_sequence_does_exact_work():
    import pb_serve

    result = pb_serve.run_pass(seed=2, count=20, setup_reps=1, trace=False)
    assert result["failures"] == []
    # 12 hits probe once; 6 misses probe twice (route, then solver) and
    # store once; 2 rejects never reach the cache.
    assert result["counts"] == {
        "cache.hits": 12, "cache.misses": 12, "cache.stores": 6,
        "equilibria.solves": 6, "kernel.builds": 6,
        "serve.responses_200": 18, "serve.responses_400": 2,
    }


# -- every answer check rejects an injected fault ----------------------------

@pytest.fixture(scope="module")
def plain_game():
    return TupleGame(random_bipartite_graph(25, 40, 0.10, seed=11), 5, 1)


def test_plain_do_check(plain_game):
    result = double_oracle(plain_game)
    assert pb_checks.check_plain_do(plain_game, result.value,
                                    result.exact) is None
    assert pb_checks.check_plain_do(plain_game, result.value + 1e-4,
                                    True) is not None
    assert pb_checks.check_plain_do(plain_game, result.value,
                                    False) is not None


def test_weighted_do_check():
    graph = random_bipartite_graph(8, 12, 0.25, seed=3)
    weights = {v: (1, 2, 3, 5)[i % 4]
               for i, v in enumerate(graph.sorted_vertices())}
    game = WeightedTupleGame(graph, 2, weights, 1)
    config, value = weighted_double_oracle(game)
    assert pb_checks.check_weighted_do(game, config, value) is None
    assert pb_checks.check_weighted_do(game, config, value + 1e-6) \
        is not None
    # A wrong mixture at the right value: all attacker mass on one vertex.
    from repro.core.configuration import MixedConfiguration

    vertex = graph.sorted_vertices()[0]
    skewed = MixedConfiguration(game.base, [{vertex: 1.0}],
                                config.tp_distribution())
    assert pb_checks.check_weighted_do(game, skewed, value) is not None


def test_fp_check(plain_game):
    expected = pb_checks.paper_value(plain_game)
    assert pb_checks.check_fp(plain_game, expected - 0.01,
                              expected + 0.01) is None
    assert pb_checks.check_fp(plain_game, expected + 0.01,
                              expected + 0.02) is not None


def _envelope(game, cache_hit=False):
    result = json.loads(solve_result_to_json(solve_game(game)))
    return {"schema": "repro.serve/response/v1", "endpoint": "solve",
            "cache_hit": cache_hit, "result": result}


def test_miss_check():
    game = TupleGame(random_bipartite_graph(20, 30, 0.12, seed=4), 3, 2)
    good = _envelope(game)
    body = json.dumps(good, sort_keys=True).encode()
    assert pb_checks.check_miss(game, 200, body) is None
    assert pb_checks.check_miss(game, 500, body) is not None
    assert pb_checks.check_miss(game, 200, b"not json") is not None
    wrong = json.loads(body)
    wrong["result"]["solve"]["defender_gain"] *= 1.001
    assert pb_checks.check_miss(
        game, 200, json.dumps(wrong).encode()) is not None
    replayed = dict(good, cache_hit=True)
    assert pb_checks.check_miss(
        game, 200, json.dumps(replayed).encode()) is not None


def test_hit_check():
    primed = b'{"cache_hit": true, "result": {"x": 1}}'
    assert pb_checks.check_hit(200, primed, primed) is None
    assert pb_checks.check_hit(429, primed, primed) is not None
    assert pb_checks.check_hit(200, primed.replace(b"1", b"2"),
                               primed) is not None


def test_reject_check():
    body = json.dumps({"error": {"code": "invalid-json", "status": 400}})
    assert pb_checks.check_reject("invalid-json", 400, body.encode()) is None
    assert pb_checks.check_reject("invalid-json", 200,
                                  body.encode()) is not None
    assert pb_checks.check_reject("invalid-game", 400,
                                  body.encode()) is not None


# -- tracing and the determinism guard --------------------------------------

def test_self_times_add_up_to_the_op():
    current = [None]
    tracer = pb_tracer.Tracer(lambda: current[0])
    inner = tracer.wrap("inner", lambda: time.sleep(0.02))

    def outer_body():
        time.sleep(0.01)
        inner()
        inner()

    outer = tracer.wrap("outer", outer_body)
    outer()  # no key: not recorded
    assert tracer.table == {}
    current[0] = 0
    began = time.perf_counter()
    outer()
    elapsed = time.perf_counter() - began
    rows = pb_tracer.merge(tracer.table)
    assert rows["inner"][0] == 2 and rows["outer"][0] == 1
    assert rows["outer"][1] == pytest.approx(rows["outer"][2]
                                             + rows["inner"][1])
    assert sum(row[2] for row in rows.values()) == pytest.approx(
        rows["outer"][1])
    assert rows["outer"][1] <= elapsed


def test_determinism_guard_fails_on_different_counts(tmp_path, monkeypatch):
    monkeypatch.setattr(pb_env, "STATE", tmp_path)
    bench.guard_counts("do-exact", 1, 100, {"lp.calls": 5})
    bench.guard_counts("do-exact", 1, 100, {"lp.calls": 5})
    bench.guard_counts("do-exact", 2, 100, {"lp.calls": 6})
    with pytest.raises(pb_env.BenchError, match="DETERMINISM"):
        bench.guard_counts("do-exact", 1, 100, {"lp.calls": 4})
