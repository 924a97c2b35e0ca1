"""Seeded input generation for the three workloads.

Every input is a pure function of ``(workload, seed, count)``: the
workload seed is a benchmark argument and the program under test only
ever sees the generated games and request bodies.  No library instance
repeats within a run, so every library op is a cold solve.
"""

from __future__ import annotations

import json
import random
from typing import Dict, List, NamedTuple, Sequence, Tuple

from repro.core.game import TupleGame
from repro.core.serialize import game_to_json
from repro.graphs.generators import random_bipartite_graph
from repro.weighted.game import WeightedTupleGame

#: Library family shared by ``do-exact`` and ``fp-rounds``.
LIBRARY_SHAPE = (25, 40, 0.10)
LIBRARY_K = 5
WEIGHT_CHOICES = (1, 2, 3, 5)
#: One op in every ``WEIGHTED_EVERY`` of ``do-exact`` is weighted (3:1).
WEIGHTED_EVERY = 4

#: ``serve-mixed``: the primed hot set and the unique-miss family.
HOT_GAMES = 32
HOT_SHAPE = (8, 12, 0.25)
HOT_K = 2
MISS_SHAPE = (20, 30, 0.12)
MISS_K = 3
MISS_NU = 2
#: Per ten requests: hits, misses, rejects (60% / 30% / 10%).
SERVE_MIX = (6, 3, 1)
REJECT_KINDS = ("invalid-json", "invalid-params", "invalid-game")


class LibraryOp(NamedTuple):
    kind: str  # "plain" | "weighted" | "fp"
    game: object


class ServeOp(NamedTuple):
    kind: str  # "hit" | "miss" | "reject"
    body: bytes
    #: Hot-set index for hits, miss-game index for misses, reject kind.
    ref: object


def _rng(workload: str, seed: int) -> random.Random:
    # String seeding goes through SHA-512, so it is independent of
    # PYTHONHASHSEED and stable across interpreter versions.
    return random.Random(f"perfbench:{workload}:{seed}")


def distinct_graphs(rng: random.Random, shape: Tuple[int, int, float],
                    count: int) -> List:
    """``count`` pairwise-different ``random_bipartite_graph(*shape)``."""
    a, b, p = shape
    graphs, seen = [], set()
    while len(graphs) < count:
        graph = random_bipartite_graph(a, b, p, seed=rng.randrange(1 << 30))
        edges = tuple(graph.sorted_edges())
        if edges not in seen:
            seen.add(edges)
            graphs.append(graph)
    return graphs


def library_ops(workload: str, seed: int, count: int) -> List[LibraryOp]:
    """The fixed op sequence of ``do-exact`` or ``fp-rounds``."""
    if workload not in ("do-exact", "fp-rounds"):
        raise ValueError(f"not a library workload: {workload!r}")
    rng = _rng(workload, seed)
    ops = []
    for index, graph in enumerate(distinct_graphs(rng, LIBRARY_SHAPE, count)):
        if workload == "fp-rounds":
            ops.append(LibraryOp("fp", TupleGame(graph, LIBRARY_K, 1)))
        elif index % WEIGHTED_EVERY == WEIGHTED_EVERY - 1:
            weights = {v: rng.choice(WEIGHT_CHOICES)
                       for v in graph.sorted_vertices()}
            ops.append(LibraryOp(
                "weighted", WeightedTupleGame(graph, LIBRARY_K, weights, 1)))
        else:
            ops.append(LibraryOp("plain", TupleGame(graph, LIBRARY_K, 1)))
    return ops


def solve_body(game: TupleGame) -> bytes:
    """A valid ``POST /solve`` body for ``game`` with default params."""
    return json.dumps({"game": json.loads(game_to_json(game))},
                      sort_keys=True).encode("utf-8")


def reject_body(kind: str, game: TupleGame) -> bytes:
    """A malformed ``POST /solve`` body that must draw a 400 ``kind``."""
    if kind == "invalid-json":
        return solve_body(game)[:-7]
    document = json.loads(solve_body(game))
    if kind == "invalid-params":
        document["params"] = {"rounds": 10}
    elif kind == "invalid-game":
        document["game"]["k"] = 0
    else:
        raise ValueError(f"unknown reject kind {kind!r}")
    return json.dumps(document, sort_keys=True).encode("utf-8")


def class_counts(count: int) -> Dict[str, int]:
    """Exact hit/miss/reject counts of a ``serve-mixed`` sequence."""
    if count % sum(SERVE_MIX):
        raise ValueError(
            f"serve-mixed needs a multiple of {sum(SERVE_MIX)} requests")
    unit = count // sum(SERVE_MIX)
    hits, misses, rejects = (share * unit for share in SERVE_MIX)
    return {"hit": hits, "miss": misses, "reject": rejects}


def serve_inputs(seed: int, count: int
                 ) -> Tuple[List[TupleGame], List[TupleGame], List[ServeOp]]:
    """``(hot games, miss games, request sequence)`` for ``serve-mixed``.

    The sequence holds exactly the :func:`class_counts` of each class, in
    a seeded order; rejects cycle through :data:`REJECT_KINDS`.
    """
    counts = class_counts(count)
    rng = _rng("serve-mixed", seed)
    graphs = distinct_graphs(rng, HOT_SHAPE, HOT_GAMES)
    hot = [TupleGame(g, HOT_K, 1) for g in graphs]
    misses = [TupleGame(g, MISS_K, MISS_NU)
              for g in distinct_graphs(rng, MISS_SHAPE, counts["miss"])]
    kinds = (["hit"] * counts["hit"] + ["miss"] * counts["miss"]
             + ["reject"] * counts["reject"])
    rng.shuffle(kinds)
    hot_bodies = [solve_body(game) for game in hot]
    ops: List[ServeOp] = []
    next_miss = next_reject = 0
    for kind in kinds:
        if kind == "hit":
            index = rng.randrange(HOT_GAMES)
            ops.append(ServeOp("hit", hot_bodies[index], index))
        elif kind == "miss":
            ops.append(ServeOp("miss", solve_body(misses[next_miss]),
                               next_miss))
            next_miss += 1
        else:
            reject = REJECT_KINDS[next_reject % len(REJECT_KINDS)]
            body = reject_body(reject, hot[next_reject % HOT_GAMES])
            ops.append(ServeOp("reject", body, reject))
            next_reject += 1
    return hot, misses, ops


def kind_counts(ops: Sequence) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for op in ops:
        counts[op.kind] = counts.get(op.kind, 0) + 1
    return counts
