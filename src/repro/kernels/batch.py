"""Multiprocessing fan-out for :meth:`CoverageOracle.query_many`.

Workers cannot share the parent's oracle object, so each pool worker
rebuilds one from the pickled ``(edges, vertices, k)`` triple in its
initializer and answers its share of the batch against that private copy.
Rebuilding costs one :class:`~repro.kernels.coverage.CoverageOracle`
construction per worker — negligible against the sweeps this path is meant
for (hundreds of weight vectors over the benchmark zoo).

Everything here is intentionally private: the public entry point is
:meth:`repro.kernels.coverage.CoverageOracle.query_many`, which falls back
to the serial path when pools are unavailable (sandboxes, platforms
without working semaphores).
"""

from __future__ import annotations

import multiprocessing
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.tuples import EdgeTuple
from repro.graphs.core import Vertex

# Per-worker oracle, installed by _init_worker before any query runs.
_WORKER_ORACLE = None


def _init_worker(edges, vertices, k: int) -> None:
    global _WORKER_ORACLE
    from repro.graphs.core import Graph
    from repro.kernels.coverage import CoverageOracle

    graph = Graph(edges, vertices=vertices, allow_isolated=True)
    _WORKER_ORACLE = CoverageOracle(graph, k)


def _worker_query(item: Tuple[Dict, str]) -> Tuple[EdgeTuple, float]:
    weights, method = item
    if _WORKER_ORACLE is None:
        raise RuntimeError("batch worker queried before _init_worker ran")
    return _WORKER_ORACLE.best(weights, method=method)


def query_many_parallel(
    oracle,
    vectors: List[Mapping[Vertex, float]],
    method: str,
    processes: int,
) -> List[Tuple[EdgeTuple, float]]:
    """Fan ``vectors`` out over a worker pool; results keep input order."""
    workers = min(processes, len(vectors))
    chunksize = max(1, len(vectors) // (workers * 4))
    initargs = (list(oracle.edges), list(oracle.vertices), oracle.k)
    with multiprocessing.Pool(
        workers, initializer=_init_worker, initargs=initargs
    ) as pool:
        return pool.map(
            _worker_query, [(dict(wv), method) for wv in vectors], chunksize
        )
