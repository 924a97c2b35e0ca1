"""Defender best response: maximum weight coverage by ``k`` edges.

Condition 3(a) of Theorem 3.4 compares the attacker mass ``m_s(t)`` of the
support tuples against ``max_t m_s(t)`` over the *whole* strategy set
``E^k``.  Computing that maximum is the "maximum coverage with k edges"
problem (pick ``k`` edges maximizing the total weight of *distinct* covered
endpoints), which is NP-hard in general — the structural equilibria of the
paper avoid it analytically, but verification and baseline solvers need the
actual optimum.  :func:`best_tuple` returns it.

This module is a thin facade: the search runs on the amortized
:class:`~repro.kernels.coverage.CoverageOracle` (one precompute per
``(graph, k)``, memoized process-wide), whose
:meth:`~repro.kernels.coverage.CoverageOracle.best` runs branch and bound
at every size.  The answer is the canonical **lexicographically smallest**
optimal tuple, ties included.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain
from operator import add
from typing import Mapping, Tuple

from repro.core.tuples import EdgeTuple
from repro.graphs.core import Graph, GraphError, Vertex
from repro.kernels.coverage import shared_oracle
from repro.obs import metrics, tracing

__all__ = ["coverage_value", "best_tuple"]


def coverage_value(weights: Mapping[Vertex, float], t: EdgeTuple) -> float:
    """Total weight of the distinct endpoints of ``t``.

    The weights are added left to right in the tuple's canonical order,
    so the float sum never depends on hash order.
    """
    return reduce(add, (weights.get(v, 0.0)
                        for v in dict.fromkeys(chain.from_iterable(t))), 0.0)


@tracing.traced("best_response.best_tuple")
def best_tuple(
    graph: Graph, weights: Mapping[Vertex, float], k: int
) -> Tuple[EdgeTuple, float]:
    """Exact defender best response against attacker masses ``weights``.

    Returns the lexicographically smallest optimal tuple and its
    coverage.
    """
    if not 1 <= k <= graph.m:
        raise GraphError(f"k must satisfy 1 <= k <= m={graph.m}; got {k}")
    metrics.counter("best_response.calls.count").inc()
    return shared_oracle(graph, k).best(weights)
