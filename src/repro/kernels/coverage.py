"""The coverage-oracle kernel: amortized defender best response.

Condition 3(a) of Theorem 3.4 and every iterative solver in this library
(double oracle, fictitious play, first-principles NE verification) ask the
same question over and over: *given attacker masses on the vertices, which
``k`` edges cover the most mass?*  The seed implementation re-derived the
graph structure — sorted edge order, endpoint lookups, incidence — on every
call, which dominates wall-clock once a solver queries the same ``(graph,
k)`` hundreds of times per solve.

:class:`CoverageOracle` is built **once** per ``(graph, k)`` and precomputes

* the deterministic (lexicographic) edge order and the edge count ``m``;
* vertex → slot and edge → endpoint-slot index arrays, so queries run on
  dense integer arrays instead of hash lookups;
* the incidence index (vertex slot → incident edge slots), which lets
  greedy update only the gains a pick changes.

Queries then take only the *changing* attacker weight vector:

* :meth:`CoverageOracle.exhaustive` — exact, depth-first enumeration of
  ``E^k`` in lexicographic order with incremental gains (no per-tuple set
  construction);
* :meth:`CoverageOracle.branch_and_bound` — exact, two-phase: a
  static-weight-ordered bound-and-prune pass establishes the optimal
  *value*, then a lexicographic search bounded by the top static weights
  still ahead finds the canonical (lexicographically smallest) optimal
  tuple;
* :meth:`CoverageOracle.greedy` — the ``(1 − 1/e)`` approximation: edge
  gains are computed once and, after each pick, recomputed only for the
  edges incident to the newly covered vertices;
* :meth:`CoverageOracle.best` — the dispatching entry point mirroring
  :func:`repro.solvers.best_response.best_tuple`;
* :meth:`CoverageOracle.query_many` — a batch of queries, answered in
  input order.

Both exact methods return the **lexicographically smallest** optimal tuple,
so they agree exactly even on ties (the seed branch and bound did not — its
``≤ incumbent + ε`` prune could discard an equal-value, lexicographically
smaller tuple).

:func:`shared_oracle` memoizes oracles per ``(graph, k)`` in a bounded
process-wide cache (graphs are immutable and hashable), which is what lets
`double_oracle` / `fictitious_play` / the verification bridges amortize one
precompute across an entire solve.  Everything is observable through
``perf.kernel.*`` metrics (see ``docs/performance.md``).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from itertools import accumulate, islice
from math import comb
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.tuples import EdgeTuple, tuple_vertices
from repro.graphs.core import Edge, Graph, GraphError, Vertex
from repro.obs import metrics, tracing

__all__ = ["CoverageOracle", "shared_oracle", "clear_shared_oracles"]

_EPS = 1e-15
"""Value-comparison tolerance, identical to the seed best-response code."""

_AUTO_DFS_LIMIT = 20_000
"""``auto`` dispatch: exhaustive DFS below this many tuples, bnb above."""

_EXHAUSTIVE_LIMIT = 100_000
"""Compatibility ceiling mirrored from the seed ``best_tuple`` dispatcher."""


class CoverageOracle:
    """Answer maximum-weight ``k``-edge coverage queries for one graph.

    Parameters
    ----------
    graph:
        The (immutable) graph; its structure is indexed once, here.
    k:
        Number of edges in a defender tuple, ``1 <= k <= m``.

    Notes
    -----
    The oracle is read-only after construction and safe to share across
    solver iterations; per-query state lives on the stack.  The memoized
    :meth:`coverage_matrix` keeps a single-entry cache, sized for the
    simulate-same-config-repeatedly access pattern of the benchmark zoo.
    """

    __slots__ = (
        "graph",
        "k",
        "edges",
        "m",
        "n",
        "vertices",
        "tuple_count",
        "_vertex_slot",
        "_eu",
        "_ev",
        "_incidence",
        "_cover_matrix_key",
        "_cover_matrix_val",
    )

    def __init__(self, graph: Graph, k: int) -> None:
        if not 1 <= k <= graph.m:
            raise GraphError(f"k must satisfy 1 <= k <= m={graph.m}; got {k}")
        with metrics.timer("perf.kernel.build.seconds"):
            self.graph = graph
            self.k = k
            self.edges: List[Edge] = graph.sorted_edges()
            self.m = len(self.edges)
            self.vertices: List[Vertex] = graph.sorted_vertices()
            self.n = len(self.vertices)
            self.tuple_count = comb(self.m, k)
            self._vertex_slot: Dict[Vertex, int] = {
                v: i for i, v in enumerate(self.vertices)
            }
            slot = self._vertex_slot
            self._eu: List[int] = [slot[u] for u, _ in self.edges]
            self._ev: List[int] = [slot[v] for _, v in self.edges]
            incidence: List[List[int]] = [[] for _ in range(self.n)]
            for i in range(self.m):
                incidence[self._eu[i]].append(i)
                incidence[self._ev[i]].append(i)
            self._incidence: Tuple[Tuple[int, ...], ...] = tuple(
                tuple(slots) for slots in incidence
            )
            self._cover_matrix_key: Optional[Tuple[EdgeTuple, ...]] = None
            self._cover_matrix_val = None
        metrics.counter("perf.kernel.build.count").inc()

    # ------------------------------------------------------------------
    # structure accessors
    # ------------------------------------------------------------------
    def vertex_slot(self, v: Vertex) -> int:
        """Dense index of ``v`` in the deterministic vertex order."""
        return self._vertex_slot[v]

    def incident_edge_slots(self, v: Vertex) -> Tuple[int, ...]:
        """Slots (into :attr:`edges`) of the edges incident to ``v``."""
        return self._incidence[self._vertex_slot[v]]

    def _weight_array(self, weights: Mapping[Vertex, float]) -> List[float]:
        """Densify an attacker weight mapping onto the vertex slots.

        Vertices absent from ``weights`` get mass 0; keys outside the
        graph are ignored — both exactly as the seed solvers treated
        ``weights.get(v, 0.0)``.
        """
        w = [0.0] * self.n
        slot = self._vertex_slot
        for v, mass in weights.items():
            i = slot.get(v)
            if i is not None:
                w[i] = mass
        return w

    def _slots_to_tuple(self, slots: Sequence[int]) -> EdgeTuple:
        edges = self.edges
        return tuple(edges[i] for i in slots)

    # ------------------------------------------------------------------
    # exact query: exhaustive DFS
    # ------------------------------------------------------------------
    def exhaustive(self, weights: Mapping[Vertex, float]) -> Tuple[EdgeTuple, float]:
        """Exact maximum by lexicographic depth-first enumeration of ``E^k``.

        Semantically identical to the seed full enumeration (the
        lexicographically smallest optimal tuple wins), but gains are
        accumulated incrementally along the DFS — no per-tuple vertex-set
        construction — which is an order of magnitude faster.
        """
        with metrics.timer("perf.kernel.query.seconds"):
            metrics.counter("perf.kernel.query.exhaustive.count").inc()
            w = self._weight_array(weights)
            return self._exhaustive_dfs(w)

    def _exhaustive_dfs(self, w: List[float]) -> Tuple[EdgeTuple, float]:
        eu, ev, m, k = self._eu, self._ev, self.m, self.k
        covered = bytearray(self.n)
        chosen: List[int] = []
        best_value = float("-inf")
        best_slots: Optional[Tuple[int, ...]] = None

        def descend(start: int, value: float) -> None:
            nonlocal best_value, best_slots
            depth = len(chosen)
            if depth == k:
                if value > best_value + _EPS:
                    best_value = value
                    best_slots = tuple(chosen)
                return
            for i in range(start, m - (k - depth) + 1):
                u = eu[i]
                v = ev[i]
                gain = 0.0
                if not covered[u]:
                    gain += w[u]
                if not covered[v]:
                    gain += w[v]
                covered[u] += 1
                covered[v] += 1
                chosen.append(i)
                descend(i + 1, value + gain)
                chosen.pop()
                covered[u] -= 1
                covered[v] -= 1

        descend(0, 0.0)
        if best_slots is None:
            raise RuntimeError(f"exhaustive search found no {k}-tuple")
        return self._slots_to_tuple(best_slots), best_value

    # ------------------------------------------------------------------
    # exact query: branch and bound
    # ------------------------------------------------------------------
    def branch_and_bound(
        self, weights: Mapping[Vertex, float]
    ) -> Tuple[EdgeTuple, float]:
        """Exact maximum via two-phase branch and bound.

        Phase 1 finds the optimal *value*: edges are visited in
        descending static-weight order (``w(u) + w(v)`` bounds any edge's
        marginal gain) with a prefix-sum admissible bound, seeded with the
        greedy value as the initial incumbent.  Phase 2 re-searches in
        lexicographic order — pruned by the top static weights still
        ahead against the now-known optimum — and stops at the first
        tuple reaching it, which by construction is the lexicographically
        smallest optimal tuple.  The two exact methods therefore agree
        *exactly*, ties included (the seed bnb did not).
        """
        with metrics.timer("perf.kernel.query.seconds"):
            metrics.counter("perf.kernel.query.bnb.count").inc()
            w = self._weight_array(weights)
            static = [w[u] + w[v] for u, v in zip(self._eu, self._ev)]
            order = sorted(range(self.m), key=static.__getitem__, reverse=True)
            value = self._bnb_value(w, static, order)
            slots, exact_value = self._lex_argmax(w, static, order, value)
            return self._slots_to_tuple(slots), exact_value

    def _greedy_cover(self, w: List[float]) -> Tuple[List[int], float]:
        """The greedy cover's slots (in pick order) and value.

        The one greedy loop: :meth:`greedy` answers with it and phase 1
        of branch and bound takes its value as the initial incumbent.
        Each round scans for the first slot whose gain beats the best so
        far by more than ``_EPS``; the gains are computed once and, after
        a pick, recomputed only for the edges incident to the newly
        covered vertices — every other edge's gain is unchanged.  A
        picked edge's gain becomes ``-inf``, so no scan takes it again.
        """
        eu, ev, k = self._eu, self._ev, self.k
        incidence = self._incidence
        covered = bytearray(self.n)
        gains = [0.0 + w[u] + w[v] for u, v in zip(eu, ev)]
        taken = float("-inf")
        slots: List[int] = []
        value = 0.0
        for _ in range(k):
            best_slot = -1
            best_gain = taken
            threshold = best_gain + _EPS
            for i, gain in enumerate(gains):
                if gain > threshold:
                    best_gain = gain
                    best_slot = i
                    threshold = gain + _EPS
            gains[best_slot] = taken
            slots.append(best_slot)
            value += best_gain
            fresh = [x for x in (eu[best_slot], ev[best_slot]) if not covered[x]]
            for x in fresh:
                covered[x] = 1
            for x in fresh:
                for j in incidence[x]:
                    if gains[j] == taken:
                        continue
                    u = eu[j]
                    v = ev[j]
                    gain = 0.0
                    if not covered[u]:
                        gain += w[u]
                    if not covered[v]:
                        gain += w[v]
                    gains[j] = gain
        return slots, value

    def _bnb_value(
        self, w: List[float], static: List[float], order: List[int]
    ) -> float:
        """Phase 1: the optimal coverage value (argmax deferred to phase 2)."""
        m, k = self.m, self.k
        oe_u = [self._eu[i] for i in order]
        oe_v = [self._ev[i] for i in order]
        prefix = list(accumulate(map(static.__getitem__, order), initial=0.0))
        best = self._greedy_cover(w)[1]
        covered = bytearray(self.n)

        def descend(index: int, depth: int, value: float) -> None:
            # Takes slot ``index`` and recurses, then moves on to the
            # next slot: the loop is the "leave it out" branch.
            nonlocal best
            if depth == k:
                if value > best + _EPS:
                    best = value
                return
            remaining = k - depth
            while m - index >= remaining:
                if value + prefix[index + remaining] - prefix[index] <= best + _EPS:
                    return
                u = oe_u[index]
                v = oe_v[index]
                gain = 0.0
                if not covered[u]:
                    gain += w[u]
                if not covered[v]:
                    gain += w[v]
                covered[u] += 1
                covered[v] += 1
                descend(index + 1, depth + 1, value + gain)
                covered[u] -= 1
                covered[v] -= 1
                index += 1

        descend(0, 0, 0.0)
        return best

    def _lex_argmax(
        self,
        w: List[float],
        static: List[float],
        order: List[int],
        target: float,
    ) -> Tuple[Tuple[int, ...], float]:
        """Phase 2: lexicographically first tuple with value ``>= target − ε``."""
        found = self._lex_greedy(w, static, order, target, _EPS)
        if found is None:
            # Unreachable in exact arithmetic (the phase-1 value is
            # attained by some tuple); guards against pathological
            # rounding by retrying with a looser, still-benign margin.
            found = self._lex_greedy(w, static, order, target, 1e-9)
        if found is None:
            raise RuntimeError(f"no tuple reaches coverage {target!r}")
        return found

    def _lex_greedy(
        self,
        w: List[float],
        static: List[float],
        order: List[int],
        target: float,
        margin: float,
    ) -> Optional[Tuple[Tuple[int, ...], float]]:
        """Build the lex-smallest tuple reaching ``target − margin``.

        Slot by slot: take the smallest edge slot whose remainder can
        still complete to the target — feasibility checked by a
        static-order decision probe, which prunes orders of magnitude
        harder than searching completions in lexicographic order.  Gains
        accumulate in increasing slot order, i.e. the exact summation
        order of the exhaustive DFS, so the two exact methods return
        bit-identical values.

        Candidate slots only grow, so ``ahead`` — the slots after the
        current candidate, in static order — drops one slot per
        candidate.  A candidate's completion is bounded by the sum of
        the first ``r − 1`` static weights in it, and the probe searches
        it.
        """
        eu, ev, m, k = self._eu, self._ev, self.m, self.k
        ahead = list(order)
        ahead_static = [static[i] for i in order]
        covered = bytearray(self.n)
        chosen: List[int] = []
        value = 0.0
        threshold = target - margin
        start = 0
        for depth in range(k):
            r = k - depth
            placed = False
            for i in range(start, m - r + 1):
                at = ahead.index(i)
                del ahead[at]
                del ahead_static[at]
                u = eu[i]
                v = ev[i]
                gain = 0.0
                if not covered[u]:
                    gain += w[u]
                if not covered[v]:
                    gain += w[v]
                bound = 0.0
                for x in islice(ahead_static, r - 1):
                    bound += x
                if value + gain + bound < threshold:
                    continue
                covered[u] += 1
                covered[v] += 1
                if self._probe(
                    w, ahead, ahead_static, r - 1,
                    threshold - value - gain, covered,
                ):
                    chosen.append(i)
                    value += gain
                    start = i + 1
                    placed = True
                    break
                covered[u] -= 1
                covered[v] -= 1
            if not placed:
                return None
        return tuple(chosen), value

    def _probe(
        self,
        w: List[float],
        slots: List[int],
        slot_static: List[float],
        need: int,
        deficit: float,
        covered: bytearray,
    ) -> bool:
        """Can ``need`` of ``slots`` add mass ``>= deficit``?

        ``slots`` are in descending static-weight order (``slot_static``
        holds their weights).  Explores them in that order with a
        prefix-sum admissible bound and exits on the first success — a
        pure decision search, so refuting an infeasible lex candidate is
        as fast as the phase-1 value search.
        """
        if deficit <= 0.0:
            return True  # weights are non-negative: any completion works
        if need == 0:
            return False
        total = len(slots)
        if total < need:
            return False
        eu, ev = self._eu, self._ev
        prefix = list(accumulate(slot_static, initial=0.0))

        def search(pos: int, need: int, deficit: float) -> bool:
            # Takes ``slots[pos]`` and recurses, then moves on to the
            # next slot: the loop is the "leave it out" branch.
            if deficit <= 0.0:
                return total - pos >= need
            if need == 0:
                return False
            while total - pos >= need:
                if prefix[pos + need] - prefix[pos] < deficit:
                    return False
                i = slots[pos]
                u = eu[i]
                v = ev[i]
                gain = 0.0
                if not covered[u]:
                    gain += w[u]
                if not covered[v]:
                    gain += w[v]
                covered[u] += 1
                covered[v] += 1
                hit = search(pos + 1, need - 1, deficit - gain)
                covered[u] -= 1
                covered[v] -= 1
                if hit:
                    return True
                pos += 1
            return False

        return search(0, need, deficit)

    # ------------------------------------------------------------------
    # approximate query: greedy
    # ------------------------------------------------------------------
    def greedy(self, weights: Mapping[Vertex, float]) -> Tuple[EdgeTuple, float]:
        """Greedy ``(1 − 1/e)``-approximate coverage.

        Scans the lexicographic edge order over gains kept between picks
        — the documented deterministic tie-break (first edge among the
        maximal marginal gains) is preserved, without the seed's
        per-round ``sorted(remaining)`` re-sort and set churn.
        """
        with metrics.timer("perf.kernel.query.seconds"):
            metrics.counter("perf.kernel.query.greedy.count").inc()
            slots, value = self._greedy_cover(self._weight_array(weights))
            slots.sort()
            return self._slots_to_tuple(slots), value

    # ------------------------------------------------------------------
    # dispatch + batching
    # ------------------------------------------------------------------
    def best(
        self,
        weights: Mapping[Vertex, float],
        method: str = "auto",
        exhaustive_limit: int = _EXHAUSTIVE_LIMIT,
    ) -> Tuple[EdgeTuple, float]:
        """Best ``k``-edge coverage against ``weights``.

        ``method`` is one of ``"auto"``, ``"exhaustive"``, ``"bnb"`` or
        ``"greedy"`` — the contract of
        :func:`repro.solvers.best_response.best_tuple`.  Since both exact
        strategies return the canonical optimal tuple, ``auto`` is free
        to pick whichever is faster: exhaustive DFS for small ``C(m,
        k)``, branch and bound beyond.
        """
        metrics.counter("perf.kernel.query.count").inc()
        if method == "exhaustive":
            return self.exhaustive(weights)
        if method == "bnb":
            return self.branch_and_bound(weights)
        if method == "greedy":
            return self.greedy(weights)
        if method != "auto":
            raise ValueError(f"unknown method {method!r}")
        if self.tuple_count <= min(exhaustive_limit, _AUTO_DFS_LIMIT):
            return self.exhaustive(weights)
        return self.branch_and_bound(weights)

    def query_many(
        self,
        weight_vectors: Iterable[Mapping[Vertex, float]],
        method: str = "auto",
    ) -> List[Tuple[EdgeTuple, float]]:
        """Answer a batch of weight vectors in this process, in input
        order (the sweep face of
        :func:`repro.analysis.schedule.best_response_schedule`)."""
        vectors = [dict(wv) for wv in weight_vectors]
        metrics.counter("perf.kernel.batch.count").inc()
        metrics.counter("perf.kernel.batch.queries.count").inc(len(vectors))
        with tracing.span("kernel.query_many", queries=len(vectors),
                          method=method):
            return [self.best(wv, method=method) for wv in vectors]

    # ------------------------------------------------------------------
    # coverage view for the simulation engine
    # ------------------------------------------------------------------
    def coverage_matrix(self, tuples: Sequence[EdgeTuple]):
        """0/1 coverage matrix (tuples × vertex slots), memoized.

        Returns ``(matrix, vertex_slot)`` where ``matrix[row, j]`` is
        True iff ``tuples[row]`` covers the vertex at slot ``j`` of
        :attr:`vertices`.  The Monte-Carlo engine reads every trial's
        catches off it; numpy is imported lazily so the kernel package
        itself stays stdlib-only.
        """
        key = tuple(tuples)
        if key == self._cover_matrix_key:
            metrics.counter("perf.kernel.cover.hits.count").inc()
            return self._cover_matrix_val, self._vertex_slot
        import numpy as np

        matrix = np.zeros((len(key), self.n), dtype=bool)
        slot = self._vertex_slot
        for row, t in enumerate(key):
            for v in tuple_vertices(t):
                matrix[row, slot[v]] = True
        self._cover_matrix_key = key
        self._cover_matrix_val = matrix
        metrics.counter("perf.kernel.cover.misses.count").inc()
        return matrix, self._vertex_slot

    def __repr__(self) -> str:
        return (
            f"CoverageOracle(n={self.n}, m={self.m}, k={self.k}, "
            f"tuples={self.tuple_count})"
        )


# --------------------------------------------------------------------------
# process-wide shared cache
# --------------------------------------------------------------------------

_SHARED_LOCK = threading.Lock()
_SHARED: "OrderedDict[Tuple[Graph, int], CoverageOracle]" = OrderedDict()
_SHARED_CAPACITY = 64


def shared_oracle(graph: Graph, k: int) -> CoverageOracle:
    """The memoized :class:`CoverageOracle` for ``(graph, k)``.

    Graphs are immutable and hashable, so one oracle serves every solver
    iteration, verification bridge and simulation run touching the same
    instance; the cache is LRU-bounded and thread-safe.  Hit/miss rates
    surface as ``perf.kernel.cache.*`` metrics and the ``kernel.build``
    span marks the (rare) construction.
    """
    key = (graph, k)
    with _SHARED_LOCK:
        oracle = _SHARED.get(key)
        if oracle is not None:
            _SHARED.move_to_end(key)
            metrics.counter("perf.kernel.cache.hits.count").inc()
            return oracle
    metrics.counter("perf.kernel.cache.misses.count").inc()
    with tracing.span("kernel.build", n=graph.n, m=graph.m, k=k):
        oracle = CoverageOracle(graph, k)
    with _SHARED_LOCK:
        existing = _SHARED.get(key)
        if existing is not None:
            return existing
        _SHARED[key] = oracle
        while len(_SHARED) > _SHARED_CAPACITY:
            _SHARED.popitem(last=False)
        metrics.gauge("perf.kernel.cache.size").set(len(_SHARED))
    return oracle


def clear_shared_oracles() -> None:
    """Drop every cached oracle (tests and long-lived services).

    Resets the ``perf.kernel.cache.size`` gauge under the same lock — a
    clear that leaves the gauge at the old size would report phantom
    cached oracles until the next :func:`shared_oracle` miss.
    """
    with _SHARED_LOCK:
        _SHARED.clear()
        metrics.gauge("perf.kernel.cache.size").set(0)
