"""Delta-debugging for failing fuzz cases.

A raw counterexample from the generator is noisy: dozens of edges, most
irrelevant to the divergence.  :func:`shrink_spec` reduces it against a
caller-supplied *predicate* ("does this smaller game still fail?") in
three deterministic passes:

1. **edges** — ddmin-style chunked deletion (halving chunk sizes, then
   single edges) over the canonical edge order.  Removing an edge may
   strand a vertex; the candidate graph is rebuilt from the surviving
   edges alone, so stranded vertices simply disappear.
2. **k** — lower the defender power toward 1.
3. **ν** — lower the attacker count toward 1.

The predicate must be deterministic (the fuzz invariants are); shrinking
re-runs it ``O(m log m)`` times, so callers should hand in the *cheapest*
reproducer — typically a single invariant, not the whole catalog.

There is no randomness here at all: the same failing spec and predicate
always shrink to the same minimal counterexample, which is what makes the
persisted corpus diffable.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.game import GameError
from repro.core.tuples import count_tuples
from repro.fuzz.generators import GameSpec
from repro.graphs.core import Graph, GraphError, Vertex
from repro.obs import get_logger, metrics

__all__ = ["shrink_spec"]

_log = get_logger("repro.fuzz.shrink")

Predicate = Callable[[GameSpec], bool]
Edge = Tuple[Vertex, Vertex]


def _candidate(
    edges: Sequence[Edge], template: GameSpec, k: Optional[int] = None,
    nu: Optional[int] = None,
) -> Optional[GameSpec]:
    """Build a reduced spec, or ``None`` if the reduction is not a game."""
    k = template.k if k is None else k
    nu = template.nu if nu is None else nu
    if not edges or k < 1 or nu < 1 or k > len(edges):
        return None
    try:
        graph = Graph(edges)
        graph.validate_for_game()
    except (GraphError, GameError):
        return None
    spec = GameSpec(
        edges, k, nu,
        family="shrunk:" + template.family.removeprefix("shrunk:"),
        label_mode=template.label_mode, seed=template.seed,
    )
    return spec


def _try(spec: GameSpec, predicate: Predicate) -> bool:
    metrics.counter("fuzz.shrink.probes.count").inc()
    try:
        return bool(predicate(spec))
    except Exception:  # noqa: BLE001 — treat a crashing probe as "no"
        return False


def _shrink_edges(spec: GameSpec, predicate: Predicate) -> GameSpec:
    """ddmin over the edge list: try dropping halves, then quarters, ...
    down to single edges, restarting whenever a deletion sticks."""
    edges: List[Edge] = list(spec.edges)
    chunk = max(1, len(edges) // 2)
    while chunk >= 1:
        shrunk_this_pass = False
        start = 0
        while start < len(edges):
            remaining = edges[:start] + edges[start + chunk:]
            candidate = _candidate(remaining, spec)
            if candidate is not None and _try(candidate, predicate):
                edges = list(candidate.edges)
                spec = candidate
                shrunk_this_pass = True
                # Do not advance: the chunk now at ``start`` is new.
            else:
                start += chunk
        if chunk == 1 and not shrunk_this_pass:
            break
        chunk = max(1, chunk // 2) if chunk > 1 else (
            max(1, len(edges) // 2) if shrunk_this_pass else 0
        )
    return spec


def _shrink_param(
    spec: GameSpec, predicate: Predicate, param: str
) -> GameSpec:
    """Lower ``k`` or ``nu`` as far as the failure allows."""
    while getattr(spec, param) > 1:
        lowered = _candidate(
            spec.edges, spec,
            k=spec.k - 1 if param == "k" else None,
            nu=spec.nu - 1 if param == "nu" else None,
        )
        if lowered is None or not _try(lowered, predicate):
            break
        spec = lowered
    return spec


def shrink_spec(
    spec: GameSpec,
    predicate: Predicate,
    max_probes: int = 2_000,
) -> GameSpec:
    """Reduce a failing spec to a smaller one that still fails.

    ``predicate(candidate)`` must return True when the candidate still
    exhibits the failure.  The input spec itself is expected to satisfy
    the predicate; if it does not, it is returned unchanged (nothing to
    shrink against).  ``max_probes`` bounds the total predicate calls via
    the ``fuzz.shrink.probes.count`` metric delta — a safety valve for
    expensive reproducers.
    """
    if not _try(spec, predicate):
        _log.warning("fuzz.shrink.predicate_rejects_input")
        return spec
    probes = metrics.counter("fuzz.shrink.probes.count")
    start_probes = probes.value
    budget: Predicate = lambda s: (
        probes.value - start_probes < max_probes and predicate(s)
    )
    with metrics.timer("fuzz.shrink.seconds"):
        before = (len(spec.edges), spec.k, spec.nu)
        while True:
            reduced = _shrink_edges(spec, budget)
            reduced = _shrink_param(reduced, budget, "k")
            reduced = _shrink_param(reduced, budget, "nu")
            if (len(reduced.edges), reduced.k, reduced.nu) == (
                len(spec.edges), spec.k, spec.nu
            ):
                break  # fixpoint: another round cannot make progress
            spec = reduced
        after = (len(spec.edges), spec.k, spec.nu)
    _log.info("fuzz.shrink.done", before=before, after=after)
    metrics.counter("fuzz.shrink.runs.count").inc()
    return spec
