"""Structural equilibria beyond the IS/VC class — extension families.

The paper's k-matching machinery requires an independent-set/vertex-cover
partition (Corollary 4.11), which graphs like Petersen or odd cycles do
not have.  Its companion work ([8] in the paper's bibliography) studies
further structural families for the Edge model — regular graphs, graphs
with perfect matchings — and this module lifts those to the Tuple model:

* :func:`perfect_matching_equilibrium` — for any graph with a perfect
  matching ``M``: the defender plays the cyclic k-windows over ``M``
  (the Lemma 4.8 construction applied to ``M`` instead of a matching-NE
  cover) and every attacker plays uniformly on ``V``.  Because ``M`` is
  perfect, every vertex lies on exactly one support edge, so all hit
  probabilities equal ``k/|M| = 2k/n``, and every window covers ``2k``
  distinct vertices of equal mass — both Theorem 3.4 equalities hold by
  construction.  Defender gain: ``2k·ν/n = k·ν/ρ(G)`` (Gallai gives
  ``ρ = n/2`` here), extending the paper's linear law to every
  perfect-matching graph, bipartite or not.

* :func:`regular_edge_equilibrium` — for the Edge model (k = 1) on any
  r-regular graph: both sides uniform (attacker on ``V``, defender on
  ``E``).  Hit probabilities are ``r/m = 2/n`` everywhere and every edge
  carries mass ``2ν/n``.

* :func:`uniform_kmatching_equilibrium` — candidate-and-verify: the
  defender plays uniformly on *all* matchings of size ``k`` and the
  attackers uniformly on ``V``.  Every support tuple covers ``2k``
  distinct vertices (the global maximum), so condition 3 always holds;
  condition 2 — equal hit probabilities — is a symmetry property that the
  function *checks* (it holds on vertex- and edge-transitive graphs such
  as cycles, complete graphs, Petersen, circulants) and reports honestly
  when it fails.  Enumerating k-matchings is exponential; a count guard
  keeps this to the small instances where it is meant to be used.

These constructions are *extensions*: the paper proves none of them, but
each output is verified against the Theorem 3.4 characterization, and the
test suite cross-checks their values against the exact LP minimax.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, List

from repro.core.configuration import MixedConfiguration
from repro.core.game import GameError, TupleGame
from repro.core.profits import all_hit_probabilities
from repro.core.tuples import EdgeTuple
from repro.equilibria.atuple import cyclic_tuples
from repro.graphs.core import Graph, edge_sort_key
from repro.matching.blossom import maximum_matching

__all__ = [
    "perfect_matching_equilibrium",
    "regular_edge_equilibrium",
    "uniform_kmatching_equilibrium",
    "enumerate_k_matchings",
]

_KMATCHING_ENUMERATION_LIMIT = 250_000
"""Guard on ``C(m, k)`` for the candidate-and-verify construction."""


def perfect_matching_equilibrium(game: TupleGame) -> MixedConfiguration:
    """A mixed NE from a perfect matching — works on non-bipartite graphs.

    Raises :class:`~repro.core.game.GameError` when the graph has no
    perfect matching or when ``k > n/2`` (where Theorem 3.1's pure NE
    takes over anyway).

    Examples
    --------
    >>> from repro.graphs.generators import petersen_graph
    >>> game = TupleGame(petersen_graph(), k=2, nu=5)
    >>> config = perfect_matching_equilibrium(game)
    >>> len(config.tp_support_edges())   # the perfect matching
    5
    """
    graph = game.graph
    matching = maximum_matching(graph)
    if 2 * len(matching) != graph.n:
        raise GameError(
            f"the graph has no perfect matching (maximum matching covers "
            f"{2 * len(matching)} of {graph.n} vertices)"
        )
    if game.k > len(matching):
        raise GameError(
            f"k={game.k} exceeds the perfect matching size {len(matching)}; "
            "this regime has a pure NE (Theorem 3.1)"
        )
    labelled = sorted(matching, key=edge_sort_key)
    windows = cyclic_tuples(labelled, game.k)
    return MixedConfiguration.uniform(game, graph.vertices(), windows)


def regular_edge_equilibrium(game: TupleGame) -> MixedConfiguration:
    """Uniform/uniform NE for the Edge model on a regular graph.

    Raises :class:`~repro.core.game.GameError` unless ``k == 1`` and the
    graph is regular.
    """
    if game.k != 1:
        raise GameError(
            "the uniform/uniform construction is an Edge-model result; "
            "use perfect_matching_equilibrium or uniform_kmatching_equilibrium "
            f"for k={game.k}"
        )
    graph = game.graph
    degrees = {graph.degree(v) for v in graph.vertices()}
    if len(degrees) != 1:
        raise GameError(f"the graph is not regular (degrees {sorted(degrees)})")
    tuples = [(e,) for e in graph.sorted_edges()]
    return MixedConfiguration.uniform(game, graph.vertices(), tuples)


def enumerate_k_matchings(graph: Graph, k: int) -> Iterator[EdgeTuple]:
    """All matchings of exactly ``k`` edges, as canonical tuples.

    Straightforward ``C(m, k)`` filter; callers guard the size.
    """
    for combo in combinations(graph.sorted_edges(), k):
        seen = set()
        ok = True
        for u, v in combo:
            if u in seen or v in seen:
                ok = False
                break
            seen.add(u)
            seen.add(v)
        if ok:
            yield combo


def uniform_kmatching_equilibrium(
    game: TupleGame,
    tol: float = 1e-12,
) -> MixedConfiguration:
    """Candidate-and-verify: uniform over all size-k matchings.

    Sound but not complete: returns a verified mixed NE when the graph is
    symmetric enough for all hit probabilities to coincide (checked, not
    assumed); raises :class:`~repro.core.game.GameError` otherwise, or
    when the graph has no matching of size ``k``, or when ``C(m, k)``
    exceeds the module's ``_KMATCHING_ENUMERATION_LIMIT`` of 250,000
    tuples.
    """
    graph = game.graph
    if game.tuple_strategy_count() > _KMATCHING_ENUMERATION_LIMIT:
        raise GameError(
            f"C(m={graph.m}, k={game.k}) exceeds the enumeration limit "
            f"{_KMATCHING_ENUMERATION_LIMIT}"
        )
    matchings: List[EdgeTuple] = list(enumerate_k_matchings(graph, game.k))
    if not matchings:
        raise GameError(f"the graph has no matching of size k={game.k}")
    config = MixedConfiguration.uniform(game, graph.vertices(), matchings)
    hits = all_hit_probabilities(config)
    spread = max(hits.values()) - min(hits.values())
    if spread > tol:
        raise GameError(
            "uniform k-matchings do not equalize hit probabilities on this "
            f"graph (spread {spread:.3e}); the candidate is not an NE"
        )
    # Condition 3 of Theorem 3.4 holds by construction: every support
    # tuple is a matching, covering 2k distinct vertices of mass ν/n each
    # — the global maximum over E^k.
    return config
