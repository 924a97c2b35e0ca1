"""Algorithm ``A_tuple`` — Figure 1 of the paper.

Computes a k-matching mixed Nash equilibrium of ``Π_k(G)`` given a
Theorem 2.2 partition ``(IS, VC)``:

1. run the Edge-model Algorithm ``A`` on ``Π_1(G)`` (step 1) — only its
   edge support ``D(tp)`` is used, so step 1 is
   :func:`~repro.equilibria.matching_ne.build_matching_cover`, and no
   Edge-model profile is built;
2. label the support edges ``e_0 .. e_{E_num−1}`` (step 2);
3. walk cyclically over the labels, cutting consecutive windows of ``k``
   edges until the walk returns to label 0 — producing
   ``δ = E_num / gcd(E_num, k)`` tuples in which every edge appears exactly
   ``α = k / gcd(E_num, k)`` times (step 3, Claim 4.9);
4. play every vertex player uniformly on ``IS`` and the tuple player
   uniformly on the ``δ`` tuples (steps 4–5, equations (3)–(4)).

Per Theorem 4.13 the post-subroutine work is ``O(k · n)``.

Boundary the paper leaves implicit (DESIGN.md §2): the windows contain
``k`` *distinct* edges only when ``k ≤ E_num``.  Since every valid
partition has ``|IS| = E_num`` equal to the minimum-edge-cover size
``ρ(G)``, ``k > E_num`` lands strictly inside the pure-NE regime of
Theorem 3.1 and :func:`algorithm_a_tuple` raises a descriptive error
pointing there (at ``k = E_num`` exactly, the walk degenerates gracefully
to a single full-cover window — still an equilibrium).
:mod:`repro.equilibria.solve` dispatches across the boundary
automatically, preferring the pure construction from ``k = ρ(G)`` up.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, List, Sequence, Tuple

from repro.core.configuration import MixedConfiguration
from repro.core.game import GameError, TupleGame
from repro.graphs.core import Edge, Vertex, edge_sort_key
from repro.equilibria.matching_ne import build_matching_cover

__all__ = ["cyclic_tuples", "algorithm_a_tuple", "expected_tuple_count"]


def expected_tuple_count(e_num: int, k: int) -> int:
    """``δ = E_num / GCD(E_num, k)`` — number of tuples the walk emits."""
    return e_num // gcd(e_num, k)


def cyclic_tuples(edges: Sequence[Edge], k: int) -> List[Tuple[Edge, ...]]:
    """Step 3 of Figure 1: consecutive k-windows over cyclically labelled
    edges, stopping when the cursor returns to label 0.

    Returns the tuples in construction order (each a tuple of ``k``
    distinct edges).  Raises :class:`~repro.core.game.GameError` when
    ``k > len(edges)``, where distinctness is impossible.
    """
    e_num = len(edges)
    if e_num == 0:
        raise GameError("the cyclic construction needs at least one edge")
    if k > e_num:
        raise GameError(
            f"k={k} exceeds the {e_num} support edges; tuples of distinct "
            "edges are impossible (this regime has a pure NE — Theorem 3.1)"
        )
    tuples: List[Tuple[Edge, ...]] = []
    current = 0
    while True:
        window = tuple(edges[(current + offset) % e_num] for offset in range(k))
        tuples.append(window)
        current = (current + k) % e_num
        if current == 0:
            break
    if len(tuples) != expected_tuple_count(e_num, k):
        raise GameError(f"{len(tuples)} cyclic tuples break Claim 4.9")
    return tuples


def algorithm_a_tuple(
    game: TupleGame,
    independent_set: Iterable[Vertex],
    vertex_cover: Iterable[Vertex],
) -> MixedConfiguration:
    """Algorithm ``A_tuple(Π_k(G), IS, VC)`` (Figure 1).

    Returns the k-matching mixed NE of Theorem 4.12.  The inputs must be a
    Theorem 2.2 partition: ``IS`` independent, ``VC = V \\ IS`` and ``G`` a
    ``VC``-expander (into ``IS``); step 1 validates them.
    """
    # Step 1: the Edge-model matching NE's support D(tp).
    cover = build_matching_cover(game.graph, independent_set, vertex_cover)
    # Step 2: deterministic labelling e_0 .. e_{E_num-1}.
    labelled_edges = sorted(cover, key=edge_sort_key)
    # Step 3: the cyclic windows.
    tuples = cyclic_tuples(labelled_edges, game.k)
    # Steps 4-5: uniform distributions (equations (3)-(4) of Lemma 4.1).
    return MixedConfiguration.uniform(game, independent_set, tuples)
