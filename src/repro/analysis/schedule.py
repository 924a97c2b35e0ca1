"""Deterministic scan rosters from mixed defender strategies.

A mixed equilibrium tells the operator to play tuple ``t`` with
probability ``p_t`` — but real scanners run from cron, not from coin
flips, and operators also want coverage to be *even in time* (no long
droughts for any tuple).  This module compiles a mixed strategy into a
fixed-length deterministic roster whose empirical frequencies match the
probabilities as closely as possible:

* :func:`compile_roster` — largest-remainder apportionment of the roster
  slots, then interleaving by smallest *fractional lag* (Jefferson/
  Webster-style sequencing): at every prefix, each tuple's play count is
  within one of its expected count ``p_t · prefix_length``.
* :func:`roster_discrepancy` — the maximum such prefix deviation, the
  quantity the interleaving minimizes.

Caveat, stated plainly: a *deterministic* roster is predictable, so
against an adaptive attacker (see :mod:`repro.simulation.adaptive`) it
must be re-randomized — e.g. rotate the starting offset or re-sample each
period.  The roster preserves the *long-run frequencies*, which is what
the equilibrium guarantee needs when the attacker cannot observe phase.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.core.configuration import MixedConfiguration
from repro.core.game import GameError
from repro.core.tuples import EdgeTuple
from repro.graphs.core import tuple_sort_key

__all__ = [
    "compile_roster",
    "roster_discrepancy",
    "roster_frequencies",
]


def _apportion(probabilities: Dict[EdgeTuple, float], length: int) -> Dict[EdgeTuple, int]:
    """Largest-remainder apportionment of ``length`` slots."""
    quotas = {t: p * length for t, p in probabilities.items()}
    counts = {t: int(q) for t, q in quotas.items()}
    remaining = length - sum(counts.values())
    by_remainder = sorted(
        quotas, key=lambda t: (-(quotas[t] - counts[t]), tuple_sort_key(t))
    )
    for t in by_remainder[:remaining]:
        counts[t] += 1
    return counts


def compile_roster(
    config: MixedConfiguration, length: int
) -> List[EdgeTuple]:
    """Compile the defender's mixed strategy into a ``length``-slot roster.

    Slot counts follow largest-remainder apportionment of the tuple
    probabilities; the sequence order greedily plays whichever tuple is
    furthest *behind* its expected share, which keeps every prefix within
    one play of proportionality.

    Raises :class:`~repro.core.game.GameError` when the roster is shorter
    than the support (some tuple would never be played).
    """
    probabilities = config.tp_distribution()
    if length < len(probabilities):
        raise GameError(
            f"a roster of {length} slots cannot represent a support of "
            f"{len(probabilities)} tuples"
        )
    counts = _apportion(probabilities, length)
    # Greedy sequencing by largest deficit p_t*(i+1) - played_t.
    played: Dict[EdgeTuple, int] = {t: 0 for t in counts}
    roster: List[EdgeTuple] = []
    for slot in range(1, length + 1):
        candidates = [t for t in counts if played[t] < counts[t]]
        best = max(
            candidates,
            key=lambda t: (probabilities[t] * slot - played[t], t),
        )
        played[best] += 1
        roster.append(best)
    return roster


def roster_frequencies(roster: Sequence[EdgeTuple]) -> Dict[EdgeTuple, float]:
    """Empirical play frequencies of a roster."""
    if not roster:
        raise GameError("cannot compute frequencies of an empty roster")
    counts: Dict[EdgeTuple, int] = {}
    for t in roster:
        counts[t] = counts.get(t, 0) + 1
    return {t: c / len(roster) for t, c in counts.items()}


def roster_discrepancy(
    roster: Sequence[EdgeTuple], config: MixedConfiguration
) -> float:
    """Maximum prefix deviation ``|played_t(i) − p_t · i|`` over all
    prefixes ``i`` and tuples ``t`` — the evenness-in-time measure."""
    probabilities = config.tp_distribution()
    played: Dict[EdgeTuple, int] = {t: 0 for t in probabilities}
    worst = 0.0
    for i, t in enumerate(roster, start=1):
        if t not in played:
            raise GameError(f"roster plays {t!r}, which is off-support")
        played[t] += 1
        for s, p in probabilities.items():
            worst = max(worst, abs(played[s] - p * i))
    return worst
