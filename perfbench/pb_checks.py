"""Answer checks, each by a route independent of the solver it checks.

The reference value comes from the paper: on a bipartite graph with
``k < ρ(G)`` the game value per attacker is ``k / ρ(G)`` (Claim 4.3 with
Theorem 5.1), and the defender gains ``k·ν / ρ(G)``; ``ρ`` is computed by
``repro.matching.covers.minimum_edge_cover_size``.  Weighted games have
no closed form, so their check recomputes both best responses from the
returned mixtures.  Each check returns ``None`` when the answer is right
and a one-line reason otherwise.
"""

from __future__ import annotations

import json
from typing import Mapping, Optional

from repro.core.tuples import tuple_vertices
from repro.matching.covers import minimum_edge_cover_size
from repro.solvers.best_response import best_tuple

VALUE_TOL = 1e-6
WEIGHTED_TOL = 1e-7


def paper_value(game) -> float:
    """``k / ρ(G)``: the per-attacker value on bipartite ``k < ρ(G)``."""
    return game.k / minimum_edge_cover_size(game.graph)


def check_plain_do(game, value: float, exact: bool) -> Optional[str]:
    """A ``double_oracle`` answer: certified and equal to ``k/ρ``."""
    if not exact:
        return "double_oracle returned exact=False"
    expected = paper_value(game)
    if abs(value - expected) > VALUE_TOL:
        return f"double_oracle value {value!r} != k/rho = {expected!r}"
    return None


def check_weighted_do(game, config, value: float) -> Optional[str]:
    """A ``weighted_double_oracle`` answer ``(config, value)``.

    The attacker's best escape against the defender mixture is
    ``max_v w(v)(1 − hit(v))``; the defender's best escape against the
    attacker mixture comes from the exact ``best_tuple`` on the weighted
    masses.  At an equilibrium both equal the value.
    """
    defender: Mapping = config.tp_distribution()
    attacker: Mapping = config.vp_distribution(0)
    hit = {v: 0.0 for v in game.graph.vertices()}
    for t, p in defender.items():
        for v in tuple_vertices(t):
            hit[v] += p
    attacker_best = max(game.weights[v] * (1.0 - hit[v]) for v in hit)
    masses = {v: attacker.get(v, 0.0) * game.weights[v] for v in hit}
    _, covered = best_tuple(game.graph, masses, game.k)
    defender_best = sum(masses.values()) - covered
    for side, best in (("attacker", attacker_best),
                       ("defender", defender_best)):
        if abs(best - value) > WEIGHTED_TOL:
            return (f"weighted {side} best response {best!r} "
                    f"!= value {value!r}")
    return None


def check_fp(game, lower: float, upper: float) -> Optional[str]:
    """A ``fictitious_play`` answer: its bounds bracket ``k/ρ``."""
    expected = paper_value(game)
    if not lower - VALUE_TOL <= expected <= upper + VALUE_TOL:
        return (f"fictitious_play bounds [{lower!r}, {upper!r}] "
                f"miss k/rho = {expected!r}")
    return None


def check_miss(game, status: int, body: bytes) -> Optional[str]:
    """A unique ``/solve``: 200, solved fresh, gain ``k·ν/ρ``."""
    if status != 200:
        return f"miss answered {status}"
    try:
        document = json.loads(body)
        cache_hit = document["cache_hit"]
        gain = document["result"]["solve"]["defender_gain"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"miss body unreadable: {exc!r}"
    if cache_hit is not False:
        return "unique game answered from the cache"
    expected = game.nu * paper_value(game)
    if abs(gain - expected) > VALUE_TOL:
        return f"defender_gain {gain!r} != k*nu/rho = {expected!r}"
    return None


def check_hit(status: int, body: bytes, primed: bytes) -> Optional[str]:
    """A hot-set ``/solve``: 200 and byte-identical to the primed hit."""
    if status != 200:
        return f"hit answered {status}"
    if body != primed:
        return "hit body differs from its primed response"
    return None


def check_reject(kind: str, status: int, body: bytes) -> Optional[str]:
    """A malformed body: 400 with the stable ``error.code`` ``kind``."""
    if status != 400:
        return f"{kind} reject answered {status}"
    try:
        code = json.loads(body)["error"]["code"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"reject body unreadable: {exc!r}"
    if code != kind:
        return f"reject code {code!r} != {kind!r}"
    return None
