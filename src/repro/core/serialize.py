"""JSON serialization of games, configurations and solve results.

Deployment artifacts: a solved scan schedule must survive being written to
disk, shipped to the scanner host and reloaded.  The JSON document pins
the full game (graph, k, ν), the equilibrium kind and every probability,
and loading re-validates everything through the normal constructors, so a
tampered or truncated document fails loudly rather than deploying a
non-equilibrium schedule.

Vertices must be JSON-representable (ints or strings — the same types the
graph I/O layer produces).  Probabilities round-trip as floats.  Documents
are written in one canonical form, key-sorted and whitespace-free, so
they are byte-deterministic for a given profile: the bytes the result
cache stores and the service splices into its responses.  Loading
accepts any JSON whitespace.  The payload is a mixed configuration of
the Definition 2.1 model plus the equilibrium kind assigned by the
Theorem 4.5 solve cascade.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.core.configuration import MixedConfiguration
from repro.core.game import GameError, TupleGame
from repro.graphs.core import Graph, tuple_sort_key, vertex_sort_key

__all__ = [
    "game_to_json",
    "game_from_json",
    "configuration_to_json",
    "configuration_from_json",
    "solve_result_to_json",
]

#: Moves whenever the document bytes do, so a cached row written in an
#: older form fails the tag check and is recomputed, never replayed.
_FORMAT = "repro.mixed-configuration.v2"

#: ``model`` discriminator value for weighted games.  Plain games carry
#: no ``model`` key at all — their payload (and therefore their
#: fingerprint and every committed document hashing it) is byte-for-byte
#: what it was before the weighted model existed.
_WEIGHTED_MODEL = "weighted-tuple"


def _canonical(payload: Any) -> str:
    """The one canonical encoding: key-sorted, no whitespace (C encoder)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _game_payload(game: Any) -> Dict[str, Any]:
    """Canonical payload of a plain or weighted game.

    ``game`` is duck-typed: anything exposing ``graph``/``k``/``nu`` plus
    a ``weights`` mapping is treated as a
    :class:`~repro.weighted.game.WeightedTupleGame` (serialize sits below
    ``repro.weighted`` in the layering DAG, so the class itself cannot be
    imported here at module scope).  Weighted payloads carry a ``model``
    discriminator and the weight vector in canonical vertex order with
    every value pinned through ``float`` — two games differing only in
    weights therefore serialize (and fingerprint) differently.
    """
    payload: Dict[str, Any] = {
        "vertices": game.graph.sorted_vertices(),
        "edges": [list(e) for e in game.graph.sorted_edges()],
        "k": game.k,
        "nu": game.nu,
    }
    weights = getattr(game, "weights", None)
    if weights is not None:
        payload["model"] = _WEIGHTED_MODEL
        payload["weights"] = [
            [v, float(weights[v])]
            for v in sorted(weights, key=vertex_sort_key)
        ]
    return payload


def game_to_json(game: Any) -> str:
    """Canonical, byte-deterministic JSON dump of a game (graph, k, ν).

    Key-sorted and whitespace-free, so two structurally identical games
    always serialize to the same bytes — the provenance ledger
    (:mod:`repro.obs.ledger`) hashes this document as the game
    fingerprint of a recorded run, and the result cache
    (:mod:`repro.cache`) keys entries by that hash.  Weighted games
    (:class:`~repro.weighted.game.WeightedTupleGame`) include their
    ``model`` discriminator and weight vector, so games differing only
    in vertex weights never collide.
    """
    return _canonical(_game_payload(game))


def _game_from_payload(payload: Dict[str, Any]) -> Any:
    try:
        model = payload.get("model", "tuple")
        edges = [tuple(e) for e in payload["edges"]]
        graph = Graph(edges, vertices=payload.get("vertices", ()))
        if model == _WEIGHTED_MODEL:
            # Deliberate layering inversion (core -> weighted), deferred
            # to call time and only paid on weighted documents: the
            # payload names a class that lives above this module.
            from repro.weighted.game import WeightedTupleGame

            weights = {v: float(w) for v, w in payload["weights"]}
            return WeightedTupleGame(
                graph, int(payload["k"]), weights, nu=int(payload["nu"])
            )
        if model != "tuple":
            raise GameError(f"unknown game model {model!r}")
        return TupleGame(graph, int(payload["k"]), int(payload["nu"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise GameError(f"malformed game payload: {exc}") from exc


def game_from_json(text: str) -> Any:
    """Parse a :func:`game_to_json` document back into a game.

    Reconstructs the right type from the ``model`` discriminator — a
    weighted document yields a
    :class:`~repro.weighted.game.WeightedTupleGame` with its weights
    intact instead of silently downgrading to a plain
    :class:`~repro.core.game.TupleGame`.  Raises
    :class:`~repro.core.game.GameError` on malformed documents.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GameError(f"invalid JSON game document: {exc}") from exc
    if not isinstance(payload, dict):
        raise GameError("game document is not a JSON object")
    return _game_from_payload(payload)


def _configuration_payload(config: MixedConfiguration) -> Dict[str, Any]:
    """Canonical payload of a mixed configuration (with its game)."""
    game = config.game
    return {
        "format": _FORMAT,
        "game": _game_payload(game),
        "vertex_players": [
            sorted(
                ([v, p] for v, p in config.vp_distribution(i).items()),
                key=lambda item: vertex_sort_key(item[0]),
            )
            for i in range(game.nu)
        ],
        "tuple_player": [
            {"edges": [list(e) for e in t], "probability": p}
            for t, p in sorted(
                config.tp_distribution().items(),
                key=lambda item: tuple_sort_key(item[0]),
            )
        ],
    }


def configuration_to_json(config: MixedConfiguration) -> str:
    """Serialize a mixed configuration (with its game) to canonical JSON."""
    return _canonical(_configuration_payload(config))


def _configuration_from_payload(payload: Any) -> MixedConfiguration:
    """Check the format tag of a configuration payload, then rebuild and
    fully re-validate the configuration it describes."""
    if not isinstance(payload, dict) or payload.get("format") != _FORMAT:
        raise GameError(
            f"unrecognized configuration format (expected {_FORMAT!r})"
        )
    for key in ("game", "vertex_players", "tuple_player"):
        if key not in payload:
            raise GameError(f"configuration document is missing {key!r}")
    game = _game_from_payload(payload["game"])

    vp_dists: List[Dict] = []
    for entry in payload["vertex_players"]:
        try:
            vp_dists.append({v: float(p) for v, p in entry})
        except (TypeError, ValueError) as exc:
            raise GameError(f"malformed vertex-player distribution: {exc}") from exc

    tp_dist: Dict[Any, float] = {}
    for item in payload["tuple_player"]:
        try:
            key = tuple(tuple(e) for e in item["edges"])
            tp_dist[key] = float(item["probability"])
        except (KeyError, TypeError, ValueError) as exc:
            raise GameError(f"malformed tuple-player entry: {exc}") from exc

    # MixedConfiguration re-validates supports, arities and unit mass.
    return MixedConfiguration(game, vp_dists, tp_dist)


def configuration_from_json(text: str) -> MixedConfiguration:
    """Parse and fully re-validate a serialized mixed configuration.

    Raises :class:`~repro.core.game.GameError` on any structural defect:
    wrong format tag, missing keys, probabilities that do not sum to one,
    strategies outside the game.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GameError(f"invalid JSON configuration document: {exc}") from exc
    return _configuration_from_payload(payload)


def solve_result_to_json(result: Any) -> str:
    """Serialize a :class:`~repro.equilibria.solve.SolveResult` with its
    equilibrium, kind and gain (one self-contained deployment document).

    Canonical and compact: the stored cache row, the ``result`` of a
    served ``/solve`` and the ``export`` file are these exact bytes."""
    payload = _configuration_payload(result.mixed)
    payload["solve"] = {
        "kind": result.kind,
        "defender_gain": result.defender_gain,
        "partition": (
            None
            if result.partition is None
            else {
                "independent_set": sorted(result.partition[0], key=vertex_sort_key),
                "vertex_cover": sorted(result.partition[1], key=vertex_sort_key),
            }
        ),
    }
    return _canonical(payload)
