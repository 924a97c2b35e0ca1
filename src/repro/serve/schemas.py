"""Request validation for the solve service: schema first, worker later.

Serving arbitrary client games is exactly where the mixed-label ordering
and degenerate-parameter bug class bites (see the PR-4 fuzzing notes), so
the wire contract is strict: a request must be a JSON object of the form

.. code-block:: json

    {"game": { ...canonical game payload... }, "params": { ... }}

where ``game`` is the same canonical document
:func:`repro.core.serialize.game_to_json` emits for a plain game
(vertices, edges, ``k``, ``nu``; no served solver models vertex weights,
so a weighted game is rejected) and ``params`` carries
only the endpoint's declared parameters.  Everything is validated here —
types, ranges, unknown keys — *before* the request can touch a worker or
mint a cache key, and every defect maps to one structured
:class:`RequestError` carrying an HTTP status and a stable machine
-readable ``code`` (the ``repro.serve/error/v1`` contract, see
``docs/serving.md``).
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.core.game import GameError, TupleGame
from repro.core.serialize import _game_from_payload
from repro.obs import metrics

__all__ = [
    "ERROR_SCHEMA",
    "RESPONSE_SCHEMA",
    "RequestError",
    "parse_request",
    "param_spec_for",
    "error_payload",
]

ERROR_SCHEMA = "repro.serve/error/v1"
RESPONSE_SCHEMA = "repro.serve/response/v1"


class RequestError(GameError):
    """A rejected request: HTTP status plus a stable machine code.

    ``status`` is the HTTP status the service responds with; ``code`` is
    a short stable identifier clients can dispatch on (``invalid-json``,
    ``invalid-game``, ``invalid-params``, ``no-equilibrium``,
    ``game-error``, ``timeout``, ``saturated``, ``shutting-down``).
    HTTP-level defects reuse the same envelope with their own codes
    (``bad-method``, ``bad-query``, ``bad-request-line``,
    ``bad-content-length``, ``head-too-large``, ``body-too-large``,
    ``truncated``, ``not-found``, ``internal``) — the ``error_code``
    field of the access log (``repro.obs/access/v1``) carries whichever
    code the response did.
    """

    def __init__(self, message: str, status: int = 400,
                 code: str = "invalid-request") -> None:
        super().__init__(message)
        self.status = status
        self.code = code


def error_payload(error: RequestError) -> Dict[str, Any]:
    """The structured JSON body of an error response."""
    return {
        "schema": ERROR_SCHEMA,
        "error": {
            "code": error.code,
            "status": error.status,
            "message": str(error),
        },
    }


# --------------------------------------------------------------------------
# parameter validators


def _int_param(default: int, minimum: Optional[int] = None,
               maximum: Optional[int] = None) -> Tuple[Any, Callable]:
    def check(name: str, value: Any) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise RequestError(
                f"param {name!r} must be an integer; got {value!r}",
                code="invalid-params",
            )
        if minimum is not None and value < minimum:
            raise RequestError(
                f"param {name!r} must be >= {minimum}; got {value}",
                code="invalid-params",
            )
        if maximum is not None and value > maximum:
            raise RequestError(
                f"param {name!r} must be <= {maximum}; got {value}",
                code="invalid-params",
            )
        return value
    return default, check


def _bool_param(default: bool) -> Tuple[Any, Callable]:
    def check(name: str, value: Any) -> bool:
        if not isinstance(value, bool):
            raise RequestError(
                f"param {name!r} must be a boolean; got {value!r}",
                code="invalid-params",
            )
        return value
    return default, check


def _positive_float_param(default: float) -> Tuple[Any, Callable]:
    def check(name: str, value: Any) -> float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise RequestError(
                f"param {name!r} must be a number; got {value!r}",
                code="invalid-params",
            )
        if not value > 0:
            raise RequestError(
                f"param {name!r} must be positive; got {value}",
                code="invalid-params",
            )
        return float(value)
    return default, check


def _optional_positive_float_param() -> Tuple[Any, Callable]:
    _, positive = _positive_float_param(1.0)

    def check(name: str, value: Any) -> Optional[float]:
        if value is None:
            return None
        return positive(name, value)
    return None, check


def _choice_param(choices: Tuple[str, ...], default: str) -> Tuple[Any, Callable]:
    def check(name: str, value: Any) -> str:
        if value not in choices:
            raise RequestError(
                f"param {name!r} must be one of {sorted(choices)}; "
                f"got {value!r}",
                code="invalid-params",
            )
        return str(value)
    return default, check


#: Per-endpoint parameter schema: name -> (default, validator).  The
#: validated dict is passed to the library's cached call as its keyword
#: params, so names and defaults must match the entry point's signature;
#: tests prime the cache through the library and expect a served hit.
_PARAM_SPECS: Dict[str, Dict[str, Tuple[Any, Callable]]] = {
    "solve": {
        "seed": _int_param(0, minimum=0),
        "allow_extensions": _bool_param(True),
    },
    "double-oracle": {
        "tolerance": _positive_float_param(1e-9),
    },
    "fictitious-play": {
        "rounds": _int_param(200, minimum=1, maximum=1_000_000),
        "tolerance": _optional_positive_float_param(),
    },
    "ranges": {
        "side": _choice_param(("attacker", "defender", "both"), "both"),
    },
}


def param_spec_for(endpoint: str) -> Mapping[str, Tuple[Any, Callable]]:
    """The (default, validator) table for one endpoint name."""
    return _PARAM_SPECS[endpoint]


def _validate_params(endpoint: str, raw: Any) -> Dict[str, Any]:
    spec = param_spec_for(endpoint)
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise RequestError(
            f"'params' must be a JSON object; got {type(raw).__name__}",
            code="invalid-params",
        )
    unknown = sorted(set(raw) - set(spec))
    if unknown:
        raise RequestError(
            f"unknown params for /{endpoint}: {', '.join(unknown)} "
            f"(allowed: {', '.join(sorted(spec))})",
            code="invalid-params",
        )
    params: Dict[str, Any] = {}
    for name, (default, check) in spec.items():
        params[name] = check(name, raw[name]) if name in raw else default
    return params


def parse_request(endpoint: str, body: bytes) -> Tuple[Any, Dict[str, Any]]:
    """Validate one request body into ``(game, params)``.

    Raises :class:`RequestError` — never a bare exception — on malformed
    JSON (``invalid-json``), a body that is not the documented envelope
    (``invalid-request``), a game payload the serializer rejects or a
    weighted game (``invalid-game``) or parameters outside the endpoint's
    schema (``invalid-params``).
    """
    with metrics.timer("serve.validate.seconds"):
        try:
            document = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise RequestError(f"request body is not valid JSON: {exc}",
                               code="invalid-json") from exc
        if not isinstance(document, dict):
            raise RequestError("request body must be a JSON object",
                               code="invalid-request")
        unknown = sorted(set(document) - {"game", "params"})
        if unknown:
            raise RequestError(
                f"unknown request keys: {', '.join(unknown)} "
                "(expected 'game' and optional 'params')",
                code="invalid-request",
            )
        if "game" not in document:
            raise RequestError("request is missing the 'game' payload",
                               code="invalid-request")
        if not isinstance(document["game"], dict):
            raise RequestError("'game' must be a JSON object",
                               code="invalid-game")
        try:
            # The canonical game constructors re-validate everything:
            # labels, edge structure, k/nu ranges, weights.
            game = _game_from_payload(document["game"])
        except GameError as exc:
            raise RequestError(f"invalid game payload: {exc}",
                               code="invalid-game") from exc
        if not isinstance(game, TupleGame):
            # No served solver models vertex weights: answering a
            # weighted game would ignore them or crash in the worker.
            raise RequestError(
                f"the /{endpoint} endpoint takes unweighted games only",
                code="invalid-game",
            )
        params = _validate_params(endpoint, document.get("params"))
        return game, params
