"""Endpoint registry for the solve service: validate, probe, run, record.

A cached endpoint's :class:`EndpointSpec` points at the library entry
point's own :class:`~repro.cache.CachedCall`, so a request's cache key
is the key the in-process call mints, and a response body is exactly the
stored cache document wrapped in the ``repro.serve/response/v1``
envelope.  The request lifecycle is deliberately ordered:

1. **validate** (:func:`repro.serve.schemas.parse_request`) — nothing
   invalid ever reaches a worker, mints a cache key or writes a ledger
   record;
2. **probe** once — a hit whose document passes
   :meth:`~repro.cache.CachedCall.check` is served inline (no worker
   slot), recorded with ``cache_hit=True``; a bad row is demoted to a
   miss;
3. **run** on a worker thread with that same probe, wrapped in a
   ``serve.<endpoint>`` ledger run (which publishes ``run.start`` /
   ``run.end`` on the event bus) nested around the solver's own record;
   the one encoding of the result is both the stored payload and the
   response body.

Either way the response body is built here, as bytes: the stored or
just-encoded document is spliced verbatim into the envelope, never
parsed and re-dumped for output.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, NamedTuple, Optional, cast

from repro.cache import CacheProbe, CachedCall
from repro.core.game import GameError, TupleGame
from repro.core.serialize import _canonical
from repro.equilibria import NoEquilibriumFoundError
from repro.equilibria.solve import SOLVE_CALL
from repro.obs import get_logger, metrics, tracing
from repro.obs import ledger as obs_ledger
from repro.solvers.double_oracle import DOUBLE_ORACLE_CALL
from repro.solvers.fictitious_play import FICTITIOUS_PLAY_CALL
from repro.solvers.ranges import SIDES, StrategyRanges, strategy_ranges
from repro.serve.schemas import (
    RESPONSE_SCHEMA,
    RequestError,
    parse_request,
)

__all__ = ["ENDPOINTS", "EndpointSpec", "PreparedRequest", "prepare"]

_log = get_logger("repro.serve.routes")


def _ranges_doc(ranges: StrategyRanges) -> Dict[str, Any]:
    ordered = sorted(ranges.ranges.items(),
                     key=lambda item: ranges.sort_key(item[0]))

    def as_json(key: Any) -> Any:
        return list(key) if isinstance(key, tuple) else key

    return {
        "value": ranges.value,
        "ranges": [[as_json(key), low, high] for key, (low, high) in ordered],
        "required": [as_json(key) for key in ranges.required()],
        "usable": [as_json(key) for key in ranges.usable()],
    }


def _ranges_payload(game: TupleGame, params: Dict[str, Any]) -> Any:
    sides = SIDES if params["side"] == "both" else (params["side"],)
    ranges = strategy_ranges(game, sides)
    return {side: _ranges_doc(found) for side, found in ranges.items()}


Runner = Callable[[TupleGame, Dict[str, Any]], Any]


class EndpointSpec(NamedTuple):
    """One POST endpoint and what answers it.

    ``call`` is the library entry point's :class:`~repro.cache.CachedCall`;
    ``/ranges``, which the library does not cache, sets ``runner``."""

    call: Optional[CachedCall] = None
    runner: Optional[Runner] = None


#: URL name (without the leading slash) -> spec.
ENDPOINTS: Dict[str, EndpointSpec] = {
    "solve": EndpointSpec(SOLVE_CALL),
    "double-oracle": EndpointSpec(DOUBLE_ORACLE_CALL),
    "fictitious-play": EndpointSpec(FICTITIOUS_PLAY_CALL),
    "ranges": EndpointSpec(runner=_ranges_payload),
}


def _envelope(name: str, document: str, cache_hit: bool) -> bytes:
    """The ``repro.serve/response/v1`` body around one encoded result.

    ``document`` is spliced in verbatim; the keys keep the sorted order
    (``cache_hit``, ``endpoint``, ``result``, ``schema``)."""
    return (f'{{"cache_hit":{"true" if cache_hit else "false"},'
            f'"endpoint":{json.dumps(name)},"result":{document},'
            f'"schema":{json.dumps(RESPONSE_SCHEMA)}}}').encode("utf-8")


class PreparedRequest(NamedTuple):
    """A validated request: either an inline response or worker work.

    ``body`` is the response body when the result cache answered (no
    worker slot needed), with ``cache_hit`` set; otherwise ``run`` is
    the thunk the app hands to the pool, and it returns the body of a
    miss (``cache_hit`` stays false).
    """

    body: Optional[bytes] = None
    cache_hit: bool = False
    run: Optional[Callable[[], bytes]] = None


def _translate(endpoint: str, exc: GameError) -> RequestError:
    """Map library failures onto the structured error contract."""
    if isinstance(exc, RequestError):
        return exc
    if isinstance(exc, NoEquilibriumFoundError):
        return RequestError(str(exc), status=422, code="no-equilibrium")
    return RequestError(str(exc), status=422, code="game-error")


def prepare(endpoint: str, body: bytes) -> PreparedRequest:
    """Validate ``body`` for ``endpoint`` and decide how to answer it.

    Raises :class:`~repro.serve.schemas.RequestError` on anything
    invalid; returns a :class:`PreparedRequest` whose inline ``body``
    is populated on a cache hit (the request never occupies a worker)
    and whose ``run`` thunk is populated otherwise.  The thunk performs
    its own error translation, so the app only ever sees
    :class:`RequestError` out of either path.
    """
    spec = ENDPOINTS.get(endpoint)
    if spec is None:
        raise RequestError(f"unknown endpoint /{endpoint}",
                           status=404, code="not-found")
    call, runner = spec.call, spec.runner
    with tracing.span("serve.prepare", endpoint=endpoint), \
            metrics.timer("serve.prepare.seconds"):
        game, params = parse_request(endpoint, body)
        probe: Optional[CacheProbe] = None
        if call is not None:
            probe = call.probe(game, params)
            # The check is a full parse plus the format tag: a torn or
            # stale row is demoted here, and the served bytes are the
            # stored row itself.
            if probe.replay(call.check) is not None:
                metrics.counter("serve.cache_hit.count").inc()
                with obs_ledger.run(f"serve.{endpoint}", game=game,
                                    cache_hit=True, **params):
                    pass
                _log.info("serve.cache_hit", endpoint=endpoint,
                          trace_id=tracing.current_trace_id())
                return PreparedRequest(
                    body=_envelope(endpoint, cast(str, probe.payload),
                                   cache_hit=True),
                    cache_hit=True)

    def run() -> bytes:
        try:
            with obs_ledger.run(f"serve.{endpoint}", game=game,
                                cache_hit=False, **params), \
                    tracing.span("serve.run", endpoint=endpoint), \
                    metrics.timer(f"serve.{endpoint}.seconds"):
                if call is not None and probe is not None:
                    # ``text=True``: the one encoding, also with the cache off.
                    _, document = call.run(game, params, probe, text=True)
                else:
                    document = _canonical(cast(Runner, runner)(game, params))
        except GameError as exc:
            raise _translate(endpoint, exc) from exc
        return _envelope(endpoint, cast(str, document), cache_hit=False)

    return PreparedRequest(run=run)
