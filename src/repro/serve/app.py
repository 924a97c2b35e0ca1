"""The solve service itself: a stdlib-only asyncio HTTP/1.1 server.

No FastAPI, no uvicorn — the container bakes in the scientific stack and
nothing else, and the wire surface here is small enough that a strict
little HTTP/1.1 parser (``Content-Length`` bodies, ``Connection:
close``) is both sufficient and auditable.  The event loop only ever
parses, validates and serves cache hits; solver work runs on the
:class:`~repro.serve.workers.WorkerPool` behind an admission limit, with
a per-request deadline enforced by ``asyncio.wait_for``.

``GET /healthz`` reports liveness plus pool occupancy (workers, queue
depth, uptime); ``GET /metrics`` re-serializes the process-global
registry in Prometheus text format — the same bytes ``repro-defender
stats --format prom`` emits, so one scrape config covers CLI batch runs
and the service.  ``GET /slo`` renders the live SLO engine's burn-rate
report and ``GET /debug/events?n=`` the newest telemetry-bus events.

Every request runs under its own trace context
(:mod:`repro.obs.tracing`): an inbound W3C ``traceparent`` is honored
(else a trace id is minted), the response echoes ``X-Request-Id`` and
``traceparent``, and the same trace id lands in the ledger record, the
``run.start``/``run.end`` events, the span tree and the access-log line
(:mod:`repro.obs.access`) for that request.

:func:`running_service` runs the whole thing on a background thread and
yields the base URL — the harness used by the tests, the smoke check and
the load generator.
"""

from __future__ import annotations

import asyncio
import contextlib
import contextvars
import json
import threading
from email.utils import formatdate
from time import perf_counter, time
from typing import Any, Dict, Iterator, List, Optional, Tuple
from urllib.parse import parse_qs

from repro.obs import access as obs_access
from repro.obs import events as obs_events
from repro.obs import get_logger, metrics
from repro.obs import tracing
from repro.obs.metrics import get_registry
from repro.obs.slo import SloEngine, SloObjective

from repro.serve.routes import prepare
from repro.serve.schemas import RequestError, error_payload
from repro.serve.workers import WorkerPool

__all__ = ["ServeConfig", "DefenderService", "running_service"]

_log = get_logger("repro.serve.app")

_MAX_HEADER_BYTES = 64 * 1024
_DEFAULT_MAX_BODY = 8 * 1024 * 1024

_STATUS_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    422: "Unprocessable Entity", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
    504: "Gateway Timeout",
}


class ServeConfig:
    """Tunables for one :class:`DefenderService` instance.

    ``port=0`` binds an ephemeral port (the bound port is reported by
    :attr:`DefenderService.port` once started) — how the tests and the
    smoke target avoid colliding on a fixed port.
    """

    __slots__ = ("host", "port", "workers", "queue_limit",
                 "request_timeout_s", "max_body_bytes")

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        queue_limit: int = 8,
        request_timeout_s: float = 60.0,
        max_body_bytes: int = _DEFAULT_MAX_BODY,
    ) -> None:
        if request_timeout_s <= 0:
            raise RequestError(
                f"request_timeout_s must be positive; got {request_timeout_s}",
                status=500, code="bad-config",
            )
        self.host = host
        self.port = port
        self.workers = workers
        self.queue_limit = queue_limit
        self.request_timeout_s = request_timeout_s
        self.max_body_bytes = max_body_bytes


class _HttpError(Exception):
    """An HTTP-level defect (before routing): status + message."""

    def __init__(self, status: int, message: str, code: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = code


class DefenderService:
    """The asyncio HTTP server bound to one worker pool.

    ``slo_objectives`` customizes the live :class:`SloEngine` behind
    ``GET /slo`` (the built-in availability + latency defaults
    otherwise — see :func:`repro.obs.slo.default_objectives`).
    """

    def __init__(self, config: Optional[ServeConfig] = None,
                 slo_objectives: Optional[List[SloObjective]] = None) -> None:
        self.config = config or ServeConfig()
        self.pool = WorkerPool(self.config.workers, self.config.queue_limit)
        self.slo = SloEngine(slo_objectives)
        self._server: Optional[asyncio.AbstractServer] = None
        self._started_at: Optional[float] = None

    # -- lifecycle --------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            return self.config.port
        return int(self._server.sockets[0].getsockname()[1])

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port,
        )
        self._started_at = time()
        _log.info("serve.started", host=self.config.host, port=self.port,
                  workers=self.config.workers,
                  queue_limit=self.config.queue_limit)

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.pool.close()
        _log.info("serve.stopped")

    async def serve_forever(self) -> None:
        """Start (if needed) and block until cancelled."""
        if self._server is None:
            await self.start()
        if self._server is None:
            raise RuntimeError("serve: the listener closed while starting")
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await self.stop()

    # -- HTTP plumbing ----------------------------------------------------

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, Dict[str, str], bytes]:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError as exc:
            raise _HttpError(413, "request head too large",
                             "head-too-large") from exc
        except (asyncio.IncompleteReadError, ConnectionError) as exc:
            raise _HttpError(400, "truncated request", "truncated") from exc
        if len(head) > _MAX_HEADER_BYTES:
            raise _HttpError(413, "request head too large", "head-too-large")
        try:
            lines = head.decode("latin-1").split("\r\n")
            method, target, _version = lines[0].split(" ", 2)
        except (UnicodeDecodeError, ValueError) as exc:
            raise _HttpError(400, "malformed request line",
                             "bad-request-line") from exc
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        body = b""
        length_header = headers.get("content-length")
        if length_header is not None:
            try:
                length = int(length_header)
            except ValueError as exc:
                raise _HttpError(400, "invalid Content-Length",
                                 "bad-content-length") from exc
            if length < 0:
                raise _HttpError(400, "invalid Content-Length",
                                 "bad-content-length")
            if length > self.config.max_body_bytes:
                raise _HttpError(
                    413,
                    f"request body exceeds {self.config.max_body_bytes} bytes",
                    "body-too-large",
                )
            try:
                body = await reader.readexactly(length)
            except (asyncio.IncompleteReadError, ConnectionError) as exc:
                raise _HttpError(400, "truncated request body",
                                 "truncated") from exc
        return method.upper(), target, headers, body

    @staticmethod
    def _response_bytes(
        status: int,
        payload: Any,
        content_type: str = "application/json",
        trace: Optional[tracing.TraceContext] = None,
    ) -> bytes:
        """Serialize one response, stamping the correlation headers.

        Every response carries ``Date``; when a trace context is given
        (always, for requests that got as far as a response) it also
        carries ``X-Request-Id`` (the trace id — what a client quotes in
        a bug report) and the outbound W3C ``traceparent`` echo.
        """
        if isinstance(payload, (dict, list)):
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
        elif isinstance(payload, str):
            body = payload.encode("utf-8")
        else:
            body = payload
        reason = _STATUS_REASONS.get(status, "Unknown")
        lines = [
            f"HTTP/1.1 {status} {reason}",
            f"Date: {formatdate(usegmt=True)}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
        ]
        if trace is not None:
            lines.append(f"X-Request-Id: {trace.trace_id}")
            lines.append(f"traceparent: {trace.traceparent()}")
        lines.append("Connection: close")
        head = "\r\n".join(lines) + "\r\n\r\n"
        return head.encode("latin-1") + body

    # -- routing ----------------------------------------------------------

    async def _dispatch(self, method: str, target: str,
                        body: bytes) -> Tuple[int, Any, str]:
        path, _, query = target.partition("?")
        path = path.rstrip("/") or "/"
        if path == "/healthz":
            if method != "GET":
                raise _HttpError(405, "use GET for /healthz", "bad-method")
            uptime = 0.0 if self._started_at is None \
                else max(0.0, time() - self._started_at)
            return 200, {
                "status": "ok",
                "inflight": self.pool.inflight,
                "capacity": self.pool.capacity,
                "workers": self.pool.workers,
                "queue_limit": self.pool.queue_limit,
                "queue_depth": self.pool.queue_depth,
                "uptime_s": uptime,
            }, "application/json"
        if path == "/metrics":
            if method != "GET":
                raise _HttpError(405, "use GET for /metrics", "bad-method")
            return (200, get_registry().to_prometheus(),
                    "text/plain; version=0.0.4")
        if path == "/slo":
            if method != "GET":
                raise _HttpError(405, "use GET for /slo", "bad-method")
            return 200, self.slo.status_document(), "application/json"
        if path == "/debug/events":
            if method != "GET":
                raise _HttpError(405, "use GET for /debug/events",
                                 "bad-method")
            return (200, self._debug_events(query), "application/json")
        endpoint = path.lstrip("/")
        if method != "POST":
            raise _HttpError(405, f"use POST for /{endpoint}", "bad-method")
        response = await self._run_endpoint(endpoint, body)
        return 200, response, "application/json"

    @staticmethod
    def _debug_events(query: str) -> Dict[str, Any]:
        """The ``GET /debug/events?n=`` body: newest buffered events.

        The event bus must be enabled (``--events``) for the buffer to
        fill; with it off this returns an empty list, not an error — the
        endpoint is a debugging porthole, not a health signal.
        """
        count = 100
        params = parse_qs(query, keep_blank_values=True)
        if "n" in params:
            raw = params["n"][-1]
            try:
                count = int(raw)
            except ValueError:
                raise _HttpError(400, f"query param n must be an integer; "
                                      f"got {raw!r}", "bad-query") from None
            if count < 0:
                raise _HttpError(400, "query param n must be >= 0",
                                 "bad-query")
        events = obs_events.recent(count)
        return {"schema": obs_events.EVENT_SCHEMA, "count": len(events),
                "events": events}

    async def _run_endpoint(self, endpoint: str, body: bytes) -> Any:
        loop = asyncio.get_running_loop()
        # Validation and the cache probe are cheap; run them on the
        # loop's default executor so a burst of malformed requests still
        # cannot occupy a solver worker.  run_in_executor does not carry
        # contextvars across the hop by itself, so the request's trace
        # context is propagated explicitly (WorkerPool.submit does the
        # same for solver work).
        context = contextvars.copy_context()
        prepared = await loop.run_in_executor(
            None, context.run, prepare, endpoint, body)
        if prepared.response is not None:
            return prepared.response
        if prepared.run is None:
            raise RuntimeError(f"prepare({endpoint!r}) returned no work")
        future = self.pool.submit(prepared.run)
        try:
            return await asyncio.wait_for(
                asyncio.wrap_future(future),
                timeout=self.config.request_timeout_s,
            )
        except asyncio.TimeoutError:
            metrics.counter("serve.timeout.count").inc()
            # The thread keeps running (threads cannot be killed); its
            # pool slot is released by the done-callback when it ends.
            raise RequestError(
                f"request exceeded {self.config.request_timeout_s:g}s",
                status=504, code="timeout",
            ) from None

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        started = perf_counter()
        metrics.counter("serve.requests.count").inc()
        status = 500
        method = ""
        endpoint = ""
        error_code: Optional[str] = None
        trace: Optional[tracing.TraceContext] = None
        payload: Any = None
        try:
            try:
                method, target, headers, body = await self._read_request(
                    reader)
                # Path form for the access log / SLO engine: "/solve",
                # trailing slash normalized away, bare "/" preserved.
                endpoint = "/" + target.split("?", 1)[0].strip("/")
                # One trace per request: continue the client's when it
                # sent a valid traceparent, mint one otherwise.  Every
                # span, ledger record, event and access line below here
                # carries this context's trace_id (the executor hops
                # copy the contextvars context).
                trace = tracing.start_trace(headers.get("traceparent"))
                status, payload, content_type = await self._dispatch(
                    method, target, body,
                )
            except RequestError as exc:
                status, error_code = exc.status, exc.code
                payload, content_type = error_payload(exc), "application/json"
                metrics.counter("serve.errors.count").inc()
                metrics.counter(f"serve.errors.{exc.code}.count").inc()
            except _HttpError as exc:
                status, error_code = exc.status, exc.code
                payload = error_payload(
                    RequestError(str(exc), status=exc.status, code=exc.code)
                )
                content_type = "application/json"
                metrics.counter("serve.errors.count").inc()
                metrics.counter(f"serve.errors.{exc.code}.count").inc()
            except Exception as exc:  # last-resort 500: never drop a reply
                _log.error("serve.internal_error", error=repr(exc))
                error_code = "internal"
                payload = error_payload(
                    RequestError("internal error", status=500,
                                 code="internal")
                )
                content_type = "application/json"
                metrics.counter("serve.errors.count").inc()
                metrics.counter("serve.errors.internal.count").inc()
            if trace is None:
                # The request died before its head parsed (truncated,
                # oversized); the error response still gets a request id.
                trace = tracing.start_trace(None)
            writer.write(self._response_bytes(status, payload, content_type,
                                              trace=trace))
            await writer.drain()
        except ConnectionError:
            pass
        finally:
            with contextlib.suppress(ConnectionError):
                writer.close()
                await writer.wait_closed()
            metrics.counter(f"serve.responses.{status}.count").inc()
            cache_hit = payload.get("cache_hit") \
                if isinstance(payload, dict) else None
            self._finish_request(
                trace=trace, method=method, endpoint=endpoint, status=status,
                error_code=error_code,
                latency_s=perf_counter() - started,
                cache_hit=cache_hit if isinstance(cache_hit, bool) else None,
            )

    def _finish_request(
        self,
        trace: Optional[tracing.TraceContext],
        method: str,
        endpoint: str,
        status: int,
        error_code: Optional[str],
        latency_s: float,
        cache_hit: Optional[bool] = None,
    ) -> None:
        """Request epilogue: histogram, SLO feed, access line.

        Runs for every connection — including ones that died before a
        response could be written — so the operational record is
        complete.  The access line is the one per-request record and a
        no-op while its sink is off (the obs cost contract); the SLO
        engine's append is always on.
        """
        metrics.histogram("serve.request.seconds").observe(latency_s)
        fields = dict(
            trace_id=None if trace is None else trace.trace_id,
            method=method, endpoint=endpoint or "/", status=status,
            error_code=error_code, latency_s=latency_s, cache_hit=cache_hit,
            inflight=self.pool.inflight,
        )
        self.slo.observe(endpoint=fields["endpoint"], status=status,
                         latency_s=latency_s)
        obs_access.log_request(**fields)


@contextlib.contextmanager
def running_service(
    config: Optional[ServeConfig] = None,
) -> Iterator[Tuple[DefenderService, str]]:
    """Run a service on a daemon thread; yield ``(service, base_url)``.

    The server is fully started (port bound and resolved) before the
    body runs, and stopped — pool drained — on exit.  This is the
    harness behind the tests and ``tools/serve_smoke.py``.
    """
    service = DefenderService(config)
    loop = asyncio.new_event_loop()
    started = threading.Event()

    async def _start() -> None:
        await service.start()
        started.set()

    def _run() -> None:
        asyncio.set_event_loop(loop)
        loop.run_until_complete(_start())
        loop.run_forever()

    thread = threading.Thread(target=_run, name="repro-serve-loop",
                              daemon=True)
    with metrics.timer("serve.startup.seconds"):
        thread.start()
        if not started.wait(timeout=10.0):
            raise RuntimeError("service failed to start within 10s")
    try:
        yield service, f"http://{service.config.host}:{service.port}"
    finally:
        stop = asyncio.run_coroutine_threadsafe(service.stop(), loop)
        stop.result(timeout=30.0)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10.0)
        loop.close()
