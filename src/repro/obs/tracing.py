"""Span-based tracing: where the wall-clock of a solve actually goes.

A *span* is a named, timed section of work with key=value attributes:
``span("lp.solve", strategies=40, vertices=12)``.  Spans nest — the
double-oracle loop's span contains one ``lp.solve`` span per restricted
duel plus the oracle spans — and the resulting tree shows, per solve,
which layer of the stack consumed the time.  ``repro-defender stats``
and ``--trace`` print exactly this tree.

Tracing is **opt-in and near-free when off** (the default):
:func:`span` returns a shared no-op context manager and
:func:`traced`-wrapped functions fall through with a single boolean
check, so instrumented hot paths cost a few nanoseconds per call when
nobody is looking.  Enable with :func:`enable_tracing` (the CLI's
``--trace`` flag, or ``REPRO_TRACE=1`` in the environment).

Completed root spans accumulate in a per-context trace buffer;
:func:`get_trace` returns them and :func:`render_trace` formats the
indented tree.  Span time is read from that tree (the profiler, the
ledger's ``spans``); spans feed no metrics.

Correlation (PR 10): the trace buffer lives in a
:class:`contextvars.ContextVar` rather than ``threading.local``, so a
request's trace context survives the hop from the asyncio loop onto a
worker thread whenever the callable is run under
``contextvars.copy_context()`` (which the serve layer's
:class:`~repro.serve.workers.WorkerPool` does; validation and cache
hits run on the loop, in the request task's own context).  Every
context carries a W3C-style 128-bit ``trace_id`` and every span minted
inside it gets a 64-bit ``span_id``; :func:`start_trace`
begins a fresh context for an inbound request, honoring its
``traceparent`` header when one is supplied.  Trace *identity* is
always available — even with span collection disabled — which is what
lets the access log, ledger and event bus stamp one shared trace id per
request.
"""

from __future__ import annotations

import contextvars
import os
from functools import wraps
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.jsonl import env_flag

__all__ = [
    "Span",
    "TraceContext",
    "span",
    "traced",
    "enable_tracing",
    "tracing_enabled",
    "start_trace",
    "current_trace",
    "current_trace_id",
    "parse_traceparent",
    "format_traceparent",
    "get_trace",
    "clear_trace",
    "render_trace",
]

_enabled = env_flag("REPRO_TRACE")

_TRACEPARENT_VERSION = "00"


def _new_trace_id() -> str:
    return os.urandom(16).hex()


def _new_span_id() -> str:
    return os.urandom(8).hex()


def parse_traceparent(header: Optional[str]) -> Optional[Tuple[str, str]]:
    """Parse a W3C ``traceparent`` header into ``(trace_id, parent_id)``.

    The accepted shape is ``00-<32 hex>-<16 hex>-<2 hex>``; a malformed
    header, the reserved version ``ff`` or an all-zero id returns
    ``None`` (the caller mints a fresh trace instead of failing the
    request — correlation must never reject traffic).
    """
    if not header:
        return None
    parts = header.strip().split("-")
    if len(parts) != 4:
        return None
    version, trace_id, parent_id, flags = parts
    if len(version) != 2 or len(trace_id) != 32 or len(parent_id) != 16:
        return None
    if len(flags) != 2:
        return None
    try:
        int(version, 16)
        int(trace_id, 16)
        int(parent_id, 16)
        int(flags, 16)
    except ValueError:
        return None
    if version.lower() == "ff":
        return None
    if trace_id == "0" * 32 or parent_id == "0" * 16:
        return None
    return trace_id.lower(), parent_id.lower()


def format_traceparent(trace_id: str, span_id: str) -> str:
    """Render ``(trace_id, span_id)`` as an outbound ``traceparent``
    header value (always sampled: this service records what it serves)."""
    return f"{_TRACEPARENT_VERSION}-{trace_id}-{span_id}-01"


class TraceContext:
    """One trace's identity plus its span buffer.

    ``trace_id`` is the 128-bit hex id shared by every span, ledger
    record, event and access-log line of one logical request;
    ``span_id`` identifies this service hop (it is the parent id echoed
    in the response ``traceparent``); ``parent_id`` is the caller's span
    id when an inbound ``traceparent`` was honored, else ``None``.

    The open-span ``stack`` and finished-root ``roots`` buffers live on
    the context object itself, so code running under a copied
    ``contextvars`` context (worker threads, executors) appends into the
    *same* buffers as the request task that started the trace.
    """

    __slots__ = ("trace_id", "span_id", "parent_id", "stack", "roots")

    def __init__(self, trace_id: Optional[str] = None,
                 parent_id: Optional[str] = None) -> None:
        self.trace_id = trace_id or _new_trace_id()
        self.span_id = _new_span_id()
        self.parent_id = parent_id
        self.stack: List["Span"] = []
        self.roots: List["Span"] = []

    def traceparent(self) -> str:
        """The outbound ``traceparent`` value for this hop."""
        return format_traceparent(self.trace_id, self.span_id)

    def __repr__(self) -> str:
        return (
            f"TraceContext(trace_id={self.trace_id!r}, "
            f"span_id={self.span_id!r}, roots={len(self.roots)})"
        )


_CONTEXT: "contextvars.ContextVar[Optional[TraceContext]]" = (
    contextvars.ContextVar("repro_trace_context", default=None)
)


def _current_context(create: bool = True) -> Optional[TraceContext]:
    return _ensure_context() if create else _CONTEXT.get()


def _ensure_context() -> TraceContext:
    """The current trace context, created on first use."""
    state = _CONTEXT.get()
    if state is None:
        state = TraceContext()
        _CONTEXT.set(state)
    return state


def start_trace(traceparent: Optional[str] = None) -> TraceContext:
    """Begin a fresh trace context for the current task/thread.

    Honors a valid inbound W3C ``traceparent`` (continuing the caller's
    ``trace_id`` with this hop as a child span) and mints a new
    ``trace_id`` otherwise.  Returns the new context — the serve layer
    calls this once per HTTP request, then copies the surrounding
    ``contextvars`` context across its one worker hop so every span,
    ledger record and event of that request lands in this buffer.
    """
    parsed = parse_traceparent(traceparent)
    if parsed is not None:
        state = TraceContext(trace_id=parsed[0], parent_id=parsed[1])
    else:
        state = TraceContext()
    _CONTEXT.set(state)
    return state


def current_trace() -> Optional[TraceContext]:
    """The active :class:`TraceContext`, or ``None`` before any trace
    activity in this task/thread."""
    return _CONTEXT.get()


def current_trace_id(create: bool = False) -> Optional[str]:
    """The active trace id; with ``create=True`` mint a context first."""
    state = _current_context(create=create)
    return None if state is None else state.trace_id


class Span:
    """One named, timed section of work.

    Attributes
    ----------
    name:
        Dotted span name (``component.operation``).
    attributes:
        The key=value annotations passed at creation.
    duration_s:
        Wall-clock seconds from entry to exit (0.0 while open).
    status:
        ``"ok"``, or ``"error"`` when the block raised.
    error_type:
        The exception class name when ``status == "error"``, else ``None``.
    children:
        Spans opened (and closed) while this one was the innermost.
    trace_id:
        The 128-bit hex id of the trace this span belongs to (shared by
        the whole request), or ``None`` for a span never entered.
    span_id:
        This span's own 64-bit hex id, minted on entry.
    parent_id:
        The enclosing span's ``span_id`` (or the trace context's hop id
        for root spans), or ``None`` for a span never entered.
    """

    __slots__ = ("name", "attributes", "start", "duration_s", "status",
                 "error_type", "children", "trace_id", "span_id",
                 "parent_id")

    def __init__(self, name: str, attributes: Dict[str, object]) -> None:
        self.name = name
        self.attributes = attributes
        self.start = 0.0
        self.duration_s = 0.0
        self.status = "ok"
        self.error_type: Optional[str] = None
        self.children: List["Span"] = []
        self.trace_id: Optional[str] = None
        self.span_id: Optional[str] = None
        self.parent_id: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        """The span subtree as a plain JSON-ready dict (ledger/profiler
        serialization format)."""
        payload: Dict[str, object] = {
            "name": self.name,
            "duration_s": self.duration_s,
            "status": self.status,
            "attributes": dict(self.attributes),
            "children": [child.to_dict() for child in self.children],
        }
        if self.error_type is not None:
            payload["error_type"] = self.error_type
        if self.trace_id is not None:
            payload["trace_id"] = self.trace_id
            payload["span_id"] = self.span_id
            payload["parent_id"] = self.parent_id
        return payload

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, duration_s={self.duration_s:.6f}, "
            f"children={len(self.children)}, status={self.status!r})"
        )


class _NullSpanContext:
    """Shared no-op context manager returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_CONTEXT = _NullSpanContext()


class _SpanContext:
    """Live span context: pushes on enter, records and pops on exit."""

    __slots__ = ("span_obj", "_state")

    def __init__(self, name: str, attributes: Dict[str, object]) -> None:
        self.span_obj = Span(name, attributes)
        self._state: Optional[TraceContext] = None

    def __enter__(self) -> Span:
        state = _ensure_context()
        self._state = state
        current = self.span_obj
        current.trace_id = state.trace_id
        current.span_id = _new_span_id()
        current.parent_id = (
            state.stack[-1].span_id if state.stack else state.span_id
        )
        current.start = perf_counter()
        state.stack.append(current)
        return current

    def __exit__(self, exc_type, exc, tb) -> bool:
        current = self.span_obj
        end = perf_counter()
        current.duration_s = end - current.start
        if exc_type is not None:
            current.status = "error"
            current.error_type = exc_type.__name__
        state = self._state if self._state is not None else _ensure_context()
        stack = state.stack
        # Exception-safety: spans abandoned above this one (entered but
        # never exited — a generator that died, a manual __enter__ with no
        # matching exit) are closed here rather than dropped: they keep
        # their partial duration, carry error status and stay in the tree
        # as children of the span below them.
        while stack and stack[-1] is not current:
            abandoned = stack.pop()
            abandoned.duration_s = end - abandoned.start
            abandoned.status = "error"
            if abandoned.error_type is None:
                abandoned.error_type = (
                    exc_type.__name__ if exc_type is not None else "AbandonedSpan"
                )
            parent = stack[-1] if stack else None
            if parent is not None:
                parent.children.append(abandoned)
            else:
                state.roots.append(abandoned)
        if stack:
            stack.pop()
        if stack:
            stack[-1].children.append(current)
        else:
            state.roots.append(current)
        return False


def enable_tracing(on: bool = True) -> None:
    """Turn span collection on or off process-wide."""
    global _enabled
    _enabled = bool(on)


def tracing_enabled() -> bool:
    """True when spans are currently being collected."""
    return _enabled


def span(name: str, **attributes: object):
    """Open a traced span: ``with span("lp.solve", vertices=n): ...``.

    Returns a context manager; the ``as`` target is the live
    :class:`Span` (or ``None`` while tracing is disabled, which is the
    near-free fast path).
    """
    if not _enabled:
        return _NULL_CONTEXT
    return _SpanContext(name, attributes)


def traced(name_or_fn=None, **attributes: object):
    """Decorator tracing every call of a function as one span.

    Usable bare (``@traced`` — the span is named after the function) or
    with arguments (``@traced("lp.solve", layer="solver")``).  When
    tracing is disabled the wrapper is a single boolean check on top of
    the call.
    """

    def decorate(fn: Callable, span_name: Optional[str] = None) -> Callable:
        label = span_name or fn.__qualname__

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if not _enabled:
                return fn(*args, **kwargs)
            with _SpanContext(label, dict(attributes)):
                return fn(*args, **kwargs)

        return wrapper

    if callable(name_or_fn):
        return decorate(name_or_fn)
    return lambda fn: decorate(fn, name_or_fn)


def get_trace() -> List[Span]:
    """The completed root spans of the current trace context, oldest
    first (empty before any trace activity)."""
    state = _CONTEXT.get()
    return [] if state is None else list(state.roots)


def clear_trace() -> None:
    """Discard the current context's collected spans and open stack."""
    state = _CONTEXT.get()
    if state is not None:
        state.stack.clear()
        state.roots.clear()


def _render_span(s: Span, depth: int, lines: List[str]) -> None:
    attrs = " ".join(f"{k}={v}" for k, v in s.attributes.items())
    if s.status == "ok":
        flag = ""
    else:
        flag = f"  [ERROR {s.error_type}]" if s.error_type else "  [ERROR]"
    lines.append(
        "  " * depth
        + f"{s.name}  {s.duration_s * 1000:.3f} ms"
        + (f"  ({attrs})" if attrs else "")
        + flag
    )
    for child in s.children:
        _render_span(child, depth + 1, lines)


def render_trace(spans: Optional[List[Span]] = None) -> str:
    """Indented text rendering of a span forest.

    Defaults to the current context's collected roots (:func:`get_trace`).
    """
    if spans is None:
        spans = get_trace()
    if not spans:
        return "(no spans recorded)"
    lines: List[str] = []
    for root in spans:
        _render_span(root, 0, lines)
    return "\n".join(lines)
