"""Span timing around the program's public callables, from outside it.

:func:`install` replaces each named callable with a timing wrapper in
every ``repro`` module (and in ``scipy.optimize`` for ``linprog``) that
holds a reference to it, so calls through ``from x import f`` bindings
and function-local imports are caught alike.  Each wrapper records, per
op key and layer name, the call count, the inclusive time and the self
time (inclusive time minus the time of wrapped calls nested inside it,
kept on a per-thread stack).  Calls made while the key function returns
``None`` (set-up, answer checks) are not recorded.

The key is the op index for the library workloads and the request's
trace id (``repro.obs.tracing.current_trace_id``) inside the server, so
the benchmark can add up exactly the timed ops afterwards.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: (layer name, module, attribute or ``Class.method``) wrapped for every
#: workload.  Layer names are the prefixes of the per-layer metrics.
LIBRARY_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("double_oracle", "repro.solvers.double_oracle", "double_oracle"),
    ("weighted.double_oracle", "repro.weighted.game",
     "weighted_double_oracle"),
    ("fictitious_play", "repro.solvers.fictitious_play", "fictitious_play"),
    ("lp.minimax", "repro.solvers.lp", "minimax_over_strategies"),
    ("linprog", "scipy.optimize", "linprog"),
    ("best_tuple", "repro.solvers.best_response", "best_tuple"),
    ("kernel.build", "repro.kernels.coverage", "CoverageOracle.__init__"),
    ("kernel.best", "repro.kernels.coverage", "CoverageOracle.best"),
    ("kernel.greedy", "repro.kernels.coverage", "CoverageOracle.greedy"),
)

#: Added inside the server for ``serve-mixed``.
SERVE_TARGETS: Tuple[Tuple[str, str, str], ...] = LIBRARY_TARGETS + (
    ("serve.prepare", "repro.serve.routes", "prepare"),
    ("schemas.parse_request", "repro.serve.schemas", "parse_request"),
    ("cache.game_sha256", "repro.cache.keys", "game_sha256"),
    ("cache.cache_key", "repro.cache.keys", "cache_key"),
    ("cache.probe", "repro.cache.store", "ResultCache.probe"),
    ("cache.store", "repro.cache.store", "ResultCache.store"),
    ("equilibria.solve_game", "repro.equilibria.solve", "solve_game"),
    ("serialize.solve_result_to_json", "repro.core.serialize",
     "solve_result_to_json"),
    ("matching.hopcroft_karp", "repro.matching.hopcroft_karp",
     "hopcroft_karp"),
    ("access.log_request", "repro.obs.access", "log_request"),
)

#: Pseudo-layers recorded by :meth:`Tracer.wrap_submit`.
QUEUE_WAIT = "workers.queue_wait"
WORKER_RUN = "workers.run"

#: Per key: layer -> [calls, inclusive seconds, self seconds].
Table = Dict[object, Dict[str, List[float]]]


class Tracer:
    """Collects per-key, per-layer call counts and times."""

    def __init__(self, key: Callable[[], object]) -> None:
        self.key = key
        self.table: Table = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def add(self, key: object, name: str, total: float, own: float) -> None:
        with self._lock:
            row = self.table.setdefault(key, {}).setdefault(
                name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += total
            row[2] += own

    def wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = tracer.key()
            if key is None:
                return fn(*args, **kwargs)
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            frame = [0.0]  # time spent in wrapped callees
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                tracer.add(key, name, elapsed, elapsed - frame[0])

        return traced

    def wrap_submit(self, submit: Callable) -> Callable:
        """Wrap ``WorkerPool.submit``: time submit-to-start as queue wait
        and the submitted thunk as the ``workers.run`` layer."""
        tracer = self

        @functools.wraps(submit)
        def traced_submit(pool, fn):
            key = tracer.key()
            if key is None:
                return submit(pool, fn)
            submitted = perf_counter()
            run = tracer.wrap(WORKER_RUN, fn)

            def timed():
                wait = perf_counter() - submitted
                tracer.add(key, QUEUE_WAIT, wait, wait)
                return run()

            return submit(pool, timed)

        return traced_submit


def _resolve(module_name: str, attr: str):
    module = importlib.import_module(module_name)
    owner_name, _, method = attr.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    return owner, method or attr


def install(tracer: Tracer, targets) -> List[str]:
    """Wrap every target; return the ones that could not be found.

    A missing target (renamed or deleted by a later change) is reported,
    not fatal: its layer then reads zero.
    """
    missing = []
    for name, module_name, attr in targets:
        try:
            owner, member = _resolve(module_name, attr)
            original = getattr(owner, member)
        except (ImportError, AttributeError):
            missing.append(f"{module_name}.{attr}")
            continue
        if isinstance(owner, type):
            setattr(owner, member, tracer.wrap(name, original))
        else:
            _replace_everywhere(original, tracer.wrap(name, original))
    return missing


def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    for module_name, module in list(sys.modules.items()):
        if module is None or not (
            module_name == "repro" or module_name.startswith("repro.")
            or module_name == "scipy.optimize"
        ):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def merge(tables, keys=None) -> Dict[str, List[float]]:
    """Sum the per-layer rows of ``keys`` (default: all) of a table."""
    merged: Dict[str, List[float]] = {}
    for key, rows in tables.items():
        if keys is not None and key not in keys:
            continue
        for name, (calls, total, own) in rows.items():
            row = merged.setdefault(name, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += total
            row[2] += own
    return merged


def layer(rows: Dict[str, List[float]], name: str,
          field: int = 2) -> float:
    """One field of a merged row (0 calls, 1 inclusive, 2 self)."""
    row: Optional[List[float]] = rows.get(name)
    return 0.0 if row is None else float(row[field])
