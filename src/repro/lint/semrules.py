"""Semantic rules over the phase-1 project index: LCK/DET/EXC/SCH.

These rules judge the whole program — the call graph, the lock-context
dataflow and the schema literals collected by
:mod:`repro.lint.callgraph` / :mod:`repro.lint.semantics` — rather than
one file's syntax:

* **LCK001** — a lock-associated shared variable is read or written
  without its guarding lock held;
* **LCK002** — a non-reentrant lock is (directly or transitively)
  re-acquired while already held: a guaranteed self-deadlock;
* **DET001** — a public solver/fuzz entry point can reach unseeded RNG
  or wall-clock reads through the call graph;
* **EXC001** — instrumentation whose cleanup an exception can skip
  (discarded span/timer context managers, enable/release pairs without
  ``try/finally``);
* **SCH001** — ``repro.obs/<family>/v<N>`` schema-version literals
  disagree between writers, readers, tools and docs.

EXC001 is syntactic in mechanism but lives here because it polices the
same instrumentation layer the lock rules protect.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.lint.engine import (
    FileContext,
    LintConfig,
    Rule,
    SemanticRule,
    register,
)
from repro.lint.findings import Finding, Severity
from repro.lint.semantics import LockId, ModuleLockSummary, scan_schema_mentions

__all__ = [
    "LockDiscipline",
    "LockSelfDeadlock",
    "DeterminismReachability",
    "InstrumentationCleanup",
    "SchemaVersionDrift",
]


def _module_matches(module: str, prefixes: Tuple[str, ...]) -> bool:
    return any(
        module.startswith(p) if p.endswith(".") else module == p
        for p in prefixes
    )


def _held_at(index, site) -> FrozenSet[LockId]:
    """Locks held at a call site: lexical plus the caller's must-hold."""
    return site.held | index.must_hold.get(site.caller, frozenset())


def _relpath_of(index, func_key: str) -> Optional[str]:
    module = func_key.partition(":")[0]
    syms = index.symbols.get(module)
    return syms.relpath if syms else None


def _fmt_path(path: List[str]) -> str:
    return " -> ".join(key.partition(":")[2] or key for key in path)


# --------------------------------------------------------------------------
# LCK001 — guarded state touched without its lock
# --------------------------------------------------------------------------


@register
class LockDiscipline(SemanticRule):
    """LCK001: lock-associated shared state only moves under its lock.

    A variable becomes *lock-associated* through an explicit
    ``# repro: lock(<name>)`` comment on its assignment, or by inference
    when the clear majority of its access sites already hold one
    particular lock.  Every other read/write of it must then hold that
    lock — lexically (inside ``with <lock>:``) or inherited, because
    every call site of the (private, non-escaping) enclosing function
    provably holds it.  Construction-time accesses (module level,
    ``__init__``) are exempt; deliberate benign races take a
    ``# repro: noqa[LCK001]`` with a justification.
    """

    id = "LCK001"
    name = "lock-discipline"
    description = ("reads/writes of lock-associated shared state must "
                   "hold the guarding lock")
    severity = Severity.ERROR

    def analyze(self, index, config: LintConfig) -> Iterator[Finding]:
        for module in sorted(index.locks):
            summary: ModuleLockSummary = index.locks[module]
            for lineno, message in summary.problems:
                yield self.finding(summary.relpath, lineno, message)
            guards = {var.var: var for var in summary.guarded_vars()}
            if not guards:
                continue
            for acc in summary.accesses:
                var = guards.get(acc.var)
                if var is None or acc.exempt:
                    continue
                if var.lock in acc.held_effective:
                    continue
                how = "inferred from usage" if var.inferred \
                    else "annotated with `# repro: lock(...)`"
                action = "write to" if acc.is_write else "read of"
                lock_disp = summary.locks[var.lock].display \
                    if var.lock in summary.locks else var.lock[2]
                yield self.finding(
                    summary.relpath, acc.lineno,
                    f"{action} `{var.display}` without holding "
                    f"`{lock_disp}` ({how}); wrap the access in "
                    f"`with {lock_disp}:` or noqa a deliberate benign race",
                    col=acc.col)


# --------------------------------------------------------------------------
# LCK002 — self-deadlock on a non-reentrant lock
# --------------------------------------------------------------------------


@register
class LockSelfDeadlock(SemanticRule):
    """LCK002: never re-acquire a held non-reentrant ``threading.Lock``.

    Flags a ``with <lock>:`` that runs while the same lock is already
    held — either lexically nested, or because a call made under the
    lock transitively reaches a function that acquires it again.  A
    plain ``threading.Lock`` is not reentrant, so this is a guaranteed
    deadlock of the calling thread, the kind of bug that only fires
    under production concurrency.  ``RLock`` acquisitions are exempt.
    """

    id = "LCK002"
    name = "lock-self-deadlock"
    description = ("a non-reentrant lock must not be re-acquired while "
                   "already held (self-deadlock)")
    severity = Severity.ERROR

    def analyze(self, index, config: LintConfig) -> Iterator[Finding]:
        # lock -> functions that lexically acquire it.
        acquirers: Dict[LockId, Set[str]] = {}
        reentrant: Set[LockId] = set()
        for summary in index.locks.values():
            for info in summary.locks.values():
                if info.reentrant:
                    reentrant.add(info.lock)
            for site in summary.acquires:
                acquirers.setdefault(site.lock, set()).add(site.func)

        # Direct lexical nesting.
        for module in sorted(index.locks):
            summary = index.locks[module]
            for site in summary.acquires:
                if site.lock in reentrant:
                    continue
                held = site.held_before | \
                    index.must_hold.get(site.func, frozenset())
                if site.lock in held:
                    disp = summary.locks[site.lock].display \
                        if site.lock in summary.locks else site.lock[2]
                    yield self.finding(
                        summary.relpath, site.lineno,
                        f"`with {disp}:` while `{disp}` is already held "
                        "— threading.Lock is not reentrant, this "
                        "deadlocks the calling thread")

        # Transitive: a call made under the lock reaches an acquirer.
        seen: Set[Tuple[str, int, LockId]] = set()
        for site in index.graph.sites:
            held = _held_at(index, site)
            if not held:
                continue
            for lock in sorted(held):
                if lock in reentrant:
                    continue
                targets = acquirers.get(lock)
                if not targets:
                    continue
                path = index.graph.find_path(
                    site.callee, lambda key: key in targets)
                if path is None:
                    continue
                relpath = _relpath_of(index, site.caller)
                if relpath is None:
                    continue
                key = (site.caller, site.lineno, lock)
                if key in seen:
                    continue
                seen.add(key)
                yield self.finding(
                    relpath, site.lineno,
                    f"call made while holding `{lock[1] or ''}"
                    f"{'.' if lock[1] else ''}{lock[2]}` reaches "
                    f"`{path[-1].partition(':')[2]}` which re-acquires it "
                    f"({_fmt_path(path)}); threading.Lock is not "
                    "reentrant, this deadlocks")


# --------------------------------------------------------------------------
# DET001 — determinism reachability
# --------------------------------------------------------------------------


@register
class DeterminismReachability(SemanticRule):
    """DET001: no call path from an entry point to hidden nondeterminism.

    RNG001 flags unseeded randomness where it is *written*; DET001 walks
    the call graph so a clean-looking public solver cannot *reach* a
    helper that consults the global PRNG, an unseeded generator or the
    wall clock three modules away.  Sources inside the configured exempt
    prefixes (telemetry timestamps in ``repro.obs``) do not count, and
    sources in the entry point's own body are RNG001's, not ours.
    """

    id = "DET001"
    name = "determinism-reachability"
    description = ("public solver/fuzz entry points must not reach "
                   "unseeded RNG or wall-clock reads")
    severity = Severity.ERROR

    def analyze(self, index, config: LintConfig) -> Iterator[Finding]:
        sources: Dict[str, List] = {}
        for summary in index.locks.values():
            if _module_matches(summary.module, config.det_exempt_prefixes):
                continue
            for src in summary.nondet:
                sources.setdefault(src.func, []).append(src)
        if not sources:
            return
        for info in index.functions():
            if not info.is_public:
                continue
            if not _module_matches(info.module, config.det_entry_prefixes):
                continue
            path = index.graph.find_path(info.key, lambda k: k in sources,
                                         skip_start=True)
            if path is None:
                continue
            src = min(sources[path[-1]], key=lambda s: s.lineno)
            src_rel = _relpath_of(index, src.func) or "?"
            yield self.finding(
                info.relpath, info.lineno,
                f"public entry point `{info.name}` reaches {src.reason} "
                f"at {src_rel}:{src.lineno} via {_fmt_path(path)}; thread "
                "a seeded RNG through the call chain")


# --------------------------------------------------------------------------
# EXC001 — instrumentation cleanup on the exception path
# --------------------------------------------------------------------------


#: context-manager factories whose bare call does nothing by itself.
_CM_FACTORIES = frozenset({"span", "timer"})

#: acquire-call name -> matching release-call name.
_PAIRED_CALLS = {
    "start_sampler": "stop_sampler",
    "subscribe": "unsubscribe",
    "enable_tracing": "enable_tracing",
    "enable_ledger": "disable_ledger",
    "enable_events": "disable_events",
    "enable_cache": "disable_cache",
}


def _call_tail(node: ast.Call) -> Optional[str]:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _is_disable_call(node: ast.Call) -> bool:
    """``enable_*(False)``-style calls count as the release half."""
    if not node.args:
        return False
    arg = node.args[0]
    return isinstance(arg, ast.Constant) and arg.value is False


@register
class InstrumentationCleanup(Rule):
    """EXC001: instrumentation cleanup must survive exceptions.

    Two shapes are flagged.  A ``span(...)``/``timer(...)`` call whose
    result is discarded does nothing — the context manager must be
    entered via ``with``.  And when one function both acquires and
    releases instrumentation state (``start_sampler``/``stop_sampler``,
    ``subscribe``/``unsubscribe``, ``enable_tracing(True)``/``(False)``,
    ``enable_ledger``/``disable_ledger``), the release must sit in a
    ``finally`` block, or any exception between the pair leaks the
    sampler thread, the subscription or the tracing flag for the rest of
    the process.
    """

    id = "EXC001"
    name = "instrumentation-cleanup"
    description = ("span/timer results must be entered via `with`; "
                   "paired enable/release calls need try/finally")
    severity = Severity.WARNING
    node_types = (ast.Call,)

    def __init__(self) -> None:
        self._calls: List[Tuple[ast.Call, str]] = []

    def start_file(self, ctx: FileContext) -> None:
        self._calls = []

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        if not isinstance(node, ast.Call):
            return
        tail = _call_tail(node)
        if tail is None:
            return
        if tail in _CM_FACTORIES and isinstance(ctx.parent(node), ast.Expr):
            yield ctx.finding(
                self, node,
                f"`{tail}(...)` creates a context manager and discards "
                "it — nothing is measured; enter it with "
                f"`with {tail}(...):`",
            )
        if tail in _PAIRED_CALLS or tail in _PAIRED_CALLS.values():
            self._calls.append((node, tail))

    def end_file(self, ctx: FileContext) -> Iterator[Finding]:
        by_func: Dict[Optional[ast.AST], List[Tuple[ast.Call, str]]] = {}
        for node, tail in self._calls:
            by_func.setdefault(ctx.enclosing_function(node), []).append(
                (node, tail))
        for fn, calls in by_func.items():
            if fn is None:
                continue
            yield from self._check_pairs(ctx, calls)

    def _check_pairs(self, ctx: FileContext,
                     calls: List[Tuple[ast.Call, str]]) -> Iterator[Finding]:
        for acquire_name, release_name in _PAIRED_CALLS.items():
            same = acquire_name == release_name
            acquires = [n for n, t in calls if t == acquire_name
                        and not (same and _is_disable_call(n))]
            releases = [n for n, t in calls if t == release_name
                        and (not same or _is_disable_call(n))]
            for release in releases:
                prior = [a for a in acquires if a.lineno < release.lineno]
                if not prior:
                    continue
                if self._in_finally_or_exit(ctx, release):
                    continue
                yield ctx.finding(
                    self, release,
                    f"`{release_name}(...)` pairs with "
                    f"`{acquire_name}(...)` on line {prior[0].lineno} but "
                    "is not in a `finally` block; an exception in between "
                    "leaks the instrumentation state",
                )

    @staticmethod
    def _in_finally_or_exit(ctx: FileContext, node: ast.AST) -> bool:
        cur: Optional[ast.AST] = node
        while cur is not None:
            parent = ctx.parent(cur)
            if isinstance(parent, ast.Try) and cur in parent.finalbody:
                return True
            cur = parent
        return False


# --------------------------------------------------------------------------
# SCH001 — schema-version drift
# --------------------------------------------------------------------------


@register
class SchemaVersionDrift(SemanticRule):
    """SCH001: every file agrees on the current schema version.

    The canonical version of a ``repro.obs/<family>/v<N>`` schema is the
    highest version any scanned file mentions in full form.  Every file
    (code *and* the configured docs) that talks about the family must
    mention that canonical version at least once — a reader, checker or
    document still only naming ``v1`` after the writer moved to ``v2``
    is exactly the drift that silently breaks replay tooling.  Older
    versions may appear alongside the canonical one (migration readers).
    """

    id = "SCH001"
    name = "schema-version-drift"
    description = ("schema-version literals must agree across writers, "
                   "readers, tools and docs")
    severity = Severity.ERROR

    def analyze(self, index, config: LintConfig) -> Iterator[Finding]:
        # file relpath -> mentions
        per_file: Dict[str, List] = {}
        for summary in index.locks.values():
            if summary.schemas:
                per_file[summary.relpath] = list(summary.schemas)
        for doc in self._doc_files(config):
            try:
                rel = doc.resolve().relative_to(config.root).as_posix()
            except ValueError:
                rel = doc.as_posix()
            mentions = scan_schema_mentions(
                doc.read_text(encoding="utf-8"))
            if mentions:
                per_file[rel] = mentions

        canonical: Dict[str, int] = {}
        for mentions in per_file.values():
            for m in mentions:
                if m.full:
                    canonical[m.family] = max(
                        canonical.get(m.family, 0), m.version)

        for rel in sorted(per_file):
            by_family: Dict[str, List] = {}
            for m in per_file[rel]:
                if m.family in canonical:
                    by_family.setdefault(m.family, []).append(m)
            for family in sorted(by_family):
                mentions = by_family[family]
                top = max(mentions, key=lambda m: m.version)
                want = canonical[family]
                if top.version >= want:
                    continue
                yield self.finding(
                    rel, top.lineno,
                    f"schema `{family}` referenced as v{top.version} but "
                    f"the canonical version is v{want} "
                    f"(`repro.obs/{family}/v{want}`); update this "
                    "reference or keep the canonical id alongside the "
                    "legacy one",
                )

    @staticmethod
    def _doc_files(config: LintConfig) -> List[Path]:
        files: List[Path] = []
        for entry in config.schema_docs:
            entry = Path(entry)
            if entry.is_dir():
                files.extend(sorted(entry.glob("*.md")))
            elif entry.is_file():
                files.append(entry)
        return files
