"""Phase-1 semantic summaries: locks, guarded state, determinism, schemas.

For every module this computes a :class:`ModuleLockSummary` holding the
raw material the semantic rules (LCK001/LCK002/DET001/SCH001) judge in
phase 2:

* **locks** — ``threading.Lock``/``RLock`` objects assigned at module
  level or as instance attributes in ``__init__``;
* **guarded-variable candidates** — module-global mutable containers and
  state-object attributes that look like shared state;
* **accesses** — every read/write of a candidate, annotated with the
  locks lexically held at that point;
* **acquire sites** — every ``with <lock>:`` entry, with the locks
  already held when it runs (LCK002's raw material);
* **nondeterminism sources** — calls into global-PRNG, unseeded-RNG or
  wall-clock APIs (DET001's raw material);
* **schema mentions** — ``repro.obs/<family>/v<N>`` version literals
  (SCH001's raw material).

Lock and variable identity is the tuple ``(module, owner, name)``:
``owner`` is empty for module globals, a module-level instance name when
the class has exactly one such instance (``_STATE``), or ``<ClassName>``
otherwise.  The unification with a unique instance is what lets ``with
_STATE.lock:`` at module scope and ``with self.lock:`` inside the class
agree on one identity.

Association between a variable and its guarding lock comes from an
explicit ``# repro: lock(<name>)`` comment on the variable's assignment
(which always wins) or is inferred when the clear majority of the
variable's access sites already hold one particular lock.  Unassociated
candidates produce no findings — discovery is deliberately greedy
because association is conservative.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.lint.callgraph import (
    _FUNC_NODES,
    MUTABLE_CTORS,
    SYNC_CTORS,
    ModuleSymbols,
    _dotted_name,
)

__all__ = [
    "LockId",
    "LockInfo",
    "GuardedVar",
    "Access",
    "AcquireSite",
    "NondetSource",
    "SchemaMention",
    "ModuleLockSummary",
    "summarize_module",
]

#: ``(module, owner, name)`` — identity of a lock or a guarded variable.
LockId = Tuple[str, str, str]

_LOCK_ANNOT_RE = re.compile(r"#\s*repro:\s*lock\((?P<ref>[^)]*)\)")

#: Enclosing-function names whose accesses are construction-time and
#: exempt from guarding (an object under construction is not yet shared).
_EXEMPT_FUNCS = frozenset({"__init__", "__new__", "__post_init__"})

#: ``random.<fn>`` names that touch the module-global PRNG (shared with
#: RNG001; DET001 adds wall-clock sources on top).
from repro.lint.rules import _GLOBAL_RANDOM_FNS, _NUMPY_SAFE, _SEEDABLE_CLASSES

#: Dotted call targets that read the wall clock (nondeterministic output).
_WALLCLOCK_CALLS = frozenset({
    "time.time", "time.time_ns",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "date.today", "datetime.date.today",
    "uuid.uuid1", "uuid.uuid4",
    "os.urandom",
})

#: Mutable *literal* nodes (``{}``, ``[]``, comprehensions...).
_MUTABLE_LITERALS = (ast.Dict, ast.List, ast.Set,
                     ast.DictComp, ast.ListComp, ast.SetComp)

_SCHEMA_FULL_RE = re.compile(
    r"repro\.obs/(?P<family>[A-Za-z][\w-]*)/v(?P<ver>\d+)")
_SCHEMA_BARE_RE = re.compile(
    r"(?<![\w/.])(?P<family>[A-Za-z][\w-]*)/v(?P<ver>\d+)\b")


@dataclass(frozen=True)
class LockInfo:
    """One discovered lock object."""

    lock: LockId
    kind: str  #: ``"lock"`` or ``"rlock"``
    lineno: int

    @property
    def reentrant(self) -> bool:
        return self.kind == "rlock"

    @property
    def display(self) -> str:
        return _display(self.lock)


@dataclass
class GuardedVar:
    """A shared-state candidate, possibly associated with a lock."""

    var: LockId
    lineno: int
    annotation: Optional[str] = None  #: raw reference from a lock comment
    lock: Optional[LockId] = None  #: resolved guarding lock (after finish)
    inferred: bool = False  #: association came from usage, not annotation

    @property
    def display(self) -> str:
        return _display(self.var)


@dataclass
class Access:
    """One read or write of a guarded-variable candidate."""

    var: LockId
    lineno: int
    col: int
    is_write: bool
    held: FrozenSet[LockId]  #: locks lexically held at the access
    func: Optional[str]  #: enclosing function key, None at module level
    exempt: bool  #: construction-time (module level / ``__init__``)
    #: ``held`` plus the enclosing function's must-hold set (after finish)
    held_effective: FrozenSet[LockId] = frozenset()


@dataclass(frozen=True)
class AcquireSite:
    """One ``with <lock>:`` entry."""

    lock: LockId
    lineno: int
    func: str  #: function key, or ``module:<module>`` at top level
    held_before: FrozenSet[LockId]


@dataclass(frozen=True)
class NondetSource:
    """One call that makes output depend on hidden global state."""

    func: str  #: function key, or ``module:<module>`` at top level
    lineno: int
    reason: str


@dataclass(frozen=True)
class SchemaMention:
    """One ``<family>/v<N>`` schema-version literal in the source."""

    family: str
    version: int
    lineno: int
    full: bool  #: carried the ``repro.obs/`` prefix


def _display(ident: LockId) -> str:
    _, owner, name = ident
    if not owner:
        return name
    if owner.startswith("<"):
        return f"{owner.strip('<>')}.{name}"
    return f"{owner}.{name}"


@dataclass
class ModuleLockSummary:
    """Everything the semantic rules know about one module's shared state."""

    module: str
    relpath: str
    locks: Dict[LockId, LockInfo] = field(default_factory=dict)
    variables: Dict[LockId, GuardedVar] = field(default_factory=dict)
    accesses: List[Access] = field(default_factory=list)
    acquires: List[AcquireSite] = field(default_factory=list)
    nondet: List[NondetSource] = field(default_factory=list)
    schemas: List[SchemaMention] = field(default_factory=list)
    #: (lineno, message) — e.g. an annotation naming an unknown lock
    problems: List[Tuple[int, str]] = field(default_factory=list)
    #: class name -> canonical owner id component
    owner_of_class: Dict[str, str] = field(default_factory=dict)

    # -- queries used by callgraph + rules --------------------------------

    def lock_of_expr(self, expr: ast.AST,
                     enclosing_class: Optional[str]) -> Optional[LockId]:
        """The lock id a ``with``-item expression acquires, if known."""
        if isinstance(expr, ast.Name):
            lid = (self.module, "", expr.id)
            return lid if lid in self.locks else None
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
            owner = expr.value.id
            if owner == "self" and enclosing_class:
                owner = self.owner_of_class.get(enclosing_class,
                                                f"<{enclosing_class}>")
            lid = (self.module, owner, expr.attr)
            return lid if lid in self.locks else None
        return None

    def guarded_vars(self) -> Iterator[GuardedVar]:
        """Candidates that resolved to a guarding lock."""
        for var in self.variables.values():
            if var.lock is not None:
                yield var

    def finish(self, index) -> None:
        """Resolve lock associations once the project index exists.

        Runs after must-hold propagation: each access's effective held
        set is its lexical locks plus whatever its enclosing function
        provably inherits from every call site.
        """
        must_hold = index.must_hold
        for acc in self.accesses:
            inherited = must_hold.get(acc.func, frozenset()) if acc.func \
                else frozenset()
            acc.held_effective = acc.held | inherited

        by_var: Dict[LockId, List[Access]] = {}
        for acc in self.accesses:
            by_var.setdefault(acc.var, []).append(acc)

        for var in self.variables.values():
            if var.annotation is not None:
                resolved = self._resolve_lock_ref(var.annotation, var.var[1])
                if resolved is None:
                    self.problems.append((
                        var.lineno,
                        f"`# repro: lock({var.annotation})` on "
                        f"`{var.display}` names no known lock in this module",
                    ))
                else:
                    var.lock = resolved
                continue
            # Inference: associate when a clear majority of live (non-
            # construction) access sites already hold one particular lock.
            live = [a for a in by_var.get(var.var, ()) if not a.exempt]
            if len(live) < 2:
                continue
            counts: Dict[LockId, int] = {}
            for acc in live:
                for lock in acc.held_effective:
                    counts[lock] = counts.get(lock, 0) + 1
            if not counts:
                continue
            best = max(sorted(counts), key=lambda lock: counts[lock])
            guarded = counts[best]
            if guarded >= 2 and guarded * 2 > len(live):
                var.lock = best
                var.inferred = True

    def _resolve_lock_ref(self, ref: str, owner: str) -> Optional[LockId]:
        ref = ref.strip()
        if "." in ref:
            ref_owner, _, attr = ref.partition(".")
            lid = (self.module, ref_owner.strip(), attr.strip())
            return lid if lid in self.locks else None
        if owner:
            lid = (self.module, owner, ref)
            if lid in self.locks:
                return lid
        lid = (self.module, "", ref)
        if lid in self.locks:
            return lid
        matches = [l for l in self.locks if l[2] == ref]
        if len(matches) == 1:
            return matches[0]
        return None


# --------------------------------------------------------------------------
# discovery
# --------------------------------------------------------------------------


def _annotation_map(source: str, lines: List[str]) -> Dict[int, str]:
    """lineno -> ``# repro: lock(...)`` reference, from the token stream."""
    table: Dict[int, str] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [(t.start[0], t.string) for t in tokens
                    if t.type == tokenize.COMMENT]
    except (tokenize.TokenError, IndentationError, StopIteration):
        comments = [(i + 1, line) for i, line in enumerate(lines)
                    if "#" in line]
    for lineno, text in comments:
        m = _LOCK_ANNOT_RE.search(text)
        if m:
            table[lineno] = m.group("ref")
    return table


def _ctor_name(value: ast.AST) -> Optional[str]:
    """Last segment of the constructor a ``Call`` value invokes."""
    if isinstance(value, ast.Call):
        dotted = _dotted_name(value.func)
        if dotted:
            return dotted.rsplit(".", 1)[-1]
    return None


def _is_mutable_value(value: ast.AST) -> bool:
    if isinstance(value, _MUTABLE_LITERALS):
        return True
    return _ctor_name(value) in MUTABLE_CTORS


def _lock_kind(value: ast.AST) -> Optional[str]:
    ctor = _ctor_name(value)
    if ctor == "Lock":
        return "lock"
    if ctor == "RLock":
        return "rlock"
    return None


def _owner_map(symbols: ModuleSymbols) -> Dict[str, str]:
    """class name -> owner id component (unique instance name or ``<C>``)."""
    owners: Dict[str, str] = {}
    for cls in symbols.classes:
        instances = [name for name, ctor in symbols.instances.items()
                     if ctor == cls or ctor.endswith(f".{cls}")]
        owners[cls] = instances[0] if len(instances) == 1 else f"<{cls}>"
    return owners


def _annot_for(stmt: ast.stmt, annots: Dict[int, str]) -> Optional[str]:
    end = getattr(stmt, "end_lineno", stmt.lineno) or stmt.lineno
    for lineno in range(stmt.lineno, end + 1):
        if lineno in annots:
            return annots[lineno]
    return None


def _assign_targets(stmt: ast.stmt) -> List[ast.expr]:
    if isinstance(stmt, ast.Assign):
        return list(stmt.targets)
    if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        return [stmt.target]
    return []


class _Discovery:
    """Phase A: find locks, candidates and their annotations."""

    def __init__(self, summary: ModuleLockSummary, symbols: ModuleSymbols,
                 tree: ast.Module, annots: Dict[int, str]) -> None:
        self.summary = summary
        self.symbols = symbols
        self.tree = tree
        self.annots = annots

    def run(self) -> None:
        self._module_level()
        for cls in self.symbols.classes:
            self._class_level(cls)
        self._global_rebinds()

    def _add_lock(self, lid: LockId, kind: str, lineno: int) -> None:
        self.summary.locks.setdefault(lid, LockInfo(lid, kind, lineno))

    def _add_var(self, vid: LockId, lineno: int,
                 annotation: Optional[str]) -> None:
        existing = self.summary.variables.get(vid)
        if existing is not None:
            if annotation is not None and existing.annotation is None:
                existing.annotation = annotation
            return
        self.summary.variables[vid] = GuardedVar(vid, lineno,
                                                 annotation=annotation)

    def _module_level(self) -> None:
        module = self.summary.module
        for stmt in self.tree.body:
            targets = _assign_targets(stmt)
            value = getattr(stmt, "value", None)
            if not targets or value is None:
                continue
            annot = _annot_for(stmt, self.annots)
            kind = _lock_kind(value)
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                name = target.id
                if name.startswith("__"):
                    continue
                if kind is not None:
                    self._add_lock((module, "", name), kind, stmt.lineno)
                elif _ctor_name(value) in SYNC_CTORS:
                    continue
                elif name in self.symbols.instances:
                    # A state *object*: its attributes are the candidates.
                    continue
                elif _is_mutable_value(value) or annot is not None:
                    self._add_var((module, "", name), stmt.lineno, annot)

    def _class_level(self, cls: str) -> None:
        module = self.summary.module
        owner = self.summary.owner_of_class[cls]
        class_node = self._class_node(cls)
        if class_node is None:
            return
        # Attributes rebound outside __init__ (scalars count as shared
        # state only when some method actually flips them later).
        rebound = self._rebound_attrs(cls)
        for stmt in class_node.body:
            for target in _assign_targets(stmt):
                if isinstance(target, ast.Name):
                    self._attr_stmt(stmt, owner, target.id,
                                    rebound, in_init=False)
        init = self.symbols.functions.get(f"{cls}.__init__")
        if init is None:
            return
        for stmt in ast.walk(init.node):
            for target in _assign_targets(stmt):
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    self._attr_stmt(stmt, owner, target.attr,
                                    rebound, in_init=True)

    def _attr_stmt(self, stmt: ast.stmt, owner: str, attr: str,
                   rebound: Set[str], in_init: bool) -> None:
        if attr.startswith("__"):
            return
        module = self.summary.module
        value = getattr(stmt, "value", None)
        if value is None:
            return
        annot = _annot_for(stmt, self.annots)
        kind = _lock_kind(value)
        if kind is not None:
            self._add_lock((module, owner, attr), kind, stmt.lineno)
        elif _ctor_name(value) in SYNC_CTORS:
            return
        elif _is_mutable_value(value) or annot is not None \
                or (in_init and attr in rebound):
            self._add_var((module, owner, attr), stmt.lineno, annot)

    def _class_node(self, cls: str) -> Optional[ast.ClassDef]:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.ClassDef) and node.name == cls:
                return node
        return None

    def _rebound_attrs(self, cls: str) -> Set[str]:
        """Attrs of ``cls`` stored outside ``__init__``.

        Covers both ``self.X = ...`` in other methods and
        ``_STATE.X = ...`` through a module-level instance anywhere in
        the module — the usual shape for enable/disable scalar flags.
        """
        rebound: Set[str] = set()
        for qualname, info in self.symbols.functions.items():
            if info.cls != cls or info.name == "__init__":
                continue
            for node in ast.walk(info.node):
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, (ast.Store, ast.Del))
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "self"):
                    rebound.add(node.attr)
        instances = {name for name, ctor in self.symbols.instances.items()
                     if ctor == cls or ctor.endswith(f".{cls}")}
        if instances:
            for node in ast.walk(self.tree):
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, (ast.Store, ast.Del))
                        and isinstance(node.value, ast.Name)
                        and node.value.id in instances):
                    rebound.add(node.attr)
        return rebound

    def _global_rebinds(self) -> None:
        """Module globals functions rebind via ``global NAME``.

        Scalar flags (``_enabled = False`` toggled by an ``enable()``
        function) are shared state even though their initial value is
        immutable.  Instances are excluded — the state *object* is the
        owner of candidates, not a candidate itself.
        """
        module = self.summary.module
        module_names = {
            t.id for stmt in self.tree.body for t in _assign_targets(stmt)
            if isinstance(t, ast.Name)
        }
        for node in ast.walk(self.tree):
            if not isinstance(node, ast.Global):
                continue
            for name in node.names:
                if name in module_names \
                        and name not in self.symbols.instances \
                        and (module, "", name) not in self.summary.locks \
                        and not name.startswith("__"):
                    self._add_var((module, "", name), node.lineno, None)


# --------------------------------------------------------------------------
# access / acquire / nondeterminism walk
# --------------------------------------------------------------------------


def _scope_names(node: ast.AST) -> Tuple[Set[str], Set[str]]:
    """(locally bound names, ``global``-declared names) for one function.

    Does not descend into nested functions/classes/lambdas — those are
    separate scopes.  Over-approximating locals only *hides* accesses
    (the right failure mode: miss, never hallucinate).
    """
    args = node.args
    bound = {a.arg for a in (list(args.posonlyargs) + list(args.args)
                             + list(args.kwonlyargs))}
    if args.vararg:
        bound.add(args.vararg.arg)
    if args.kwarg:
        bound.add(args.kwarg.arg)
    declared: Set[str] = set()

    def walk(children: Iterator[ast.AST]) -> None:
        for child in children:
            if isinstance(child, _FUNC_NODES + (ast.ClassDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Global):
                declared.update(child.names)
            elif isinstance(child, ast.Name) \
                    and isinstance(child.ctx, (ast.Store, ast.Del)):
                bound.add(child.id)
            walk(ast.iter_child_nodes(child))

    walk(iter(node.body))
    return bound - declared, declared


class _SemanticsVisitor(ast.NodeVisitor):
    """Phase B: record accesses, acquire sites and nondet sources."""

    def __init__(self, summary: ModuleLockSummary, symbols: ModuleSymbols,
                 sanctioned_seed_module: bool) -> None:
        self.summary = summary
        self.symbols = symbols
        self.sanctioned = sanctioned_seed_module
        self._stack: List[str] = []
        self._class_stack: List[str] = []
        self._held: List[LockId] = []
        self._scopes: List[Tuple[Set[str], Set[str]]] = []
        self._seed_param_stack: List[bool] = []

    # -- context helpers --------------------------------------------------

    @property
    def _func_key(self) -> Optional[str]:
        if self._stack:
            return f"{self.summary.module}:{'.'.join(self._stack)}"
        return None

    @property
    def _site_key(self) -> str:
        return self._func_key or f"{self.summary.module}:<module>"

    @property
    def _cls(self) -> Optional[str]:
        return self._class_stack[-1] if self._class_stack else None

    @property
    def _exempt(self) -> bool:
        return not self._stack or self._stack[-1] in _EXEMPT_FUNCS

    def _is_module_name(self, name: str) -> bool:
        """True when a bare ``name`` resolves to the module global."""
        for bound, declared in reversed(self._scopes):
            if name in declared:
                return True
            if name in bound:
                return False
        return True

    # -- structure --------------------------------------------------------

    def _visit_func(self, node) -> None:
        self._stack.append(node.name)
        self._scopes.append(_scope_names(node))
        params = {a.arg for a in node.args.args + node.args.kwonlyargs}
        self._seed_param_stack.append("seed" in params)
        held, self._held = self._held, []
        self.generic_visit(node)
        self._held = held
        self._seed_param_stack.pop()
        self._scopes.pop()
        self._stack.pop()

    visit_FunctionDef = _visit_func
    visit_AsyncFunctionDef = _visit_func

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._stack.append(node.name)
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()
        self._stack.pop()

    def visit_With(self, node) -> None:
        # Items enter left to right, so each later item is evaluated
        # under the locks the earlier ones took: ``with self._lock,
        # self._conn:`` reads ``_conn`` holding ``_lock``.
        depth = len(self._held)
        for item in node.items:
            lock = self.summary.lock_of_expr(item.context_expr, self._cls)
            if lock is not None:
                self.summary.acquires.append(AcquireSite(
                    lock, item.context_expr.lineno, self._site_key,
                    frozenset(self._held)))
            self.visit(item.context_expr)
            if lock is not None:
                self._held.append(lock)
            if item.optional_vars is not None:
                self.visit(item.optional_vars)
        for stmt in node.body:
            self.visit(stmt)
        del self._held[depth:]

    visit_AsyncWith = visit_With

    # -- accesses ---------------------------------------------------------

    def _record(self, var: LockId, node: ast.AST, is_write: bool) -> None:
        self.summary.accesses.append(Access(
            var=var, lineno=node.lineno, col=node.col_offset,
            is_write=is_write, held=frozenset(self._held),
            func=self._func_key, exempt=self._exempt))

    def visit_Name(self, node: ast.Name) -> None:
        var = (self.summary.module, "", node.id)
        if var in self.summary.variables and self._is_module_name(node.id):
            self._record(var, node,
                         isinstance(node.ctx, (ast.Store, ast.Del)))

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.value, ast.Name):
            owner = node.value.id
            if owner == "self" and self._cls:
                owner = self.summary.owner_of_class.get(self._cls,
                                                        f"<{self._cls}>")
            var = (self.summary.module, owner, node.attr)
            if var in self.summary.variables:
                self._record(var, node,
                             isinstance(node.ctx, (ast.Store, ast.Del)))
        self.generic_visit(node)

    # -- nondeterminism ---------------------------------------------------

    def _seed_sanctioned(self) -> bool:
        return self.sanctioned and bool(self._seed_param_stack) \
            and self._seed_param_stack[-1]

    def _nondet(self, node: ast.AST, reason: str) -> None:
        self.summary.nondet.append(
            NondetSource(self._site_key, node.lineno, reason))

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        dotted = _dotted_name(func)
        if dotted is not None:
            head, _, rest = dotted.partition(".")
            resolved = self.symbols.imports.get(head)
            if resolved and resolved != head:
                dotted = resolved + (f".{rest}" if rest else "")
            self._classify_call(node, dotted)
        self.generic_visit(node)

    def _classify_call(self, node: ast.Call, dotted: str) -> None:
        parts = dotted.split(".")
        tail = parts[-1]
        if dotted in _WALLCLOCK_CALLS:
            self._nondet(node, f"`{dotted}()` reads the wall clock / "
                               "OS entropy")
            return
        if parts[0] in ("np", "numpy") and len(parts) >= 3 \
                and parts[1] == "random":
            if tail in _NUMPY_SAFE:
                if tail == "default_rng" and not node.args \
                        and not self._seed_sanctioned():
                    self._nondet(node, "`default_rng()` without a seed")
            elif tail in _SEEDABLE_CLASSES:
                if not node.args and not self._seed_sanctioned():
                    self._nondet(node, f"`numpy.random.{tail}()` without "
                                       "a seed")
            else:
                self._nondet(node, f"numpy global-state "
                                   f"`numpy.random.{tail}()`")
            return
        if parts[0] == "random" and len(parts) == 2:
            if tail in _GLOBAL_RANDOM_FNS:
                self._nondet(node, f"global-state `random.{tail}()`")
            elif tail in _SEEDABLE_CLASSES and not node.args \
                    and not self._seed_sanctioned():
                self._nondet(node, f"`random.{tail}()` without a seed")
            return
        if len(parts) == 1 and tail in _SEEDABLE_CLASSES and not node.args \
                and self.symbols.imports.get(tail, "").startswith("random.") \
                and not self._seed_sanctioned():
            self._nondet(node, f"`{tail}()` without a seed")


# --------------------------------------------------------------------------
# schema literals
# --------------------------------------------------------------------------


def scan_schema_mentions(source: str) -> List[SchemaMention]:
    """Every ``<family>/v<N>`` literal in ``source`` with its line."""
    mentions: List[SchemaMention] = []
    for lineno, line in enumerate(source.splitlines(), start=1):
        spans: List[Tuple[int, int]] = []
        for m in _SCHEMA_FULL_RE.finditer(line):
            mentions.append(SchemaMention(
                m.group("family"), int(m.group("ver")), lineno, full=True))
            spans.append(m.span())
        for m in _SCHEMA_BARE_RE.finditer(line):
            if any(s <= m.start("family") < e for s, e in spans):
                continue
            mentions.append(SchemaMention(
                m.group("family"), int(m.group("ver")), lineno, full=False))
    return mentions


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------


def summarize_module(symbols: ModuleSymbols, ctx) -> ModuleLockSummary:
    """Build the lock/determinism/schema summary for one parsed module.

    ``ctx`` is the engine's :class:`repro.lint.engine.FileContext` — only
    ``source``, ``lines``, ``module`` and ``lint_config`` are used, so
    tests may pass any duck-typed stand-in.
    """
    summary = ModuleLockSummary(module=symbols.module,
                                relpath=symbols.relpath)
    summary.owner_of_class = _owner_map(symbols)

    annots = _annotation_map(ctx.source, ctx.lines)
    _Discovery(summary, symbols, ctx.tree, annots).run()

    config = getattr(ctx, "lint_config", None)
    prefixes = getattr(config, "rng_seeded_entry_prefixes", ()) if config \
        else ()
    sanctioned = any(
        symbols.module.startswith(p) or symbols.module == p.rstrip(".")
        for p in prefixes
    )
    _SemanticsVisitor(summary, symbols, sanctioned).visit(ctx.tree)

    summary.schemas = scan_schema_mentions(ctx.source)
    return summary
