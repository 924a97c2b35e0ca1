"""Phase-1 project index: symbol tables and the import-resolved call graph.

Lint v2 analyzes the repository as a *program*, not a bag of files.  This
module builds the machinery phase 2's semantic rules run against:

* :class:`ModuleSymbols` — one module's functions/classes/imports and the
  module-level instances of its classes (``_STATE = _BusState()``);
* :class:`CallGraph` — edges between fully-qualified function keys
  (``repro.obs.events:_publish``), resolved through ``import`` /
  ``from-import`` aliases, ``self`` receivers and module-level instances;
* :class:`ProjectIndex` — the whole phase-1 product: parsed file
  contexts, symbols, the call graph and the per-module lock summaries
  computed by :mod:`repro.lint.semantics`.

Resolution is deliberately *under*-approximate: a call the resolver
cannot attribute (duck-typed receivers, higher-order dispatch) simply
adds no edge.  Semantic rules therefore miss rather than hallucinate —
the right failure mode for a CI gate.  One conservative exception: a
function *definition* nested inside another function gets an implicit
edge from its enclosing function, since closures are usually invoked by
the code that creates them.

Everything here is stdlib-only and single-pass per file; the index for
this repository (~170 modules) builds in well under a second.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

__all__ = [
    "FunctionInfo",
    "ModuleSymbols",
    "CallSite",
    "CallGraph",
    "ProjectIndex",
    "build_symbols",
    "build_callgraph",
]

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)

#: Mutable container constructors recognised when classifying state.
MUTABLE_CTORS = frozenset({
    "dict", "list", "set", "OrderedDict", "defaultdict", "deque",
    "Counter", "ChainMap", "bytearray",
})

#: Synchronisation primitives — never themselves "guarded state".
SYNC_CTORS = frozenset({
    "Lock", "RLock", "Event", "Condition", "Semaphore", "BoundedSemaphore",
    "Barrier", "local",
})


@dataclass
class FunctionInfo:
    """One function or method definition in the project."""

    module: str
    qualname: str  #: ``f``, ``Cls.meth`` or ``outer.inner``
    node: ast.AST
    relpath: str
    lineno: int
    params: Tuple[str, ...]
    cls: Optional[str] = None  #: enclosing class name, if a method
    is_public: bool = False  #: listed in the module's ``__all__``
    escapes: bool = False  #: referenced as a value (callback, decorator arg)

    @property
    def key(self) -> str:
        """The global call-graph key, ``module:qualname``."""
        return f"{self.module}:{self.qualname}"

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]


@dataclass
class ModuleSymbols:
    """Everything the resolver knows about one module's namespace."""

    module: str
    relpath: str
    #: qualname -> FunctionInfo (methods keyed ``Cls.meth``)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: class name -> its method qualnames
    classes: Dict[str, List[str]] = field(default_factory=dict)
    #: local binding -> dotted target (``_metrics`` -> ``repro.obs.metrics``)
    imports: Dict[str, str] = field(default_factory=dict)
    #: module-level ``NAME = ClassName(...)`` -> class name (local or dotted)
    instances: Dict[str, str] = field(default_factory=dict)
    #: names exported via a literal ``__all__`` (FileContext.exports)
    exports: Tuple[str, ...] = ()


@dataclass(frozen=True)
class CallSite:
    """One resolved call: who calls whom, where, holding which locks."""

    caller: str  #: function key, or ``module:<module>`` for top level
    callee: str  #: function key
    lineno: int
    #: lock ids (see :mod:`repro.lint.semantics`) lexically held here
    held: FrozenSet[Tuple[str, str, str]] = frozenset()


class CallGraph:
    """Directed call graph over function keys, with path reconstruction."""

    def __init__(self) -> None:
        self.edges: Dict[str, Set[str]] = {}
        self.callers: Dict[str, List[CallSite]] = {}
        self.sites: List[CallSite] = []

    def add(self, site: CallSite) -> None:
        self.edges.setdefault(site.caller, set()).add(site.callee)
        self.callers.setdefault(site.callee, []).append(site)
        self.sites.append(site)

    def successors(self, key: str) -> Tuple[str, ...]:
        return tuple(sorted(self.edges.get(key, ())))

    def find_path(self, start: str,
                  target: Callable[[str], bool],
                  skip_start: bool = False) -> Optional[List[str]]:
        """Shortest path (BFS, name-ordered) from ``start`` to a key
        satisfying ``target``; None when unreachable.

        ``skip_start`` exempts ``start`` itself from the target test, for
        "does this call *reach back*" queries.
        """
        if not skip_start and target(start):
            return [start]
        seen = {start}
        queue: deque = deque([(start, [start])])
        while queue:
            node, path = queue.popleft()
            for succ in self.successors(node):
                if succ in seen:
                    continue
                seen.add(succ)
                if target(succ):
                    return path + [succ]
                queue.append((succ, path + [succ]))
        return None


# --------------------------------------------------------------------------
# symbol collection
# --------------------------------------------------------------------------


class _SymbolVisitor(ast.NodeVisitor):
    """Collect functions, classes, imports and module-level instances."""

    def __init__(self, symbols: ModuleSymbols) -> None:
        self.symbols = symbols
        self._stack: List[str] = []  #: qualname parts
        self._class_stack: List[str] = []

    # -- imports ----------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.asname:
                self.symbols.imports[alias.asname] = alias.name
            else:
                head = alias.name.split(".", 1)[0]
                self.symbols.imports.setdefault(head, head)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level or not node.module:
            # Relative imports: resolve against this module's package.
            pkg_parts = self.symbols.module.split(".")
            if node.level:
                if node.level > len(pkg_parts):
                    return
                base_parts = pkg_parts[: len(pkg_parts) - node.level]
                base = ".".join(base_parts)
                if node.module:
                    base = f"{base}.{node.module}" if base else node.module
            else:
                return
        else:
            base = node.module
        for alias in node.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            self.symbols.imports[local] = f"{base}.{alias.name}"

    # -- definitions ------------------------------------------------------

    def _visit_func(self, node) -> None:
        qualname = ".".join(self._stack + [node.name])
        cls = self._class_stack[-1] if self._class_stack else None
        args = node.args
        params = tuple(
            a.arg for a in
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        )
        info = FunctionInfo(
            module=self.symbols.module, qualname=qualname, node=node,
            relpath=self.symbols.relpath, lineno=node.lineno, params=params,
            cls=cls if self._stack and cls == self._stack[-1] else None,
            is_public=node.name in self.symbols.exports,
        )
        self.symbols.functions[qualname] = info
        if info.cls:
            self.symbols.classes.setdefault(info.cls, []).append(qualname)
        self._stack.append(node.name)
        self.generic_visit(node)
        self._stack.pop()

    visit_FunctionDef = _visit_func
    visit_AsyncFunctionDef = _visit_func

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.symbols.classes.setdefault(node.name, [])
        self._stack.append(node.name)
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()
        self._stack.pop()

    def visit_Assign(self, node: ast.Assign) -> None:
        # Module-level `NAME = ClassName(...)` instance tracking.
        if not self._stack and isinstance(node.value, ast.Call):
            ctor = _dotted_name(node.value.func)
            if ctor:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.symbols.instances[target.id] = ctor
        self.generic_visit(node)


def _dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` as a string for Name/Attribute chains, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def build_symbols(module: str, relpath: str, tree: ast.Module,
                  exports: Tuple[str, ...]) -> ModuleSymbols:
    """Collect one module's symbol table (``exports``: its ``__all__``)."""
    symbols = ModuleSymbols(module=module, relpath=relpath, exports=exports)
    _SymbolVisitor(symbols).visit(tree)
    return symbols


# --------------------------------------------------------------------------
# call resolution
# --------------------------------------------------------------------------


class Resolver:
    """Map call expressions onto function keys across the project."""

    def __init__(self, symbols: Mapping[str, ModuleSymbols]) -> None:
        self.symbols = symbols
        self._modules = set(symbols)

    def resolve_dotted(self, dotted: str) -> Optional[str]:
        """``pkg.mod.Cls.meth`` -> ``pkg.mod:Cls.meth`` (longest prefix)."""
        parts = dotted.split(".")
        for i in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:i])
            if module not in self._modules:
                continue
            rest = ".".join(parts[i:])
            return self._in_module(module, rest)
        return None

    def _in_module(self, module: str, qualname: str) -> Optional[str]:
        syms = self.symbols.get(module)
        if syms is None:
            return None
        if qualname in syms.functions:
            return f"{module}:{qualname}"
        if qualname in syms.classes:
            init = f"{qualname}.__init__"
            if init in syms.functions:
                return f"{module}:{init}"
        # `from pkg.mod import name` where pkg.mod re-exports: follow the
        # alias one hop through the target module's own imports.
        target = syms.instances.get(qualname)
        if target:
            return self._in_module(module, f"{target}.__init__".replace(
                "__init__.__init__", "__init__"))
        alias = syms.imports.get(qualname.split(".", 1)[0])
        if alias:
            rest = qualname.split(".", 1)
            dotted = alias if len(rest) == 1 else f"{alias}.{rest[1]}"
            if dotted != f"{module}.{qualname}":
                return self.resolve_dotted(dotted)
        return None

    def resolve_call(self, func: ast.AST, syms: ModuleSymbols,
                     enclosing_class: Optional[str]) -> Optional[str]:
        """The function key a call expression targets, if determinable."""
        if isinstance(func, ast.Name):
            name = func.id
            local = self._in_module(syms.module, name)
            if local:
                return local
            if name in syms.imports:
                return self.resolve_dotted(syms.imports[name])
            return None
        if isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name):
                owner = base.id
                if owner == "self" and enclosing_class:
                    return self._in_module(
                        syms.module, f"{enclosing_class}.{func.attr}")
                if owner == "cls" and enclosing_class:
                    return self._in_module(
                        syms.module, f"{enclosing_class}.{func.attr}")
                if owner in syms.instances:
                    cls = syms.instances[owner]
                    hit = self._in_module(syms.module, f"{cls}.{func.attr}")
                    if hit:
                        return hit
                    if cls in syms.imports or "." in cls:
                        dotted = syms.imports.get(cls, cls)
                        return self.resolve_dotted(f"{dotted}.{func.attr}")
                    return None
            dotted = _dotted_name(func)
            if dotted:
                head, _, rest = dotted.partition(".")
                if head in syms.imports:
                    dotted = syms.imports[head] + ("." + rest if rest else "")
                return self.resolve_dotted(dotted)
        return None


class _CallCollector(ast.NodeVisitor):
    """Walk one module emitting resolved :class:`CallSite` records.

    Tracks the lexical ``with``-lock stack so every call site carries the
    set of lock ids held where it happens (phase-1 raw material for the
    LCK rules); lock-expression matching is delegated to the callable
    passed by :mod:`repro.lint.semantics`.
    """

    def __init__(self, syms: ModuleSymbols, resolver: Resolver,
                 graph: CallGraph,
                 lock_of_expr: Callable[[ast.AST, Optional[str]],
                                        Optional[Tuple[str, str, str]]]) -> None:
        self.syms = syms
        self.resolver = resolver
        self.graph = graph
        self.lock_of_expr = lock_of_expr
        self._stack: List[str] = []
        self._class_stack: List[str] = []
        self._kinds: List[str] = []  #: "func" | "class", parallel to _stack
        self._held: List[Tuple[str, str, str]] = []

    @property
    def _caller(self) -> str:
        if self._stack:
            return f"{self.syms.module}:{'.'.join(self._stack)}"
        return f"{self.syms.module}:<module>"

    @property
    def _cls(self) -> Optional[str]:
        return self._class_stack[-1] if self._class_stack else None

    def _visit_func(self, node) -> None:
        # Conservative closure edge: a *function* very likely invokes
        # (or schedules) a function it defines inline.  A method defined
        # in a class body is not a closure — no edge there.
        if self._stack and self._kinds[-1] == "func":
            inner = f"{self.syms.module}:{'.'.join(self._stack + [node.name])}"
            self.graph.add(CallSite(self._caller, inner, node.lineno,
                                    frozenset(self._held)))
        self._stack.append(node.name)
        self._kinds.append("func")
        held, self._held = self._held, []
        self.generic_visit(node)
        self._held = held
        self._kinds.pop()
        self._stack.pop()

    visit_FunctionDef = _visit_func
    visit_AsyncFunctionDef = _visit_func

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._stack.append(node.name)
        self._kinds.append("class")
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()
        self._kinds.pop()
        self._stack.pop()

    def visit_With(self, node) -> None:
        # A later item's calls run under the locks of the earlier items.
        depth = len(self._held)
        for item in node.items:
            lock = self.lock_of_expr(item.context_expr, self._cls)
            self.visit(item.context_expr)
            if lock is not None:
                self._held.append(lock)
            if item.optional_vars is not None:
                self.visit(item.optional_vars)
        for stmt in node.body:
            self.visit(stmt)
        del self._held[depth:]

    visit_AsyncWith = visit_With

    def visit_Call(self, node: ast.Call) -> None:
        callee = self.resolver.resolve_call(node.func, self.syms, self._cls)
        if callee is not None:
            self.graph.add(CallSite(self._caller, callee, node.lineno,
                                    frozenset(self._held)))
        # Visit children, skipping the call target itself so a *called*
        # function is not mistaken for an escaping value reference.
        func = node.func
        if isinstance(func, ast.Attribute):
            self.visit(func.value)
        elif not isinstance(func, ast.Name):
            self.visit(func)
        for arg in node.args:
            self.visit(arg)
        for kw in node.keywords:
            self.visit(kw.value)

    def visit_Name(self, node: ast.Name) -> None:
        # A bare reference to a local function outside call position means
        # it escapes (callback, decorator argument, table entry).
        info = self.syms.functions.get(node.id)
        if info is not None and isinstance(node.ctx, ast.Load):
            info.escapes = True

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.value, ast.Name):
            owner = node.value.id
            qual = None
            if owner == "self" and self._cls:
                qual = f"{self._cls}.{node.attr}"
            elif owner in self.syms.instances:
                qual = f"{self.syms.instances[owner]}.{node.attr}"
            if qual and qual in self.syms.functions \
                    and isinstance(node.ctx, ast.Load):
                self.syms.functions[qual].escapes = True
        self.generic_visit(node)


def build_callgraph(
    symbols: Mapping[str, ModuleSymbols],
    trees: Mapping[str, ast.Module],
    lock_of_expr: Optional[Callable] = None,
) -> CallGraph:
    """Resolve every call in every module into one :class:`CallGraph`.

    ``lock_of_expr(expr, enclosing_class) -> lock id or None`` annotates
    call sites with the lexically held locks; omit it for a plain graph.
    """
    resolver = Resolver(symbols)
    graph = CallGraph()
    matcher = lock_of_expr or (lambda expr, cls: None)
    for module in sorted(symbols):
        tree = trees.get(module)
        if tree is None:
            continue
        _CallCollector(symbols[module], resolver, graph, matcher).visit(tree)
    return graph


# --------------------------------------------------------------------------
# the phase-1 product
# --------------------------------------------------------------------------


@dataclass
class ProjectIndex:
    """Everything phase 2 knows about the project.

    Built once per run by :meth:`build`; semantic rules receive it via
    :meth:`repro.lint.engine.SemanticRule.analyze`.
    """

    #: relpath -> parsed FileContext
    contexts: Dict[str, object]
    #: dotted module name -> FileContext
    by_module: Dict[str, object]
    #: dotted module name -> symbol table
    symbols: Dict[str, ModuleSymbols]
    graph: CallGraph
    #: dotted module name -> lock summary (see repro.lint.semantics)
    locks: Dict[str, object]
    #: function key -> locks provably held at *every* call site
    must_hold: Dict[str, FrozenSet[Tuple[str, str, str]]]

    def function(self, key: str) -> Optional[FunctionInfo]:
        module, _, qualname = key.partition(":")
        syms = self.symbols.get(module)
        return syms.functions.get(qualname) if syms else None

    def functions(self) -> Iterable[FunctionInfo]:
        for module in sorted(self.symbols):
            syms = self.symbols[module]
            for qualname in sorted(syms.functions):
                yield syms.functions[qualname]

    @classmethod
    def build(cls, contexts: Sequence[object]) -> "ProjectIndex":
        """Assemble the index from parsed :class:`FileContext` objects."""
        from repro.lint import semantics

        ctx_by_path: Dict[str, object] = {}
        by_module: Dict[str, object] = {}
        symbols: Dict[str, ModuleSymbols] = {}
        trees: Dict[str, ast.Module] = {}
        for ctx in contexts:
            ctx_by_path[ctx.relpath] = ctx
            module = ctx.module or f"<file:{ctx.relpath}>"
            by_module[module] = ctx
            symbols[module] = build_symbols(module, ctx.relpath, ctx.tree,
                                            ctx.exports)
            trees[module] = ctx.tree

        locks = {
            module: semantics.summarize_module(symbols[module], by_module[module])
            for module in sorted(symbols)
        }

        def lock_of(module: str):
            summary = locks[module]
            return lambda expr, cls: summary.lock_of_expr(expr, cls)

        resolver = Resolver(symbols)
        graph = CallGraph()
        for module in sorted(symbols):
            collector = _CallCollector(symbols[module], resolver, graph,
                                       lock_of(module))
            collector.visit(trees[module])

        must_hold = _propagate_must_hold(symbols, graph)
        index = cls(contexts=ctx_by_path, by_module=by_module,
                    symbols=symbols, graph=graph, locks=locks,
                    must_hold=must_hold)
        for summary in locks.values():
            summary.finish(index)
        return index


def _propagate_must_hold(
    symbols: Mapping[str, ModuleSymbols],
    graph: CallGraph,
) -> Dict[str, FrozenSet[Tuple[str, str, str]]]:
    """Locks provably held whenever a function runs.

    Intersection dataflow over call sites: a *private*, non-escaping
    function whose every visible call site holds lock ``L`` inherits
    ``L`` (its body counts as guarded for LCK001).  Public or escaping
    functions can be called from anywhere, so they inherit nothing.
    Call sites inside ``__init__`` methods and at module top level are
    construction-time and excluded from the intersection — an object
    being built is not yet shared.
    """
    empty: FrozenSet[Tuple[str, str, str]] = frozenset()
    closed: Dict[str, bool] = {}
    for module in symbols.values():
        for info in module.functions.values():
            private = info.name.startswith("_") and not (
                info.name.startswith("__") and info.name.endswith("__"))
            closed[info.key] = private and not info.escapes
    # ⊤ for closed-world functions, ∅ for open ones; iterate to fixpoint.
    state: Dict[str, Optional[FrozenSet]] = {
        key: (None if is_closed else empty)
        for key, is_closed in closed.items()
    }
    changed = True
    while changed:
        changed = False
        for key in sorted(state):
            if not closed.get(key):
                continue
            meet: Optional[FrozenSet] = None
            for site in graph.callers.get(key, ()):
                caller = site.caller
                if caller.endswith(":<module>"):
                    continue  # construction / import time
                caller_qual = caller.partition(":")[2]
                if caller_qual.rsplit(".", 1)[-1] == "__init__":
                    continue
                inherited = state.get(caller, empty)
                if inherited is None:
                    continue  # caller still ⊤: no constraint yet
                here = site.held | inherited
                meet = here if meet is None else (meet & here)
            new = meet if meet is not None else state[key]
            if new is not None and new != state[key]:
                state[key] = new
                changed = True
    return {key: (value if value is not None else empty)
            for key, value in state.items()}
