"""Cross-file rules: THM001 (theorem tags), LAY001 (layering), API001 (docs).

Each is a :class:`~repro.lint.engine.SemanticRule` that reads the parsed
file contexts the project index carries (``index.contexts``).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Set, Tuple

from repro.lint.engine import FileContext, LintConfig, SemanticRule, register
from repro.lint.findings import Finding, Severity

# --------------------------------------------------------------------------
# THM001 — theorem tags must resolve against docs/theory.md


_KIND_PREFIX = {
    "Theorem": "T",
    "Lemma": "L",
    "Corollary": "C",
    "Claim": "CL",
    "Definition": "D",
}

#: long form: "Theorem 3.1", "Claims 4.2–4.4" (ranges expand).
_LONG_REF = re.compile(
    r"\b(Theorem|Lemma|Corollary|Claim|Definition)s?\s+"
    r"(\d+\.\d+)(?:\s*[–—-]\s*(\d+\.\d+))?"
)

#: short form: "T3.1", "C4.11", "CL3.6", "D4.1", "L4.8".
_SHORT_REF = re.compile(r"\b(CL|[TLCD])(\d+\.\d+)\b")


def _expand(prefix: str, start: str, stop: Optional[str]) -> List[str]:
    """``("CL", "4.2", "4.4") -> ["CL4.2", "CL4.3", "CL4.4"]``."""
    if not stop:
        return [prefix + start]
    s_major, s_minor = start.split(".")
    e_major, e_minor = stop.split(".")
    if s_major != e_major or int(e_minor) < int(s_minor):
        return [prefix + start, prefix + stop]
    return [f"{prefix}{s_major}.{i}"
            for i in range(int(s_minor), int(e_minor) + 1)]


def parse_theory_index(text: str) -> Set[str]:
    """Canonical tags (``T3.1``, ``CL4.2``, ...) cited anywhere in ``text``
    (``theory.md`` or one docstring)."""
    tags: Set[str] = set()
    for kind, start, stop in _LONG_REF.findall(text):
        tags.update(_expand(_KIND_PREFIX[kind], start, stop))
    for prefix, number in _SHORT_REF.findall(text):
        tags.add(prefix + number)
    return tags


def _iter_docstrings(tree: ast.Module) -> Iterator[Tuple[int, str, str]]:
    """Yield ``(lineno, owner, text)`` for module/class/function docstrings."""
    nodes: List[Tuple[str, ast.AST]] = [("module", tree)]
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            nodes.append((node.name, node))
    for owner, node in nodes:
        body = getattr(node, "body", [])
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            yield body[0].value.lineno, owner, body[0].value.value


@register
class TheoremTags(SemanticRule):
    """THM001: every theorem citation resolves; theory modules cite one.

    The theory guide (``docs/theory.md``) is the single source of truth
    for which paper results exist.  A docstring citing a result number
    the guide does not know is a dangling reference (usually a typo,
    occasionally an undocumented result — either way the guide must be
    fixed first).  Conversely, modules in the theory
    packages (``repro.core``, ``repro.equilibria``) must cite at least
    one result in their module docstring, so every implementation points
    back at what it implements.
    """

    id = "THM001"
    name = "theorem-tags"
    description = ("docstring theorem tags must resolve against "
                   "docs/theory.md; theory modules must cite a result")
    severity = Severity.ERROR

    def analyze(self, index, config: LintConfig) -> Iterator[Finding]:
        tags: Optional[Set[str]] = None
        if config.theory_doc and Path(config.theory_doc).is_file():
            tags = parse_theory_index(
                Path(config.theory_doc).read_text(encoding="utf-8"))
        for relpath, ctx in sorted(index.contexts.items()):
            module_cites = False
            for lineno, owner, text in _iter_docstrings(ctx.tree):
                refs = parse_theory_index(text)
                if owner == "module" and refs:
                    module_cites = True
                if tags is None:
                    continue
                for tag in sorted(refs - tags):
                    yield Finding(
                        self.id, self.severity, relpath, lineno, 0,
                        f"docstring of `{owner}` cites {tag}, which "
                        f"does not resolve against "
                        f"{_relname(config, config.theory_doc)}",
                    )
            module = ctx.module
            if module_cites or not module or module.endswith("__init__"):
                continue
            pkg = module.rsplit(".", 1)[0] if "." in module else module
            if pkg in config.theory_packages and "." in module:
                yield Finding(
                    self.id, self.severity, relpath, 1, 0,
                    f"module `{module}` implements theory but its "
                    "docstring cites no paper result (add e.g. "
                    "`Theorem 3.1` or a short tag like `T3.1`)",
                )


def _relname(config: LintConfig, path: Optional[Path]) -> str:
    if path is None:
        return "<theory doc>"
    try:
        return Path(path).resolve().relative_to(config.root).as_posix()
    except ValueError:
        return Path(path).name


# --------------------------------------------------------------------------
# LAY001 — import layering DAG


@register
class ImportLayering(SemanticRule):
    """LAY001: module-level imports respect the package layering DAG.

    The enforced order (bottom to top) is ``obs`` (0, importable from
    everywhere), ``{graphs, matching}``, ``core``, ``equilibria``,
    ``solvers``, ``{simulation, weighted, models}``, ``analysis`` /
    ``lint``, ``cli``, and the root package.  A module-level import may
    only target the same or a lower layer; packages sharing a layer may
    import each other.  Deliberate inversions (e.g. verification helpers
    in ``core`` deferring to ``solvers``) must be function-level lazy
    imports, which this rule intentionally does not see.  The rule also
    rejects module-level import *cycles* regardless of layers.
    """

    id = "LAY001"
    name = "import-layering"
    description = ("module-level imports must follow the layering DAG "
                   "and contain no cycles")
    severity = Severity.ERROR

    @staticmethod
    def _imports(ctx: FileContext) -> List[Tuple[int, str]]:
        """``(lineno, imported dotted module)`` for module-level imports."""
        edges: List[Tuple[int, str]] = []
        for stmt in ast.walk(ctx.tree):
            # Only *top-level* imports define the layering graph; imports
            # inside functions are deliberate lazy deferrals.
            parent = ctx.parent(stmt)
            if not isinstance(parent, (ast.Module,)) and not (
                    isinstance(parent, (ast.Try, ast.If))
                    and isinstance(ctx.parent(parent), ast.Module)):
                continue
            if isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    edges.append((stmt.lineno, alias.name))
            elif isinstance(stmt, ast.ImportFrom) and stmt.level == 0 \
                    and stmt.module:
                edges.append((stmt.lineno, stmt.module))
        return edges

    @staticmethod
    def _layer_of(module: str, layers: Mapping[str, int]) -> Optional[int]:
        """Longest-prefix layer lookup for a dotted module name."""
        parts = module.split(".")
        for i in range(len(parts), 0, -1):
            key = ".".join(parts[:i])
            if key in layers:
                return layers[key]
        return None

    def analyze(self, index, config: LintConfig) -> Iterator[Finding]:
        imports: Dict[str, List[Tuple[int, str]]] = {}
        paths: Dict[str, str] = {}
        for ctx in index.contexts.values():
            if ctx.module:
                imports[ctx.module] = self._imports(ctx)
                paths[ctx.module] = ctx.relpath
        layers = config.layers
        root_pkg = None
        if layers:
            # the shortest key is the root package name ("repro").
            root_pkg = min(layers, key=len)

        # -- layer violations ---------------------------------------------
        for module in sorted(imports):
            my_layer = self._layer_of(module, layers)
            if my_layer is None:
                continue
            for lineno, target in imports[module]:
                if root_pkg and not (target == root_pkg
                                     or target.startswith(root_pkg + ".")):
                    continue  # stdlib / third-party
                # importing inside your own package is always fine
                my_pkg = _package_key(module, layers)
                tgt_pkg = _package_key(target, layers)
                if my_pkg == tgt_pkg:
                    continue
                tgt_layer = self._layer_of(target, layers)
                if tgt_layer is None or tgt_layer <= my_layer:
                    continue
                yield Finding(
                    self.id, self.severity, paths[module], lineno, 0,
                    f"`{module}` (layer {my_layer}) imports `{target}` "
                    f"(layer {tgt_layer}); imports must point down the "
                    "layering DAG — invert the dependency or make it a "
                    "function-level lazy import",
                )

        # -- cycles ----------------------------------------------------------
        graph: Dict[str, Set[str]] = {}
        known = set(imports)
        for module, edges in imports.items():
            targets = set()
            for _, target in edges:
                resolved = self._resolve(target, known)
                if resolved and resolved != module:
                    targets.add(resolved)
            graph[module] = targets
        for cycle in _find_cycles(graph):
            anchor = cycle[0]
            pretty = " -> ".join(cycle + (anchor,))
            yield Finding(
                self.id, self.severity, paths[anchor], 1, 0,
                f"module-level import cycle: {pretty}",
            )

    @staticmethod
    def _resolve(target: str, known: Set[str]) -> Optional[str]:
        """Map an imported dotted name onto a scanned module, if any."""
        parts = target.split(".")
        for i in range(len(parts), 0, -1):
            candidate = ".".join(parts[:i])
            if candidate in known:
                return candidate
        return None


def _package_key(module: str, layers: Mapping[str, int]) -> str:
    """The layer-table key governing ``module`` (longest match)."""
    parts = module.split(".")
    for i in range(len(parts), 0, -1):
        key = ".".join(parts[:i])
        if key in layers:
            return key
    return module


def _find_cycles(graph: Dict[str, Set[str]]) -> List[Tuple[str, ...]]:
    """Elementary cycles via Tarjan SCCs (one finding per SCC > 1 node).

    Self-contained iterative implementation — the engine promises a
    zero-dependency analyzer, so no graphlib/networkx.
    """
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    counter = [0]
    sccs: List[Tuple[str, ...]] = []

    def strongconnect(v: str) -> None:
        work = [(v, iter(sorted(graph.get(v, ()))))]
        index[v] = lowlink[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in graph:
                    continue
                if w not in index:
                    index[w] = lowlink[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(graph.get(w, ())))))
                    advanced = True
                    break
                if w in on_stack:
                    lowlink[node] = min(lowlink[node], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component: List[str] = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    component.append(w)
                    if w == node:
                        break
                if len(component) > 1:
                    component.sort()
                    sccs.append(tuple(component))

    for v in sorted(graph):
        if v not in index:
            strongconnect(v)
    return sorted(sccs)


# --------------------------------------------------------------------------
# API001 — __all__ exports must appear in docs/api.md


_API_SECTION = re.compile(r"^##\s+`([\w.]+)`\s*$")
_API_ENTRY = re.compile(r"^-\s+\*\*`(\w+)`\*\*")


def parse_api_doc(text: str) -> Dict[str, Set[str]]:
    """``docs/api.md`` -> {module: documented export names}."""
    documented: Dict[str, Set[str]] = {}
    current: Optional[str] = None
    for line in text.splitlines():
        section = _API_SECTION.match(line)
        if section:
            current = section.group(1)
            documented.setdefault(current, set())
            continue
        if current:
            entry = _API_ENTRY.match(line)
            if entry:
                documented[current].add(entry.group(1))
    return documented


@register
class UndocumentedExport(SemanticRule):
    """API001: everything in ``__all__`` is listed in ``docs/api.md``.

    The API index is generated (``tools/gen_api_docs.py``), so a missing
    name means the index was not regenerated after an export was added —
    the one drift the generator's import-based ``--check`` cannot catch
    when imports fail or the file was hand-edited.
    """

    id = "API001"
    name = "undocumented-export"
    description = "every __all__ export must appear in docs/api.md"
    severity = Severity.ERROR

    def analyze(self, index, config: LintConfig) -> Iterator[Finding]:
        if not config.api_doc or not Path(config.api_doc).is_file():
            return
        documented = parse_api_doc(
            Path(config.api_doc).read_text(encoding="utf-8"))
        doc_name = _relname(config, config.api_doc)
        for ctx in index.contexts.values():
            module, exports = ctx.module, ctx.exports
            if not module or not exports:
                continue
            relpath, lineno = ctx.relpath, ctx.exports_line
            known = documented.get(module)
            if known is None:
                yield Finding(
                    self.id, self.severity, relpath, lineno, 0,
                    f"module `{module}` exports {len(exports)} names but "
                    f"has no section in {doc_name}; regenerate with "
                    "`make api-docs`",
                )
                continue
            missing = [name for name in exports if name not in known]
            if missing:
                yield Finding(
                    self.id, self.severity, relpath, lineno, 0,
                    f"exports missing from {doc_name}: "
                    f"{', '.join(missing)}; regenerate with `make api-docs`",
                )
