"""Two-phase analysis engine for the :mod:`repro.lint` analyzer.

**Phase 1** parses every file once and builds the project index — the
parsed file contexts, symbol tables, the import-resolved call graph and
per-module lock summaries (:mod:`repro.lint.callgraph` /
:mod:`repro.lint.semantics`).  **Phase 2** walks each file's AST exactly
once, dispatching every node to the rules that registered interest in
its type, then runs the whole-project rules against the index.  Two rule
kinds exist:

* :class:`Rule` — per-node visitors (``node_types`` + ``visit``);
* :class:`SemanticRule` — judge the phase-1 :class:`ProjectIndex`
  directly (``analyze``) — import layering, documentation cross-checks,
  lock discipline, determinism reachability, schema consistency.

Suppression: append ``# repro: noqa[RULE1,RULE2]`` (or a bare
``# repro: noqa``) to the flagged statement.  A suppression anywhere on
a multi-line statement covers the whole logical line; suppressions are
per-rule, and unknown rule names in a suppression are ignored.
"""

from __future__ import annotations

import ast
import io
import re
import time
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple, Type

from repro.lint.findings import Finding, Severity

_NOQA_RE = re.compile(r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Za-z0-9_,\s]*)\])?")


# --------------------------------------------------------------------------
# configuration


@dataclass
class LintConfig:
    """Everything the engine and the rules need to know about the project.

    The defaults describe this repository; tests override individual
    fields to point the rules at fixture documents.
    """

    root: Path
    paths: Tuple[Path, ...] = ()
    theory_doc: Optional[Path] = None
    api_doc: Optional[Path] = None
    #: package (or dotted-module prefix) -> layer number; imports may only
    #: point at the same or a *lower* layer (see LAY001).
    layers: Mapping[str, int] = field(default_factory=dict)
    #: dotted-module prefixes whose public functions must be instrumented
    #: with a span/timer from repro.obs (see OBS001).
    obs_required: Tuple[str, ...] = ()
    #: dotted-module prefixes where an *unseeded* RNG is tolerated inside
    #: functions that take an explicit ``seed`` parameter (see RNG001).
    rng_seeded_entry_prefixes: Tuple[str, ...] = ()
    #: packages whose module docstrings must cite at least one paper
    #: result (see THM001).
    theory_packages: Tuple[str, ...] = ()
    #: dotted-module prefixes whose ``__all__`` functions are determinism
    #: entry points: no call path may reach unseeded RNG or wall-clock
    #: reads (see DET001).
    det_entry_prefixes: Tuple[str, ...] = ()
    #: dotted-module prefixes whose nondeterminism is sanctioned
    #: (telemetry timestamps are not solver output; see DET001).
    det_exempt_prefixes: Tuple[str, ...] = ()
    #: documents scanned for schema-version literals alongside the code
    #: (files, or directories meaning every ``*.md`` inside; see SCH001).
    schema_docs: Tuple[Path, ...] = ()
    #: restrict the run to these rule ids (None = all registered rules).
    select: Optional[Set[str]] = None

    @classmethod
    def for_repo(cls, root: Path, paths: Sequence[Path] = ()) -> "LintConfig":
        """The canonical configuration for this repository."""
        root = Path(root).resolve()
        scan = tuple(Path(p) for p in paths) or (
            root / "src" / "repro",
            root / "tools",
            root / "benchmarks",
        )
        return cls(
            root=root,
            paths=scan,
            theory_doc=root / "docs" / "theory.md",
            api_doc=root / "docs" / "api.md",
            layers=dict(DEFAULT_LAYERS),
            obs_required=(
                "repro.cache.",
                "repro.kernels.",
                "repro.solvers.",
                "repro.simulation.engine",
                "repro.equilibria.solve",
                "repro.fuzz.runner",
                "repro.serve.",
                "repro.obs.ledger",
                "repro.obs.prof",
                "repro.obs.watchdog",
                "repro.obs.events",
                "repro.obs.report",
                "repro.obs.access",
                "repro.obs.slo",
            ),
            rng_seeded_entry_prefixes=("repro.simulation.", "repro.fuzz."),
            theory_packages=("repro.core", "repro.equilibria"),
            det_entry_prefixes=(
                "repro.solvers.",
                "repro.equilibria.",
                "repro.kernels.",
                "repro.simulation.",
                "repro.fuzz.",
            ),
            # repro.cache: LRU clocks and store timestamps are telemetry,
            # not solver output — replayed payloads are byte-identical.
            det_exempt_prefixes=("repro.obs.", "repro.lint.",
                                 "repro.cache."),
            schema_docs=(root / "docs",),
        )


#: The enforced import-layering DAG, bottom (0) to top.  ``repro.obs`` is
#: layer 0 and therefore importable from everywhere; packages sharing a
#: number form one layer and may import each other.  See
#: ``docs/static_analysis.md`` for the rationale.
DEFAULT_LAYERS: Mapping[str, int] = {
    "repro.obs": 0,
    "repro.graphs": 1,
    "repro.matching": 1,
    "repro.core": 2,
    "repro.cache": 3,
    "repro.kernels": 3,
    "repro.equilibria": 3,
    "repro.solvers": 4,
    "repro.simulation": 5,
    "repro.weighted": 5,
    "repro.models": 5,
    "repro.analysis": 6,
    "repro.lint": 6,
    "repro.fuzz": 6,
    "repro.serve": 7,
    "repro.cli": 7,
    "repro": 8,
}


# --------------------------------------------------------------------------
# per-file context


class FileContext:
    """Everything a rule may want to know about the file being walked."""

    def __init__(self, path: Path, relpath: str, module: str,
                 source: str, tree: ast.Module,
                 lint_config: Optional["LintConfig"] = None) -> None:
        self.lint_config = lint_config
        self.path = path
        self.relpath = relpath
        #: dotted module name (``repro.core.pure``); empty for files that
        #: do not live under a recognised source root.
        self.module = module
        self.source = source
        self.lines: List[str] = source.splitlines()
        self.tree = tree
        self._parents: Optional[Dict[ast.AST, ast.AST]] = None
        self._suppressions: Optional[Dict[int, Optional[Set[str]]]] = None
        self._exports: Optional[Tuple[Tuple[str, ...], int]] = None

    # -- structure helpers ------------------------------------------------

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        """The syntactic parent of ``node`` (lazy one-time index)."""
        if self._parents is None:
            self._parents = {}
            for outer in ast.walk(self.tree):
                for child in ast.iter_child_nodes(outer):
                    self._parents[child] = outer
        return self._parents.get(node)

    def enclosing_function(self, node: ast.AST):
        """The nearest enclosing function/async-function def, or None."""
        cur = self.parent(node)
        while cur is not None:
            if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return cur
            cur = self.parent(cur)
        return None

    @property
    def exports(self) -> Tuple[str, ...]:
        """Names in the last literal top-level ``__all__`` (empty if absent).

        The one ``__all__`` reader every rule and the project index use;
        the last assignment wins, as it does at runtime.
        """
        return self._parse_exports()[0]

    @property
    def exports_line(self) -> int:
        """Line of that ``__all__`` assignment (1 if absent)."""
        return self._parse_exports()[1]

    def _parse_exports(self) -> Tuple[Tuple[str, ...], int]:
        if self._exports is None:
            names: Tuple[str, ...] = ()
            line = 1
            for stmt in self.tree.body:
                if (isinstance(stmt, ast.Assign)
                        and len(stmt.targets) == 1
                        and isinstance(stmt.targets[0], ast.Name)
                        and stmt.targets[0].id == "__all__"
                        and isinstance(stmt.value, (ast.List, ast.Tuple))):
                    collected = []
                    for elt in stmt.value.elts:
                        if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                            collected.append(elt.value)
                    names, line = tuple(collected), stmt.lineno
            self._exports = (names, line)
        return self._exports

    # -- suppression ------------------------------------------------------

    def _suppression_map(self) -> Dict[int, Optional[Set[str]]]:
        """line -> suppressed rule ids (None = all rules) from comments.

        Built from the token stream so ``#`` characters inside string
        literals never read as comments.  A noqa comment anywhere on a
        multi-line statement covers every physical line of that logical
        line — a finding anchored at the ``with`` keyword three lines
        above the trailing comment is still suppressed.
        """
        if self._suppressions is None:
            self._suppressions = self._build_suppressions()
        return self._suppressions

    def _build_suppressions(self) -> Dict[int, Optional[Set[str]]]:
        # (comment-line, text, line-range-it-covers)
        spans: List[Tuple[str, range]] = []
        try:
            tokens = tokenize.generate_tokens(io.StringIO(self.source).readline)
            logical_start: Optional[int] = None
            pending: List[str] = []
            for tok in tokens:
                if tok.type == tokenize.COMMENT:
                    if logical_start is None:
                        spans.append((tok.string, range(tok.start[0],
                                                        tok.start[0] + 1)))
                    else:
                        pending.append(tok.string)
                elif tok.type == tokenize.NEWLINE:
                    end = tok.end[0]
                    start = logical_start if logical_start is not None else end
                    for text in pending:
                        spans.append((text, range(start, end + 1)))
                    pending, logical_start = [], None
                elif tok.type in (tokenize.NL, tokenize.INDENT,
                                  tokenize.DEDENT, tokenize.ENDMARKER):
                    continue
                elif logical_start is None:
                    logical_start = tok.start[0]
        except (tokenize.TokenError, IndentationError, StopIteration):
            spans = [(line, range(i + 1, i + 2))
                     for i, line in enumerate(self.lines) if "#" in line]
        table: Dict[int, Optional[Set[str]]] = {}
        for text, lines in spans:
            m = _NOQA_RE.search(text)
            if not m:
                continue
            rules = m.group("rules")
            ids: Optional[Set[str]]
            if rules is None:
                ids = None
            else:
                ids = {r.strip().upper() for r in rules.split(",") if r.strip()}
            for lineno in lines:
                prior = table.get(lineno, set())
                if ids is None or prior is None:
                    table[lineno] = None
                else:
                    table[lineno] = prior | ids
        return table

    def suppressed(self, line: int, rule: str) -> bool:
        """True if ``rule`` is noqa'd on ``line``."""
        table = self._suppression_map()
        if line not in table:
            return False
        rules = table[line]
        return rules is None or rule.upper() in rules

    # -- finding construction ---------------------------------------------

    def finding(self, rule: "Rule", node_or_line, message: str,
                col: Optional[int] = None) -> Finding:
        """Build a Finding anchored at an AST node or a 1-based line."""
        if isinstance(node_or_line, int):
            line, column = node_or_line, 0 if col is None else col
        else:
            line = getattr(node_or_line, "lineno", 1)
            column = getattr(node_or_line, "col_offset", 0) if col is None else col
        return Finding(rule.id, rule.severity, self.relpath, line,
                       column, message)


# --------------------------------------------------------------------------
# rules


class Rule:
    """Base class: a per-node visitor with an id, severity and docs."""

    id: str = ""
    name: str = ""
    description: str = ""
    severity: Severity = Severity.ERROR
    #: AST node classes this rule wants to see (empty for semantic rules).
    node_types: Tuple[Type[ast.AST], ...] = ()

    def start_file(self, ctx: FileContext) -> None:
        """Hook before the walk of one file (reset per-file state)."""

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        """Yield findings for one node."""
        return iter(())

    def end_file(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield file-level findings once the walk is complete."""
        return iter(())


class SemanticRule(Rule):
    """A rule that judges the phase-1 project index directly.

    ``analyze`` receives the :class:`repro.lint.callgraph.ProjectIndex`
    built from every scanned file — parsed contexts, symbol tables, call
    graph, lock summaries — and yields findings.  Semantic rules see no
    per-node dispatch; ``node_types`` stays empty.
    """

    def analyze(self, index, config: LintConfig) -> Iterator[Finding]:
        """Yield findings from the project index."""
        return iter(())

    def finding(self, relpath: str, line: int, message: str,
                col: int = 0) -> Finding:
        """Build a finding without a FileContext (index-derived)."""
        return Finding(self.id, self.severity, relpath, line, col, message)


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if cls.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.id}")
    _REGISTRY[cls.id] = cls
    return cls


def registered_rules() -> Dict[str, Type[Rule]]:
    """The registry (id -> rule class), importing the built-in rules."""
    # Imported lazily so `engine` has no import cycle with the rule modules.
    from repro.lint import project, rules, semrules  # noqa: F401  (registration side effect)

    return dict(_REGISTRY)


# --------------------------------------------------------------------------
# report + engine


@dataclass
class LintReport:
    """The outcome of one analyzer run."""

    findings: List[Finding]
    files_scanned: int
    parse_errors: List[str] = field(default_factory=list)
    #: wall-clock seconds for the full run (parse + index + rules).
    elapsed_s: float = 0.0

    def exit_code(self) -> int:
        """0 when clean, 1 on any finding, 2 on unparseable source."""
        if self.parse_errors:
            return 2
        return 1 if self.findings else 0


class LintEngine:
    """Instantiates the rules and runs both phases."""

    def __init__(self, config: LintConfig) -> None:
        self.config = config
        classes = list(registered_rules().values())
        if config.select is not None:
            wanted = {r.upper() for r in config.select}
            classes = [c for c in classes if c.id in wanted]
        self.rules: List[Rule] = [cls() for cls in classes]
        self._dispatch: Dict[Type[ast.AST], List[Rule]] = {}
        for rule in self.rules:
            for node_type in rule.node_types:
                self._dispatch.setdefault(node_type, []).append(rule)

    # -- discovery --------------------------------------------------------

    def iter_files(self) -> Iterator[Path]:
        for base in self.config.paths:
            base = Path(base)
            if base.is_file() and base.suffix == ".py":
                yield base
            elif base.is_dir():
                yield from sorted(
                    p for p in base.rglob("*.py")
                    if "__pycache__" not in p.parts
                    and not any(part.startswith(".") for part in p.parts)
                )

    def module_name(self, path: Path) -> str:
        """Dotted module name for ``path`` (empty when unrecognised)."""
        try:
            rel = path.resolve().relative_to(self.config.root / "src")
        except ValueError:
            return ""
        parts = list(rel.with_suffix("").parts)
        if parts and parts[-1] == "__init__":
            parts.pop()
        return ".".join(parts)

    def relpath(self, path: Path) -> str:
        try:
            return path.resolve().relative_to(self.config.root).as_posix()
        except ValueError:
            return path.as_posix()

    # -- phase 1: parse + index -------------------------------------------

    def parse_file(self, path: Path) -> Tuple[Optional[FileContext], Optional[str]]:
        """Parse one file into a context; (None, error) on syntax error."""
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            return None, f"{self.relpath(path)}: {exc.msg} (line {exc.lineno})"
        return FileContext(path, self.relpath(path), self.module_name(path),
                           source, tree, self.config), None

    def parse_all(self) -> Tuple[List[FileContext], List[str]]:
        contexts: List[FileContext] = []
        errors: List[str] = []
        for path in self.iter_files():
            ctx, error = self.parse_file(path)
            if ctx is not None:
                contexts.append(ctx)
            if error:
                errors.append(error)
        return contexts, errors

    def build_index(self, contexts: Sequence[FileContext]):
        """The phase-1 :class:`~repro.lint.callgraph.ProjectIndex`."""
        from repro.lint.callgraph import ProjectIndex

        return ProjectIndex.build(contexts)

    # -- phase 2: the rule pass -------------------------------------------

    def _walk(self, ctx: FileContext) -> List[Finding]:
        findings: List[Finding] = []
        for rule in self.rules:
            rule.start_file(ctx)
        for node in ast.walk(ctx.tree):
            for rule in self._dispatch.get(type(node), ()):
                findings.extend(rule.visit(node, ctx))
        for rule in self.rules:
            findings.extend(rule.end_file(ctx))
        return findings

    def run(self) -> LintReport:
        started = time.perf_counter()
        contexts, errors = self.parse_all()
        index = self.build_index(contexts)
        findings: List[Finding] = []
        for ctx in contexts:
            findings.extend(self._walk(ctx))
        for rule in self.rules:
            if isinstance(rule, SemanticRule):
                findings.extend(rule.analyze(index, self.config))
        # Findings in scanned files honour their per-line suppressions;
        # findings in documents (SCH001) have none to honour.
        kept = [
            f for f in findings
            if f.path not in index.contexts
            or not index.contexts[f.path].suppressed(f.line, f.rule)
        ]
        kept.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        return LintReport(kept, len(contexts), parse_errors=errors,
                          elapsed_s=time.perf_counter() - started)
