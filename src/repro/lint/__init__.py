"""repro.lint — two-phase, whole-project static analysis.

A zero-dependency analyzer enforcing the invariants the type system
cannot see (see ``docs/static_analysis.md``).  Phase 1 builds a project
index — parsed files, symbol tables, the import-resolved call graph,
lock-context summaries (:mod:`repro.lint.callgraph`,
:mod:`repro.lint.semantics`); phase 2 runs the per-node rules

* **RNG001** — no unseeded or global-state randomness;
* **FLT001** — no bare float ``==``/``!=`` (probabilities, payoffs);
* **OBS001** — public solver/engine entry points carry a span/timer;
* **ASR001** — no ``assert`` in the package;
* **EXC001** — instrumentation cleanup an exception can skip;

and the whole-project rules against the index

* **THM001** — docstring theorem tags resolve against ``docs/theory.md``;
* **LAY001** — imports follow the package layering DAG, no cycles;
* **API001** — every ``__all__`` export appears in ``docs/api.md``;
* **LCK001** — lock-associated shared state accessed without its lock;
* **LCK002** — self-deadlock: a held non-reentrant lock re-acquired;
* **DET001** — entry points reaching unseeded RNG / wall-clock reads;
* **SCH001** — schema-version literals drifting between files and docs.

Suppress a finding with ``# repro: noqa[RULE]`` on the flagged
statement; associate state with its guard via ``# repro: lock(<name>)``.
Any finding fails the run.  Exposed as ``python -m repro.lint``,
``repro-defender lint`` and ``make lint``; both commands take only the
paths to scan and ``--root``.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.lint.engine import (
    DEFAULT_LAYERS,
    FileContext,
    LintConfig,
    LintEngine,
    LintReport,
    Rule,
    SemanticRule,
    register,
    registered_rules,
)
from repro.lint.findings import Finding, Severity

__all__ = [
    "Finding",
    "Severity",
    "Rule",
    "SemanticRule",
    "register",
    "registered_rules",
    "FileContext",
    "LintConfig",
    "LintEngine",
    "LintReport",
    "DEFAULT_LAYERS",
    "render_text",
    "add_lint_arguments",
    "run_from_args",
]


def render_text(report: LintReport) -> str:
    """Human-readable findings plus a one-line summary."""
    lines: List[str] = [f.render() for f in report.findings]
    for err in report.parse_errors:
        lines.append(f"parse error: {err}")
    counts: Dict[str, int] = {}
    for f in report.findings:
        counts[f.rule] = counts.get(f.rule, 0) + 1
    elapsed = f" in {report.elapsed_s:.2f}s" if report.elapsed_s else ""
    if report.findings:
        by_rule = ", ".join(f"{rule}={n}" for rule, n in sorted(counts.items()))
        lines.append("")
        lines.append(
            f"{len(report.findings)} finding(s) in {report.files_scanned} "
            f"file(s) [{by_rule}]{elapsed}"
        )
    else:
        lines.append(
            f"clean: 0 findings in {report.files_scanned} file(s){elapsed}")
    return "\n".join(lines)


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the ``lint`` options (CLI subcommand + ``python -m``)."""
    parser.add_argument(
        "paths", nargs="*",
        help="files/directories to analyze "
             "(default: src/repro, tools and benchmarks)",
    )
    parser.add_argument(
        "--root", default=None,
        help="repository root (default: auto-detected from this package)",
    )


def _detect_root(explicit: Optional[str]) -> Path:
    if explicit:
        return Path(explicit).resolve()
    here = Path(__file__).resolve()
    for candidate in here.parents:
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return Path.cwd()


def run_from_args(args: argparse.Namespace, emit=print) -> int:
    """Run the analyzer from parsed arguments; returns the exit code
    (0 clean, 1 any finding, 2 unparseable source)."""
    root = _detect_root(args.root)
    config = LintConfig.for_repo(root, [Path(p) for p in args.paths])
    report = LintEngine(config).run()
    emit(render_text(report))
    return report.exit_code()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Standalone entry point (``python -m repro.lint``)."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="AST-based domain-invariant analyzer for this repository.",
    )
    add_lint_arguments(parser)
    return run_from_args(parser.parse_args(argv))
