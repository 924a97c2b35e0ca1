"""Perf-regression watchdog over the benchmark history trajectory.

``tools/bench_smoke.py --write`` appends one history entry per git
revision to ``BENCH_KERNELS.json`` (schema v2); this module is the
comparator that turns that history into an alarm: a tracked hot path is
flagged when its current wall-clock exceeds the **trailing median** of
its history by more than a configurable ratio (default
:data:`DEFAULT_RATIO` = 1.5×).  The median — not the last value — is the
baseline, so one noisy run neither hides nor fakes a regression.

Entry points:

* :func:`check` — compare a ``{case: seconds}`` dict against history
  entries; returns a :class:`WatchReport`;
* :func:`watch_file` — compare the newest committed history entry (or a
  live timing dict) against its trailing history, optionally pinning the
  baseline to one revision (``against="abc1234"``);
* ``python -m repro.obs.watchdog`` / ``repro-defender watch`` /
  ``make bench-watch`` — the CLI faces, non-fatal by default
  (``--strict`` makes regressions exit non-zero).

Schema helpers (:func:`migrate_history`, :func:`load_history_document`)
live here too so ``tools/bench_smoke.py`` and the tests share one
migration path from the v1 single-snapshot file, and so does the core
of both bench harnesses (:func:`record_history`, :func:`watch_bench`).
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Optional

import repro.obs.metrics as _metrics
from repro.obs.log import get_logger

__all__ = [
    "DEFAULT_RATIO",
    "DEFAULT_WINDOW",
    "SCHEMA_V1",
    "SCHEMA_V2",
    "Regression",
    "WatchReport",
    "MAX_HISTORY",
    "migrate_history",
    "load_history_document",
    "git_revision",
    "record_history",
    "watch_bench",
    "check",
    "watch_file",
]

_log = get_logger("repro.obs.watchdog")

SCHEMA_V1 = "repro.kernels/bench-smoke/v1"
SCHEMA_V2 = "repro.kernels/bench-smoke/v2"

#: Flag a case when current > trailing-median * DEFAULT_RATIO.
DEFAULT_RATIO = 1.5

#: Trailing history entries considered per case (newest first).
DEFAULT_WINDOW = 20

#: History entries a bench trajectory file keeps (oldest dropped first).
MAX_HISTORY = 100


class Regression:
    """One tracked case that blew past its trailing-median budget."""

    __slots__ = ("case", "current_s", "baseline_s", "ratio", "limit_s",
                 "samples")

    def __init__(self, case: str, current_s: float, baseline_s: float,
                 ratio: float, samples: int) -> None:
        self.case = case
        self.current_s = current_s
        self.baseline_s = baseline_s
        self.ratio = ratio
        self.limit_s = baseline_s * ratio
        self.samples = samples

    def describe(self) -> str:
        return (
            f"{self.case}: {self.current_s:.3f}s is "
            f"{self.current_s / self.baseline_s:.2f}x the trailing median "
            f"{self.baseline_s:.3f}s over {self.samples} runs "
            f"(limit {self.ratio:.2f}x = {self.limit_s:.3f}s)"
        )

    def __repr__(self) -> str:
        return f"Regression({self.describe()})"


class WatchReport:
    """Outcome of one watchdog pass over the tracked cases."""

    __slots__ = ("regressions", "checked", "skipped", "baseline_label")

    def __init__(self, regressions: List[Regression], checked: List[str],
                 skipped: List[str], baseline_label: str) -> None:
        self.regressions = regressions
        self.checked = checked
        self.skipped = skipped
        self.baseline_label = baseline_label

    @property
    def ok(self) -> bool:
        return not self.regressions

    def to_dict(self) -> Dict[str, Any]:
        """Machine-readable verdict (the ``watch --format json`` body)."""
        return {
            "schema": "repro.obs/watch-report/v1",
            "ok": self.ok,
            "baseline": self.baseline_label,
            "checked": list(self.checked),
            "skipped": list(self.skipped),
            "regressions": [
                {
                    "case": r.case,
                    "current_s": r.current_s,
                    "baseline_s": r.baseline_s,
                    "ratio": r.ratio,
                    "limit_s": r.limit_s,
                    "samples": r.samples,
                }
                for r in self.regressions
            ],
        }

    def summary(self) -> str:
        lines = [
            f"bench-watch vs {self.baseline_label}: "
            f"{len(self.checked)} cases checked, "
            f"{len(self.skipped)} without history, "
            f"{len(self.regressions)} regressions"
        ]
        for regression in self.regressions:
            lines.append(f"  REGRESSION {regression.describe()}")
        for case in self.skipped:
            lines.append(f"  (no trailing history for {case})")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"WatchReport(ok={self.ok}, checked={len(self.checked)}, "
            f"regressions={len(self.regressions)})"
        )


# --------------------------------------------------------------------------
# schema / migration


def migrate_history(document: Dict[str, Any]) -> Dict[str, Any]:
    """Upgrade a v1 single-snapshot bench document to schema v2 in memory.

    The v1 ``cases`` snapshot becomes the first (and only) history entry,
    labelled ``pre-history`` because v1 never recorded the revision that
    produced it.  v2 documents pass through unchanged; anything else
    raises ``ValueError``.
    """
    schema = document.get("schema")
    if schema == SCHEMA_V2:
        return document
    if schema != SCHEMA_V1:
        raise ValueError(f"unrecognized bench document schema: {schema!r}")
    with _metrics.timer("watchdog.migrate.seconds"):
        cases = document.get("cases", {})
        migrated = {
            "schema": SCHEMA_V2,
            "slack": document.get("slack", {}),
            "cases": cases,
            "history": [{
                "git_rev": "pre-history",
                "timestamp": None,
                "cases": {
                    name: entry.get("wall_clock_s")
                    for name, entry in sorted(cases.items())
                    if isinstance(entry, dict)
                },
            }],
        }
    return migrated


def load_history_document(path) -> Dict[str, Any]:
    """Read ``path`` and return it as a schema-v2 document (migrating v1)."""
    return migrate_history(json.loads(Path(path).read_text(encoding="utf-8")))


# --------------------------------------------------------------------------
# the bench-harness core


def git_revision(root) -> str:
    """Short ``HEAD`` revision of the checkout at ``root``, or "unknown"."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=5,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def record_history(path, cases: Dict[str, Any], seconds: Dict[str, float],
                   slack: Dict[str, float], rev: str) -> Dict[str, Any]:
    """Rewrite the bench trajectory file ``path`` (created when missing)
    with the latest ``cases`` snapshot, ``slack``, and a history entry of
    per-case ``seconds`` for revision ``rev``.  Re-recording a revision
    replaces its entry, so duplicates never bias the trailing median;
    the newest :data:`MAX_HISTORY` entries are kept."""
    with _metrics.timer("watchdog.record.seconds"):
        document = load_history_document(path) if Path(path).exists() \
            else {"schema": SCHEMA_V2, "slack": {}, "cases": {}}
        entry = {
            "git_rev": rev,
            "timestamp": datetime.now(timezone.utc).isoformat(
                timespec="seconds"),
            "cases": {name: seconds[name] for name in sorted(seconds)},
        }
        document.update(slack=slack, cases=cases, history=([
            e for e in document.get("history", []) if e.get("git_rev") != rev
        ] + [entry])[-MAX_HISTORY:])
        Path(path).write_text(json.dumps(document, indent=2) + "\n")
    return document


# --------------------------------------------------------------------------
# the comparator


def _case_history(history: List[Dict[str, Any]], case: str,
                  window: int) -> List[float]:
    values = [
        float(entry["cases"][case])
        for entry in history
        if isinstance(entry.get("cases"), dict)
        and entry["cases"].get(case) is not None
    ]
    return values[-window:]


def check(
    history: List[Dict[str, Any]],
    current: Dict[str, float],
    ratio: float = DEFAULT_RATIO,
    window: int = DEFAULT_WINDOW,
    baseline_label: str = "trailing median",
) -> WatchReport:
    """Compare ``current`` timings against the trailing history median.

    ``history`` is a list of v2 history entries (oldest first), each
    ``{"git_rev", "timestamp", "cases": {name: seconds}}``.  A case with
    no history at all is *skipped* (reported, never fatal) — the watchdog
    only ever compares against evidence.
    """
    with _metrics.timer("watchdog.check.seconds"):
        regressions: List[Regression] = []
        checked: List[str] = []
        skipped: List[str] = []
        for case in sorted(current):
            seconds = current[case]
            if seconds is None:
                continue
            values = _case_history(history, case, window)
            if not values:
                skipped.append(case)
                continue
            checked.append(case)
            baseline = statistics.median(values)
            if baseline > 0 and float(seconds) > baseline * ratio:
                regressions.append(
                    Regression(case, float(seconds), baseline, ratio,
                               len(values))
                )
        _metrics.counter("watchdog.checks.count").inc()
        if regressions:
            _metrics.counter("watchdog.regressions.count").inc(
                len(regressions)
            )
            for regression in regressions:
                _log.warning("watchdog.regression",
                             case=regression.case,
                             current_s=regression.current_s,
                             baseline_s=regression.baseline_s)
    return WatchReport(regressions, checked, skipped, baseline_label)


def watch_file(
    path,
    current: Optional[Dict[str, float]] = None,
    against: Optional[str] = None,
    ratio: float = DEFAULT_RATIO,
    window: int = DEFAULT_WINDOW,
) -> WatchReport:
    """Run the watchdog over a bench trajectory file.

    Without ``current``, the newest committed history entry plays the
    candidate and is compared against the *earlier* entries; pass a live
    ``{case: seconds}`` dict (what ``bench_smoke --watch`` does) to
    compare fresh timings against the whole history.  ``against`` pins
    the baseline to the single history entry with that ``git_rev``
    instead of the trailing median.
    """
    with _metrics.timer("watchdog.run.seconds"):
        document = load_history_document(path)
        history = list(document.get("history", []))
        label = f"trailing median of {Path(path).name}"
        if current is None:
            if not history:
                return WatchReport([], [], [], label)
            candidate = history[-1]
            history = history[:-1]
            current = {
                name: value
                for name, value in candidate.get("cases", {}).items()
                if value is not None
            }
            label = (
                f"history before {candidate.get('git_rev', '?')} "
                f"in {Path(path).name}"
            )
        if against is not None:
            pinned = [
                entry for entry in history if entry.get("git_rev") == against
            ]
            if not pinned:
                raise ValueError(
                    f"no history entry for revision {against!r} in {path}"
                )
            history = pinned
            label = f"revision {against}"
    return check(history, current, ratio=ratio, window=window,
                 baseline_label=label)


def watch_bench(path, current: Dict[str, float], tool: str, label: str,
                against: Optional[str] = None,
                ratio: Optional[float] = None, strict: bool = False) -> int:
    """A bench harness's ``--watch`` exit code: ``current`` against the
    history of ``path`` (``tool`` writes it; ``label`` prefixes errors)."""
    with _metrics.timer("watchdog.bench.seconds"):
        if not Path(path).exists():
            print(f"{path} missing; run python {tool} --write first",
                  file=sys.stderr)
            return 1 if strict else 0
        try:
            report = watch_file(
                path, current=current, against=against,
                ratio=DEFAULT_RATIO if ratio is None else ratio,
            )
        except ValueError as exc:
            print(f"{label}: {exc}", file=sys.stderr)
            return 1
        print(report.summary())
    return 1 if (strict and not report.ok) else 0


# --------------------------------------------------------------------------
# CLI face (python -m repro.obs.watchdog; also behind `repro-defender watch`)


def add_watch_arguments(parser) -> None:
    """Attach the watchdog flags to an ``argparse`` (sub)parser."""
    parser.add_argument(
        "--file", default="BENCH_KERNELS.json", metavar="PATH",
        help="bench trajectory file (default: BENCH_KERNELS.json)",
    )
    parser.add_argument(
        "--against", default=None, metavar="REV",
        help="compare against this git revision's history entry instead "
             "of the trailing median",
    )
    parser.add_argument(
        "--ratio", type=float, default=DEFAULT_RATIO,
        help=f"slowdown ratio that trips the alarm (default: "
             f"{DEFAULT_RATIO})",
    )
    parser.add_argument(
        "--window", type=int, default=DEFAULT_WINDOW,
        help=f"trailing history entries per case (default: "
             f"{DEFAULT_WINDOW})",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="exit non-zero on regressions (default: report only)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt",
        help="verdict format: human text or one JSON document for CI "
             "annotations (default: text)",
    )


def run_watch_from_args(args, emit=print) -> int:
    """Execute a parsed watchdog invocation; returns a process exit code."""
    fmt = getattr(args, "fmt", "text")
    path = Path(args.file)
    if not path.exists():
        message = (f"bench-watch: {path} missing; run tools/bench_smoke.py "
                   "--write first")
        emit(json.dumps({"schema": "repro.obs/watch-report/v1", "ok": True,
                         "error": message})
             if fmt == "json" else message)
        return 0 if not args.strict else 1
    try:
        report = watch_file(path, against=args.against, ratio=args.ratio,
                            window=args.window)
    except (ValueError, json.JSONDecodeError) as exc:
        emit(json.dumps({"schema": "repro.obs/watch-report/v1", "ok": False,
                         "error": str(exc)})
             if fmt == "json" else f"bench-watch: {exc}")
        return 1
    emit(json.dumps(report.to_dict(), indent=2, sort_keys=True)
         if fmt == "json" else report.summary())
    if not report.ok and args.strict:
        return 1
    return 0


def _main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.watchdog",
        description="flag tracked hot paths slower than their trailing "
                    "history median",
    )
    add_watch_arguments(parser)
    return run_watch_from_args(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover - exercised via make bench-watch
    import sys

    sys.exit(_main())
