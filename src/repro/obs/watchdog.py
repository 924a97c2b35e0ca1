"""Perf-regression gate over host-corrected benchmark timings.

``tools/bench_smoke.py`` times the tracked hot paths through
:func:`measure` and keeps their trajectory in ``BENCH_KERNELS.json``
(schema v3, one history entry per ``--write``); :func:`check` is the one
comparator that decides whether a case regressed.

**What a case records.**  The benchmark host is a shared VM whose vCPU
speed drifts by a third or more between minutes, so wall seconds of
identical work are not comparable across runs.  :func:`measure` times
each case over a number of repetitions, runs fixed *calibration slices*
between consecutive repetitions, and scales each repetition's thread
CPU time by the slice's reference time over the mean of the two slices
around it.  A code change moves the case and not the slices, so it
shows in full; a change of host speed moves both and largely cancels.
Drift does not slow interpreted and compiled code alike, so there are
two slices: a pure-Python one (reference :data:`REFERENCE_SLICE_S`) for
most cases, and a small HiGHS LP (reference
:data:`REFERENCE_NATIVE_SLICE_S`) for the cases the caller names as
spending their time in compiled code.  The unit is *reference seconds*:
CPU seconds at the speed at which the case's slice takes its reference
time.  The repetitions are shared out over :data:`PROCESSES` spawned
interpreters, because the memory layout one process gets moves the
small cases by up to a quarter.  Each case records its median, its MAD
(median absolute deviation) and its repetition count.

**How a case is judged.**  A case regresses when its median exceeds
the baseline median by more than :data:`BAND_Z` per-repetition standard
deviations, estimated as 1.4826 times the larger of the two runs' MADs
(:func:`band`).  The larger MAD is used so that one run's accidentally
small MAD cannot narrow the band.  The band does not shrink with the
repetition count: the drift the calibration leaves between runs (2-8%
of a median on the reference host) is of the order of the
per-repetition spread, not of a median's standard error.  A baseline
is measured over three times the repetitions of a check, so its median
is the steadier of the two.

Entry points:

* :func:`measure` — time the cases a factory builds, in reference
  seconds;
* :func:`check` — compare two ``{case: summary}`` dicts; returns a
  :class:`WatchReport`;
* :func:`watch_document` / :func:`watch_file` — the history faces: live
  timings against the newest entry, or the newest entry against the
  earlier ones, optionally pinned to one revision;
* :func:`record_history` — append a measured entry, stamped with the
  git revision and whether the tree was dirty;
* ``python -m repro.obs.watchdog`` / ``repro-defender watch`` /
  ``make bench-watch`` — the CLI faces (``--strict`` makes regressions
  exit non-zero).
"""

from __future__ import annotations

import json
import statistics
import subprocess
from datetime import datetime, timezone
from pathlib import Path
from time import thread_time
from typing import (Any, Callable, Collection, Dict, List, Mapping, Optional,
                    Tuple)

import repro.obs.metrics as _metrics
from repro.obs.log import get_logger

__all__ = [
    "SCHEMA",
    "REFERENCE_SLICE_S",
    "REFERENCE_NATIVE_SLICE_S",
    "BAND_Z",
    "PROCESSES",
    "MAX_HISTORY",
    "Regression",
    "WatchReport",
    "measure",
    "summarize",
    "band",
    "check",
    "load_history_document",
    "git_revision",
    "git_dirty",
    "record_history",
    "watch_document",
    "watch_file",
]

_log = get_logger("repro.obs.watchdog")

SCHEMA = "repro.kernels/bench-smoke/v3"

#: CPU time of one pure-Python / native calibration slice on the
#: reference host (2-vCPU x86-64 KVM guest, CPython 3.11, scipy 1.17) in
#: its usual state, in seconds; only the unit depends on them.
REFERENCE_SLICE_S = 0.006
REFERENCE_NATIVE_SLICE_S = 0.003

#: Width of the regression band, in per-repetition standard deviations.
BAND_Z = 2.0

#: The MAD of normal data times this estimates its standard deviation.
_SIGMA_PER_MAD = 1.4826

#: Fresh interpreter processes one measurement is spread over.
PROCESSES = 3

#: Repetitions per case: as many as fit in :data:`_CASE_BUDGET_S` of the
#: warm-up's CPU time, within these bounds, shared out over the
#: processes; a baseline takes :data:`_BASELINE_SCALE` times as many.
_MIN_REPS = 7
_MAX_REPS = 21
_CASE_BUDGET_S = 8.0
_BASELINE_SCALE = 3

#: History entries a bench trajectory file keeps (oldest dropped first).
MAX_HISTORY = 100

_REPORT_SCHEMA = "repro.obs/watch-report/v2"


# --------------------------------------------------------------------------
# measuring


class _Probe:
    __slots__ = ("key",)

    def __init__(self, key: int) -> None:
        self.key = key

    def low_bits(self) -> int:
        return self.key & 1023


def _calibration_slice(keys: List[int]) -> float:
    """Thread CPU time of one fixed slice of pure-Python work, in seconds.

    The slice mixes the three kinds of interpreter work the tracked
    cases do, because host drift does not slow them alike: an integer
    loop, object allocation with scattered reads of ``keys`` (a
    :func:`measure`-owned list of ``2**17`` ints) into a dict, and a
    recursive choose-5-of-14 search over a bytearray with float gains.
    Thread CPU time leaves out whatever the host stole meanwhile.
    """
    began = thread_time()
    total = 0
    for i in range(20_000):
        total += i * i
    table = {}
    size = len(keys)
    for i in range(3_000):
        probe = _Probe(keys[i * 7919 % size])
        table[probe.key] = probe.low_bits()
    covered = bytearray(13)
    best = [0.0]

    def descend(start: int, depth: int, value: float) -> None:
        if depth == 5:
            best[0] = max(best[0], value)
            return
        for i in range(start, 10 + depth):
            u, v = i % 7, 7 + i * 3 % 6
            gain = (0.0 if covered[u] else 1.0 + 0.01 * u) \
                + (0.0 if covered[v] else 1.0 + 0.01 * v)
            covered[u] += 1
            covered[v] += 1
            descend(i + 1, depth + 1, value + gain)
            covered[u] -= 1
            covered[v] -= 1

    descend(0, 0, 0.0)
    return thread_time() - began


def summarize(samples: List[float]) -> Dict[str, Any]:
    """``{"median_s", "mad_s", "reps"}`` of per-repetition seconds."""
    median = statistics.median(samples)
    return {
        "median_s": median,
        "mad_s": statistics.median(abs(x - median) for x in samples),
        "reps": len(samples),
    }


def _native_problem() -> Dict[str, Any]:
    """``linprog`` arguments of a fixed 30 x 40 zero-sum game value LP."""
    import numpy as np

    payoff = np.array([[(i * 37 + j * 101) % 97 / 97.0 for j in range(40)]
                       for i in range(30)])
    rows, cols = payoff.shape
    return {
        "c": np.r_[np.zeros(cols), -1.0],
        "A_ub": np.hstack([-payoff, np.ones((rows, 1))]),
        "b_ub": np.zeros(rows),
        "A_eq": np.r_[np.ones(cols), 0.0][None, :],
        "b_eq": [1.0],
        "bounds": [(0, None)] * cols + [(None, None)],
        "method": "highs",
    }


def _native_slice(problem: Dict[str, Any]) -> float:
    """Thread CPU time of one HiGHS solve of :func:`_native_problem`."""
    from scipy.optimize import linprog

    began = thread_time()
    linprog(**problem)
    return thread_time() - began


def measure(factory: Callable[[], Tuple[Mapping[str, Callable[[], Any]],
                                        Callable[[], Any]]],
            native: Collection[str] = (),
            baseline: bool = False) -> Dict[str, Any]:
    """Time every case in reference seconds; ``{case: summary}``.

    ``factory()`` returns ``(cases, reset)``: the ``{case: callable}``
    to time and a callable run before every repetition, outside the
    timed region.  The repetitions are shared out over
    :data:`PROCESSES` fresh interpreter processes run one after another,
    and their samples pooled: the memory layout a process happens to get
    moves the small cases by up to a quarter, so one process is not
    representative.  ``factory`` must therefore be a module-level
    function.  Cases named in ``native`` are scaled by the native slice
    (it needs numpy and scipy), the others by the pure-Python one.  A
    ``baseline`` run takes :data:`_BASELINE_SCALE` times the
    repetitions.
    """
    import multiprocessing  # only the bench harness pays its import

    with _metrics.timer("watchdog.measure.seconds"):
        context = multiprocessing.get_context("spawn")
        with context.Pool(1, maxtasksperchild=1) as pool:
            parts = [pool.apply(_sample, (factory, frozenset(native),
                                          baseline))
                     for _ in range(PROCESSES)]
    return {name: summarize([x for part in parts for x in part[name]])
            for name in parts[0]}


def _sample(factory, native: Collection[str],
            baseline: bool) -> Dict[str, List[float]]:
    """One process's share of :func:`measure`: an untimed warm-up round
    that sets each case's repetition count from its CPU time, then the
    cases round-robin, so each case's repetitions spread over the whole
    run, with the calibration slices between consecutive repetitions."""
    cases, reset = factory()
    keys = list(range(1 << 17))
    slices = {False: (lambda: _calibration_slice(keys), REFERENCE_SLICE_S)}
    if native:
        problem = _native_problem()
        slices[True] = (lambda: _native_slice(problem),
                        REFERENCE_NATIVE_SLICE_S)

    def calibrate() -> Dict[bool, float]:
        return {kind: run() for kind, (run, _) in slices.items()}

    scale = _BASELINE_SCALE if baseline else 1
    reps: Dict[str, int] = {}
    for name, case in cases.items():
        reset()
        began = thread_time()
        case()
        spent = max(thread_time() - began, 1e-6)
        reps[name] = -(-scale * min(
            _MAX_REPS, max(_MIN_REPS, round(_CASE_BUDGET_S / spent)))
            // PROCESSES)
    samples: Dict[str, List[float]] = {name: [] for name in cases}
    before = calibrate()
    for round_index in range(max(reps.values(), default=0)):
        for name, case in cases.items():
            if round_index >= reps[name]:
                continue
            reset()
            began = thread_time()
            case()
            spent = thread_time() - began
            after = calibrate()
            kind = name in native
            samples[name].append(spent * 2.0 * slices[kind][1]
                                 / (before[kind] + after[kind]))
            before = after
    return samples


# --------------------------------------------------------------------------
# the comparator


def band(baseline: Mapping[str, Any], current: Mapping[str, Any]) -> float:
    """Seconds by which ``current``'s median may exceed ``baseline``'s:
    :data:`BAND_Z` per-repetition standard deviations of the noisier
    of the two runs."""
    return BAND_Z * _SIGMA_PER_MAD * max(float(baseline["mad_s"]),
                                         float(current["mad_s"]))


class Regression:
    """One tracked case whose median exceeded its baseline's band."""

    __slots__ = ("case", "current_s", "baseline_s", "limit_s")

    def __init__(self, case: str, current_s: float, baseline_s: float,
                 limit_s: float) -> None:
        self.case = case
        self.current_s = current_s
        self.baseline_s = baseline_s
        self.limit_s = limit_s

    def describe(self) -> str:
        return (
            f"{self.case}: {self.current_s:.4f}s is "
            f"{self.current_s / self.baseline_s:.2f}x the baseline "
            f"{self.baseline_s:.4f}s (limit {self.limit_s:.4f}s)"
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
            "schema": _REPORT_SCHEMA,
            "ok": self.ok,
            "baseline": self.baseline_label,
            "checked": list(self.checked),
            "skipped": list(self.skipped),
            "regressions": [
                {
                    "case": r.case,
                    "current_s": r.current_s,
                    "baseline_s": r.baseline_s,
                    "limit_s": r.limit_s,
                }
                for r in self.regressions
            ],
        }

    def summary(self) -> str:
        lines = [
            f"bench-watch vs {self.baseline_label}: "
            f"{len(self.checked)} cases checked, "
            f"{len(self.skipped)} without baseline, "
            f"{len(self.regressions)} regressions"
        ]
        for regression in self.regressions:
            lines.append(f"  REGRESSION {regression.describe()}")
        for case in self.skipped:
            lines.append(f"  (no baseline for {case})")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"WatchReport(ok={self.ok}, checked={len(self.checked)}, "
            f"regressions={len(self.regressions)})"
        )


def check(
    baseline: Mapping[str, Mapping[str, Any]],
    current: Mapping[str, Mapping[str, Any]],
    baseline_label: str = "baseline",
) -> WatchReport:
    """Compare ``current`` case summaries against ``baseline``'s.

    Both map a case name to a :func:`summarize` dict.  A case absent
    from ``baseline`` is *skipped* (reported, never fatal): the gate
    only compares against evidence.
    """
    with _metrics.timer("watchdog.check.seconds"):
        regressions: List[Regression] = []
        checked: List[str] = []
        skipped: List[str] = []
        for case in sorted(current):
            if case not in baseline:
                skipped.append(case)
                continue
            checked.append(case)
            base, now = baseline[case], current[case]
            limit = float(base["median_s"]) + band(base, now)
            if float(now["median_s"]) > limit:
                regressions.append(Regression(
                    case, float(now["median_s"]), float(base["median_s"]),
                    limit))
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


# --------------------------------------------------------------------------
# the trajectory file


def load_history_document(path) -> Dict[str, Any]:
    """Read a schema-v3 bench document; ``ValueError`` on any other."""
    with _metrics.timer("watchdog.load.seconds"):
        document = json.loads(Path(path).read_text(encoding="utf-8"))
        schema = document.get("schema") if isinstance(document, dict) \
            else None
        if schema != SCHEMA:
            raise ValueError(
                f"unrecognized bench document schema: {schema!r}")
    return document


def _git(root, *args: str) -> Optional[str]:
    try:
        result = subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return result.stdout if result.returncode == 0 else None


def git_revision(root) -> str:
    """Short ``HEAD`` revision of the checkout at ``root``, or "unknown"."""
    return (_git(root, "rev-parse", "--short", "HEAD") or "").strip() \
        or "unknown"


def git_dirty(root) -> Optional[bool]:
    """Whether tracked files of the checkout at ``root`` differ from
    ``HEAD`` (``None`` outside a git checkout)."""
    status = _git(root, "status", "--porcelain", "--untracked-files=no")
    return None if status is None else bool(status.strip())


def record_history(path, cases: Dict[str, Any], root) -> Dict[str, Any]:
    """Append one history entry of case summaries to the bench file
    ``path`` (created when missing), stamped with the git revision of
    the checkout at ``root`` and whether it was dirty.  Re-recording a
    revision replaces its entry; the newest :data:`MAX_HISTORY` are
    kept."""
    with _metrics.timer("watchdog.record.seconds"):
        document = load_history_document(path) if Path(path).exists() \
            else {"schema": SCHEMA, "history": []}
        rev = git_revision(root)
        entry = {
            "git_rev": rev,
            "dirty": git_dirty(root),
            "timestamp": datetime.now(timezone.utc).isoformat(
                timespec="seconds"),
            "cases": {name: cases[name] for name in sorted(cases)},
        }
        document["history"] = ([
            e for e in document["history"] if e.get("git_rev") != rev
        ] + [entry])[-MAX_HISTORY:]
        Path(path).write_text(json.dumps(document, indent=2) + "\n")
    return document


def _newest_per_case(history: List[Dict[str, Any]]) -> Dict[str, Any]:
    merged: Dict[str, Any] = {}
    for entry in history:
        merged.update(entry.get("cases") or {})
    return merged


def watch_document(
    document: Dict[str, Any],
    current: Optional[Dict[str, Any]] = None,
    against: Optional[str] = None,
) -> WatchReport:
    """Run :func:`check` over a parsed bench document.

    With ``current`` (live summaries), each case is compared against
    its newest history entry.  Without it, the newest entry is the
    candidate and each case is compared against the newest *earlier*
    entry that has it.  ``against`` pins the baseline to the entry with
    that ``git_rev``; ``ValueError`` if there is none.
    """
    with _metrics.timer("watchdog.run.seconds"):
        history = list(document.get("history", []))
        label = "newest history entry"
        if current is None:
            if not history:
                return WatchReport([], [], [], "empty history")
            candidate = history.pop()
            current = candidate.get("cases") or {}
            label = f"history before {candidate.get('git_rev', '?')}"
        if against is not None:
            history = [e for e in history if e.get("git_rev") == against]
            if not history:
                raise ValueError(f"no history entry for revision {against!r}")
            label = f"revision {against}"
    return check(_newest_per_case(history), current, baseline_label=label)


def watch_file(path, current: Optional[Dict[str, Any]] = None,
               against: Optional[str] = None) -> WatchReport:
    """:func:`watch_document` over the bench file at ``path``."""
    return watch_document(load_history_document(path), current=current,
                          against=against)


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
             "of the newest earlier one",
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
    """Execute a parsed watchdog invocation; returns a process exit code.

    In JSON, ``ok`` is true exactly when the exit code is 0."""
    fmt = getattr(args, "fmt", "text")
    path = Path(args.file)
    report: Optional[WatchReport] = None
    if not path.exists():
        error: Optional[str] = (f"{path} missing; run tools/bench_smoke.py "
                                "--write first")
        code = 1 if args.strict else 0
    else:
        try:
            report = watch_file(path, against=args.against)
            error = None
            code = 1 if (args.strict and not report.ok) else 0
        except (ValueError, json.JSONDecodeError) as exc:
            error, code = str(exc), 1
    if fmt == "json":
        verdict = report.to_dict() if report is not None \
            else {"schema": _REPORT_SCHEMA, "error": error}
        verdict["ok"] = code == 0
        emit(json.dumps(verdict, indent=2, sort_keys=True))
    else:
        emit(report.summary() if report is not None
             else f"bench-watch: {error}")
    return code


def _main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.watchdog",
        description="flag tracked hot paths slower than their baseline "
                    "history entry",
    )
    add_watch_arguments(parser)
    return run_watch_from_args(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover - exercised via make bench-watch
    import sys

    sys.exit(_main())
