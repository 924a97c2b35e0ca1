"""Smoke-check the observability layer end to end.

Runs a small solve cascade, double-oracle run and Monte-Carlo simulation
with tracing, the provenance ledger *and the telemetry event bus*
enabled, then asserts that the instrumentation actually fired: a
non-empty metrics snapshot with the expected solver counters, a JSON
export that round-trips, a Prometheus export that mentions the LP
histogram, a collected span tree that feeds no ``span.*`` histogram,
no telemetry thread left alive, ledger records that satisfy the
``repro.obs/ledger-record/v4`` schema (content-addressed run ids, a
``trace_id``, a ``resources`` block), an event sink whose
``solver.iteration`` stream replays the double-oracle gap/pool
trajectory, and profiler + HTML-report exports that match their formats.
Exits non-zero on any failure, so CI (the ``ci`` Makefile target)
catches instrumentation rot the moment a refactor severs a hot path
from the registry.

Usage::

    python tools/check_obs.py                # or: make obs-check
    python tools/check_obs.py --report-smoke # or: make report-smoke
                                             # (committed ledger fixture
                                             #  -> validated HTML report)
"""

from __future__ import annotations

import json
import sys
import tempfile
import threading
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # no editable install: use the in-tree sources
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

REQUIRED_COUNTERS = (
    "equilibria.solve.count",
    "double_oracle.runs.count",
    "double_oracle.iterations.count",
    "lp.solve.count",
    "simulation.trials.count",
    "hopcroft_karp.matchings.count",
    "blossom.matchings.count",
    # The workload solves the same game twice with the result cache
    # enabled, so both faces of the cache must have fired.
    "cache.misses.count",
    "cache.hits.count",
)

#: Ledger entry points that must stamp a boolean ``cache_hit`` attribute.
CACHED_ENTRY_POINTS = (
    "equilibria.solve",
    "solvers.double_oracle",
    "solvers.fictitious_play",
)


#: Record fields the ledger-record/v4 schema requires on every line.
LEDGER_REQUIRED_KEYS = (
    "schema", "run_id", "entry_point", "started_at", "duration_s",
    "status", "trace_id", "fingerprint", "attributes", "env", "metrics",
    "resources", "spans",
)

#: Exactly the fields of a v4 record's ``resources`` block.
RESOURCES_KEYS = frozenset({
    "rss_bytes", "rss_peak_bytes", "cpu_user_s", "cpu_system_s",
    "gc_collections", "threads",
})

#: The thread the deleted resource sampler ran; none may be alive.
SAMPLER_THREAD_NAME = "repro-obs-resources"

#: The committed multi-revision ledger fixture behind `make report-smoke`.
FIXTURE_LEDGER_DIR = (
    Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "ledger"
)


def run_workload(ledger_dir: Path, events_dir: Path,
                 cache_dir: Path) -> None:
    """Exercise every instrumented layer once: tracing + ledger + events.

    The result cache is enabled for the whole workload, and the solve
    cascade runs twice — once cold (populating the store) and once as a
    replay — so the ledger carries both ``cache_hit`` polarities and the
    hit/miss counters both fire.
    """
    import repro.cache as result_cache
    from repro.core.game import TupleGame
    from repro.equilibria.solve import solve_game
    from repro.graphs.generators import complete_bipartite_graph
    from repro.obs import clear_trace, enable_tracing, get_registry
    from repro.obs import events as obs_events
    from repro.obs import ledger as obs_ledger
    from repro.simulation.engine import simulate
    from repro.solvers.double_oracle import double_oracle
    from repro.solvers.fictitious_play import fictitious_play

    get_registry().reset()
    enable_tracing(True)
    clear_trace()
    obs_ledger.enable_ledger(ledger_dir)
    obs_events.enable_events(events_dir)
    result_cache.enable_cache(cache_dir)
    try:
        game = TupleGame(complete_bipartite_graph(2, 4), k=2, nu=3)
        result = solve_game(game)
        solve_game(game)  # replayed from the cache: cache_hit=True
        simulate(game, result.mixed, trials=2_000, seed=0)
        double_oracle(game)
        fictitious_play(game, rounds=30)
    finally:
        result_cache.disable_cache()
        obs_events.disable_events()
        obs_ledger.disable_ledger()
        enable_tracing(False)


def check() -> list:
    """Return a list of failure messages (empty = healthy)."""
    from repro.obs import get_registry, get_trace, render_trace

    failures = []
    registry = get_registry()
    snapshot = registry.snapshot()

    if not snapshot["counters"]:
        failures.append("metrics snapshot has no counters at all")
    for name in REQUIRED_COUNTERS:
        if snapshot["counters"].get(name, 0) <= 0:
            failures.append(f"counter {name!r} did not fire")
    if snapshot["histograms"].get("lp.solve.seconds", {}).get("count", 0) <= 0:
        failures.append("histogram 'lp.solve.seconds' did not fire")
    if snapshot["gauges"].get("simulation.trials_per_sec", 0) <= 0:
        failures.append("gauge 'simulation.trials_per_sec' not set")

    try:
        if json.loads(registry.to_json()) != snapshot:
            failures.append("JSON export does not round-trip the snapshot")
    except json.JSONDecodeError as exc:
        failures.append(f"JSON export is not valid JSON: {exc}")
    if "repro_lp_solve_seconds" not in registry.to_prometheus():
        failures.append("Prometheus export is missing the LP solve histogram")

    span_histograms = sorted(name for name in snapshot["histograms"]
                             if name.startswith("span."))
    if span_histograms:
        failures.append("spans fed histograms (span time is read from the "
                        f"tree): {', '.join(span_histograms)}")
    if any(t.name == SAMPLER_THREAD_NAME for t in threading.enumerate()):
        failures.append(f"a {SAMPLER_THREAD_NAME!r} thread is alive after "
                        "the workload")

    spans = get_trace()
    if not spans:
        failures.append("tracing collected no spans")
    elif "equilibria.solve" not in render_trace(spans):
        failures.append("trace is missing the equilibria.solve root span")
    return failures


def check_ledger(ledger_dir: Path) -> list:
    """Validate the live ledger records against ledger-record/v4."""
    from repro.obs.ledger import RECORD_SCHEMA, canonical_sha256, read_runs

    failures = []
    records = read_runs(directory=ledger_dir)
    if not records:
        failures.append("ledger recorded no runs")
        return failures
    entry_points = {r.get("entry_point") for r in records}
    for expected in ("equilibria.solve", "solvers.double_oracle",
                     "solvers.fictitious_play"):
        if expected not in entry_points:
            failures.append(f"ledger is missing an {expected!r} record")
    for record in records:
        rid = record.get("run_id", "?")
        for key in LEDGER_REQUIRED_KEYS:
            if key not in record:
                failures.append(f"ledger record {rid}: missing key {key!r}")
        if record.get("schema") != RECORD_SCHEMA:
            failures.append(
                f"ledger record {rid}: schema {record.get('schema')!r} "
                f"!= {RECORD_SCHEMA!r}"
            )
        if record.get("status") not in ("ok", "error"):
            failures.append(f"ledger record {rid}: bad status "
                            f"{record.get('status')!r}")
        # The run id is content-addressed: recompute it from the record.
        body = {k: v for k, v in record.items() if k != "run_id"}
        if canonical_sha256(body)[:16] != record.get("run_id"):
            failures.append(
                f"ledger record {rid}: run_id does not match the sha256 "
                "of the record body"
            )
    for record in records:
        rid = record.get("run_id", "?")
        resources = record.get("resources") or {}
        if set(resources) != RESOURCES_KEYS:
            failures.append(
                f"ledger record {rid}: resources keys "
                f"{sorted(resources)} != {sorted(RESOURCES_KEYS)}"
            )
        rss = resources.get("rss_bytes") or 0
        peak = resources.get("rss_peak_bytes") or 0
        if not peak >= rss > 0:
            failures.append(
                f"ledger record {rid}: expected rss_peak_bytes >= "
                f"rss_bytes > 0, got {peak} and {rss}"
            )
    # Every solver entry point probes the result cache before opening
    # its ledger run, so the record must stamp a boolean ``cache_hit``
    # — and the twice-solved workload must show both polarities.
    cache_hits = []
    for record in records:
        if record.get("entry_point") not in CACHED_ENTRY_POINTS:
            continue
        rid = record.get("run_id", "?")
        hit = (record.get("attributes") or {}).get("cache_hit")
        if not isinstance(hit, bool):
            failures.append(
                f"ledger record {rid}: attributes.cache_hit is {hit!r}, "
                "expected a boolean"
            )
            continue
        cache_hits.append(hit)
    if True not in cache_hits:
        failures.append("no ledger record stamped cache_hit=true (the "
                        "replayed solve should have hit the cache)")
    if False not in cache_hits:
        failures.append("no ledger record stamped cache_hit=false")
    solve = next(r for r in records
                 if r.get("entry_point") == "equilibria.solve")
    fp = solve.get("fingerprint") or {}
    sha = fp.get("sha256", "")
    if len(sha) != 64 or any(c not in "0123456789abcdef" for c in sha):
        failures.append("equilibria.solve fingerprint sha256 is not a "
                        "64-char hex digest")
    if not solve.get("spans"):
        failures.append("equilibria.solve ledger record carries no spans")
    if not (solve.get("metrics") or {}).get("counters"):
        failures.append("equilibria.solve ledger record carries no metrics")
    return failures


def check_events(events_dir: Path) -> list:
    """Replay the event sink the way ``repro-defender tail`` does."""
    from repro.obs.events import EVENT_SCHEMA, EVENT_TYPES, SINK_FILENAME
    from repro.obs.events import read_events

    failures = []
    sink = events_dir / SINK_FILENAME
    if not sink.is_file():
        return [f"event sink {sink} was never written"]
    events = read_events(sink)
    if not events:
        return ["event sink replayed no events"]
    last_seq = 0
    for event in events:
        if event.get("schema") != EVENT_SCHEMA:
            failures.append(f"event schema {event.get('schema')!r} != "
                            f"{EVENT_SCHEMA!r}")
            break
        seq = event.get("seq", 0)
        if not isinstance(seq, int) or seq <= last_seq:
            failures.append(f"event seq {seq!r} is not strictly increasing")
            break
        last_seq = seq
        if event.get("type") not in EVENT_TYPES:
            failures.append(f"unknown event type {event.get('type')!r} "
                            "in the workload stream")
            break
    types = {e.get("type") for e in events}
    for expected in ("run.start", "run.end", "lp.solve", "solver.iteration"):
        if expected not in types:
            failures.append(f"workload published no {expected!r} event")
    do_steps = [
        e["payload"] for e in read_events(sink, types=["solver.iteration"])
        if e.get("payload", {}).get("solver") == "double_oracle"
    ]
    if not do_steps:
        failures.append("no double_oracle solver.iteration events to replay")
    for step in do_steps:
        if not all(k in step for k in ("iteration", "gap", "defender_pool",
                                       "attacker_pool")):
            failures.append("double_oracle iteration event lacks "
                            "gap/pool fields")
            break
    if do_steps and not any(step.get("converged") for step in do_steps):
        failures.append("double_oracle stream never announced convergence")
    fp_steps = [
        e["payload"] for e in read_events(sink, types=["solver.iteration"])
        if e.get("payload", {}).get("solver") == "fictitious_play"
    ]
    if not fp_steps or any("residual" not in s for s in fp_steps):
        failures.append("fictitious_play residual events missing")
    return failures


def check_report(ledger_dir: Path, tmp_dir: Path,
                 bench_file=None) -> list:
    """Render the HTML/markdown report and prove it is self-contained."""
    from repro.obs.report import write_report

    failures = []
    html_path = tmp_dir / "report.html"
    md_path = tmp_dir / "report.md"
    summary = write_report(ledger_dir, html_path, output_md=md_path,
                           bench_file=bench_file)
    if summary["records"] <= 0:
        failures.append(f"report covered no runs from {ledger_dir}")
    html = html_path.read_text(encoding="utf-8")
    if not html.startswith("<!DOCTYPE html>"):
        failures.append("report HTML does not start with <!DOCTYPE html>")
    if "</html>" not in html:
        failures.append("report HTML is truncated (no closing </html>)")
    if "<svg" not in html:
        failures.append("report HTML carries no inline SVG sparklines")
    if "var(--series-1)" not in html:
        failures.append("report sparklines do not use the palette token")
    if "prefers-color-scheme: dark" not in html:
        failures.append("report HTML lacks the dark-mode palette")
    for marker in ('src="http', "src='http", 'href="http', "href='http",
                   "<script src", "@import", "url(http"):
        if marker in html:
            failures.append(
                f"report HTML references an external resource ({marker!r}) "
                "— it must be self-contained"
            )
    md = md_path.read_text(encoding="utf-8")
    if not md.startswith("#"):
        failures.append("markdown report does not start with a heading")
    return failures


def report_smoke() -> int:
    """`make report-smoke`: committed fixture ledger -> validated report."""
    failures = []
    if not FIXTURE_LEDGER_DIR.is_dir():
        failures.append(f"fixture ledger {FIXTURE_LEDGER_DIR} is missing")
    bench = FIXTURE_LEDGER_DIR.parent.parent.parent / "BENCH_KERNELS.json"
    with tempfile.TemporaryDirectory(prefix="repro-report-smoke-") as tmp:
        if not failures:
            failures = check_report(
                FIXTURE_LEDGER_DIR, Path(tmp),
                bench_file=bench if bench.is_file() else None,
            )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("report smoke OK: fixture ledger rendered to self-contained "
          "HTML + markdown")
    return 0


def check_profiler(tmp_dir: Path) -> list:
    """Validate the Chrome-trace and folded-stack exports of the trace."""
    from repro.obs import get_trace
    from repro.obs.prof import write_chrome_trace, write_folded_stacks

    failures = []
    spans = get_trace()
    chrome_path = tmp_dir / "trace.json"
    folded_path = tmp_dir / "stacks.folded"
    write_chrome_trace(chrome_path, spans)
    write_folded_stacks(folded_path, spans)

    try:
        document = json.loads(chrome_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        return [f"Chrome trace is not valid JSON: {exc}"]
    events = document.get("traceEvents")
    if not isinstance(events, list) or not events:
        failures.append("Chrome trace has no traceEvents")
        events = []
    for event in events:
        if event.get("ph") != "X":
            failures.append(f"Chrome trace event {event.get('name')!r} is "
                            "not a complete ('X') event")
            break
        if not isinstance(event.get("ts"), (int, float)) \
                or not isinstance(event.get("dur"), (int, float)):
            failures.append(f"Chrome trace event {event.get('name')!r} "
                            "lacks numeric ts/dur")
            break
    if events and not any(e.get("name") == "equilibria.solve"
                          for e in events):
        failures.append("Chrome trace is missing the equilibria.solve event")

    folded = folded_path.read_text(encoding="utf-8").splitlines()
    if not folded:
        failures.append("folded-stack export is empty")
    for line in folded:
        stack, _, count = line.rpartition(" ")
        if not stack or not count.isdigit():
            failures.append(f"folded-stack line {line!r} is not "
                            "'frame;frame <count>'")
            break
    if folded and not any(line.startswith("equilibria.solve")
                          for line in folded):
        failures.append("folded stacks are missing the equilibria.solve root")
    return failures


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--report-smoke" in argv:
        return report_smoke()
    with tempfile.TemporaryDirectory(prefix="repro-obs-check-") as tmp:
        tmp_dir = Path(tmp)
        run_workload(tmp_dir / "ledger", tmp_dir / "events",
                     tmp_dir / "cache")
        failures = check()
        failures += check_ledger(tmp_dir / "ledger")
        failures += check_events(tmp_dir / "events")
        failures += check_profiler(tmp_dir)
        failures += check_report(tmp_dir / "ledger", tmp_dir)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    from repro.obs import get_registry

    snapshot = get_registry().snapshot()
    print(
        "observability OK: "
        f"{len(snapshot['counters'])} counters, "
        f"{len(snapshot['gauges'])} gauges, "
        f"{len(snapshot['histograms'])} histograms recorded; "
        "ledger records, event stream, Chrome trace, folded stacks "
        "and the HTML report validated"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
