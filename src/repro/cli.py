"""Command-line interface: solve defender games on graphs from disk.

Usage examples (after ``pip install -e .``)::

    repro-defender info network.edges
    repro-defender solve network.edges -k 3 --nu 5
    repro-defender pure network.edges -k 8
    repro-defender gain network.edges --nu 4 --lp
    repro-defender simulate network.edges -k 2 --nu 3 --trials 20000
    repro-defender stats network.edges -k 2 --trace
    repro-defender stats network.edges -k 2 --format prometheus -o met.prom
    repro-defender profile network.edges -k 2 --chrome-trace trace.json
    repro-defender lint --strict --baseline
    repro-defender fuzz --count 50 --seed 7 --corpus tests/corpus --replay
    repro-defender watch --file BENCH_KERNELS.json --strict
    repro-defender tail --follow --type solver.iteration
    repro-defender ledger stats --group-by git_rev
    repro-defender ledger report -o report.html --markdown report.md
    repro-defender ledger diff 9f2c1a07 3c881b2e
    repro-defender solve network.edges -k 3 --cache
    repro-defender cache stats
    repro-defender cache lookup --solver equilibria.solve
    repro-defender cache gc --max-age 86400
    repro-defender serve --port 8400 --access-log --slo-config slo.json
    repro-defender slo check --config slo.json --access-path .repro/access
    repro-defender slo report --config slo.json --format json

Graphs are edge-list files (``u v`` per line, ``#`` comments) or ``.json``
documents — see :mod:`repro.graphs.io`.

Every subcommand accepts the observability flags ``--quiet``,
``--verbose``, ``--log-json``, ``--trace``, ``--ledger`` /
``--ledger-dir DIR``, ``--events`` / ``--events-dir DIR``,
``--access-log`` / ``--access-log-dir DIR`` and
``--cache`` / ``--cache-dir DIR`` (before
or after the subcommand); see ``docs/observability.md``.  All normal output flows
through one :func:`_emit` helper, so ``--quiet`` silences it and
``--log-json`` turns each message into a JSON line without touching the
default plain-text format.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

import repro.cache as result_cache
from repro.analysis.gain import fit_slope_through_origin, gain_curve
from repro.analysis.tables import Table
from repro.core.game import GameError, TupleGame
from repro.core.profits import expected_profit_tp, hit_probability
from repro.core.pure import find_pure_nash, pure_nash_exists
from repro.equilibria.solve import NoEquilibriumFoundError, solve_game
from repro.fuzz import add_fuzz_arguments as fuzz_arguments
from repro.fuzz import run_fuzz_from_args
from repro.graphs.core import Graph, vertex_sort_key
from repro.graphs.io import load_graph
from repro.graphs.properties import is_bipartite
from repro.lint import add_lint_arguments as lint_arguments
from repro.lint import run_from_args as run_lint_from_args
from repro.matching.blossom import matching_number
from repro.matching.covers import minimum_edge_cover_size
from repro.obs import access as obs_access
from repro.obs import events as obs_events
from repro.obs import ledger as obs_ledger
from repro.obs import log as obs_log
from repro.obs import metrics as obs_metrics
from repro.obs import prof as obs_prof
from repro.obs import report as obs_report
from repro.obs import tracing as obs_tracing
from repro.obs.watchdog import add_watch_arguments as watch_arguments
from repro.obs.watchdog import run_watch_from_args
from repro.simulation.engine import simulate

__all__ = ["main", "build_parser"]


class _OutputConfig:
    """Process-global CLI output switches set by :func:`main`."""

    __slots__ = ("quiet", "json_mode")

    def __init__(self) -> None:
        self.quiet = False
        self.json_mode = False


_OUTPUT = _OutputConfig()


def _emit(text: object = "", *, err: bool = False) -> None:
    """Single exit point for CLI output.

    Plain ``print`` by default (so default output is byte-identical to a
    direct print); ``--quiet`` suppresses stdout messages; ``--log-json``
    wraps every message in a one-line JSON event.  Errors (``err=True``)
    go to stderr and are never silenced.
    """
    if _OUTPUT.quiet and not err:
        return
    stream = sys.stderr if err else sys.stdout
    if _OUTPUT.json_mode:
        event = "error" if err else "output"
        print(json.dumps({"event": event, "text": str(text)}), file=stream)
    else:
        print(text, file=stream)


#: The opt-in switches: (flag, help, directory noun, enable, disable).
#: ``--<flag>-dir DIR`` implies ``--<flag>``; every switch turned on for
#: a command is turned off again when it returns.
_SWITCHES = (
    ("ledger", "record the run into the provenance ledger "
               "(.repro/ledger by default)", "ledger directory",
     obs_ledger.enable_ledger, obs_ledger.disable_ledger),
    ("events", "publish telemetry events to the JSONL sink "
               "(.repro/events by default; stream with repro-defender tail)",
     "event sink directory",
     obs_events.enable_events, obs_events.disable_events),
    ("access-log", "append one structured JSONL line per served request "
                   "(.repro/access by default; only the serve command "
                   "writes)", "access-log directory",
     obs_access.enable_access_log, obs_access.disable_access_log),
    ("cache", "memoize solver results in the content-addressed cache "
              "(.repro/cache by default)", "result-cache directory",
     result_cache.enable_cache, result_cache.disable_cache),
)


def _add_obs_flags(parser: argparse.ArgumentParser, default) -> None:
    group = parser.add_argument_group("observability")
    group.add_argument(
        "--quiet", action="store_true", default=default,
        help="suppress normal output (errors still print)",
    )
    group.add_argument(
        "--verbose", action="store_true", default=default,
        help="emit info-level structured logs on stderr",
    )
    group.add_argument(
        "--log-json", action="store_true", default=default,
        help="output and logs as JSON lines instead of plain text",
    )
    group.add_argument(
        "--trace", action="store_true", default=default,
        help="collect spans and print the timing trace after the command",
    )
    for flag, help_text, directory, _enable, _disable in _SWITCHES:
        group.add_argument(f"--{flag}", action="store_true",
                           default=default, help=help_text)
        group.add_argument(
            f"--{flag}-dir",
            default=default if default is argparse.SUPPRESS else None,
            metavar="DIR", help=f"{directory} (implies --{flag})",
        )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    # Subparsers copy their namespace over the top-level one (bpo-29670),
    # so the per-subcommand copies of the flags must SUPPRESS their
    # defaults or they would clobber flags given before the subcommand.
    obs_parent = argparse.ArgumentParser(add_help=False)
    _add_obs_flags(obs_parent, default=argparse.SUPPRESS)

    parser = argparse.ArgumentParser(
        prog="repro-defender",
        description=(
            "Nash equilibria of the Tuple-model network security game "
            "('The Power of the Defender', ICDCS 2006)."
        ),
    )
    _add_obs_flags(parser, default=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text, parents=[obs_parent])
        p.add_argument("graph", help="edge-list or .json graph file")
        return p

    add_command("info", "structural summary of a graph")

    p_pure = add_command("pure", "pure NE existence and construction")
    p_pure.add_argument("-k", type=int, required=True, help="defender power")
    p_pure.add_argument("--nu", type=int, default=1, help="number of attackers")

    p_solve = add_command("solve", "compute an equilibrium")
    p_solve.add_argument("-k", type=int, required=True)
    p_solve.add_argument("--nu", type=int, default=1)
    p_solve.add_argument("--seed", type=int, default=0)

    p_gain = add_command("gain", "defender gain vs k sweep")
    p_gain.add_argument("--nu", type=int, default=1)
    p_gain.add_argument("--lp", action="store_true", help="cross-check with exact LP")
    p_gain.add_argument("--seed", type=int, default=0)

    p_sim = add_command("simulate", "Monte-Carlo validation of an equilibrium")
    p_sim.add_argument("-k", type=int, required=True)
    p_sim.add_argument("--nu", type=int, default=1)
    p_sim.add_argument("--trials", type=int, default=10_000)
    p_sim.add_argument("--seed", type=int, default=0)

    p_report = add_command("report", "full security report for a network")
    p_report.add_argument("-k", type=int, required=True)
    p_report.add_argument("--nu", type=int, default=1)
    p_report.add_argument("--trials", type=int, default=20_000)
    p_report.add_argument("--seed", type=int, default=0)

    p_export = add_command(
        "export", "solve and write the scan schedule as a JSON document"
    )
    p_export.add_argument("-k", type=int, required=True)
    p_export.add_argument("--nu", type=int, default=1)
    p_export.add_argument("--seed", type=int, default=0)
    p_export.add_argument("-o", "--output", required=True,
                          help="path for the JSON schedule document")

    p_shapes = add_command(
        "shapes", "compare defender shapes (tuple vs path vs star)"
    )
    p_shapes.add_argument("-k", type=int, required=True)

    p_ranges = add_command(
        "ranges",
        "probe the optimal polytopes: usable attack hosts, "
        "mandatory scan links",
    )
    p_ranges.add_argument("-k", type=int, required=True)

    p_adaptive = add_command(
        "redteam", "run a no-regret red-team drill against the "
                   "equilibrium schedule"
    )
    p_adaptive.add_argument("-k", type=int, required=True)
    p_adaptive.add_argument("--rounds", type=int, default=8_000)
    p_adaptive.add_argument("--seed", type=int, default=0)

    p_stats = add_command(
        "stats", "run a traced solve and print the metrics snapshot"
    )
    p_stats.add_argument("-k", type=int, required=True)
    p_stats.add_argument("--nu", type=int, default=1)
    p_stats.add_argument("--seed", type=int, default=0)
    p_stats.add_argument(
        "--format", choices=("text", "json", "prom", "prometheus"),
        default="text", dest="fmt", help="snapshot format (default: text)",
    )
    p_stats.add_argument(
        "-o", "--output", default=None, metavar="FILE",
        help="write the snapshot to FILE instead of stdout",
    )

    p_profile = add_command(
        "profile", "profile a solve: span aggregation plus flamegraph "
                   "and Chrome-trace export"
    )
    p_profile.add_argument("-k", type=int, required=True)
    p_profile.add_argument("--nu", type=int, default=1)
    p_profile.add_argument("--seed", type=int, default=0)
    p_profile.add_argument(
        "--chrome-trace", default=None, metavar="FILE",
        help="write a chrome://tracing / Perfetto trace_event JSON file",
    )
    p_profile.add_argument(
        "--folded", default=None, metavar="FILE",
        help="write folded stacks (flamegraph.pl / speedscope input)",
    )

    # lint takes no graph — it analyzes the source tree itself.
    p_lint = sub.add_parser(
        "lint",
        help="run the AST-based domain-invariant analyzer on the source tree",
        parents=[obs_parent],
    )
    lint_arguments(p_lint)

    # fuzz takes no graph either — it generates its own instances.
    p_fuzz = sub.add_parser(
        "fuzz",
        help="differentially fuzz the solver stack on random games",
        parents=[obs_parent],
    )
    fuzz_arguments(p_fuzz)

    # watch takes no graph — it compares benchmark timings to history.
    p_watch = sub.add_parser(
        "watch",
        help="check benchmark timings against their baseline history entry",
        parents=[obs_parent],
    )
    watch_arguments(p_watch)

    # tail takes no graph — it streams the telemetry event sink.
    p_tail = sub.add_parser(
        "tail",
        help="stream telemetry events from a live or finished run",
        parents=[obs_parent],
    )
    p_tail.add_argument(
        "--file", default=None, metavar="PATH",
        help="event sink file (default: <events-dir>/events.jsonl)",
    )
    p_tail.add_argument(
        "--dir", default=None, metavar="DIR", dest="tail_dir",
        help="event sink directory (default: .repro/events)",
    )
    p_tail.add_argument(
        "-f", "--follow", action="store_true",
        help="keep polling for new events until interrupted",
    )
    p_tail.add_argument(
        "--type", action="append", default=None, metavar="TYPE",
        dest="event_types",
        help="only this event type (repeatable; e.g. solver.iteration)",
    )
    p_tail.add_argument(
        "--count", type=int, default=None, metavar="N",
        help="only the newest N events (without --follow)",
    )

    # ledger takes no graph — it queries the run-provenance ledger.
    p_ledger = sub.add_parser(
        "ledger",
        help="analytics over the run-provenance ledger: stats, queries, "
             "diffs and HTML reports",
        parents=[obs_parent],
    )
    ledger_sub = p_ledger.add_subparsers(dest="ledger_command",
                                         required=True)

    def add_ledger_command(name: str, help_text: str):
        p = ledger_sub.add_parser(name, help=help_text, parents=[obs_parent])
        p.add_argument(
            "--dir", default=obs_ledger.DEFAULT_LEDGER_DIR, metavar="DIR",
            dest="ledger_query_dir", help="ledger directory to read "
            "(default: .repro/ledger)",
        )
        return p

    p_lstats = add_ledger_command(
        "stats", "aggregate runs: count, error rate, latency percentiles"
    )
    p_lstats.add_argument(
        "--group-by", choices=obs_report.GROUP_KEYS, default="entry_point",
        help="aggregation dimension (default: entry_point)",
    )
    p_lstats.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt",
    )

    p_lquery = add_ledger_command(
        "query", "filter and list individual ledger records"
    )
    p_lquery.add_argument("--entry-point", default=None)
    p_lquery.add_argument("--status", choices=("ok", "error"), default=None)
    p_lquery.add_argument(
        "--fingerprint", default=None, metavar="SHA256",
        help="full game-fingerprint hash to match",
    )
    p_lquery.add_argument(
        "--since", type=float, default=None, metavar="UNIX_TS",
        help="runs started at or after this UNIX timestamp",
    )
    p_lquery.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="newest N matching runs",
    )
    p_lquery.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt",
    )

    p_lreport = add_ledger_command(
        "report", "render the self-contained HTML run report"
    )
    p_lreport.add_argument(
        "-o", "--output", default="report.html", metavar="FILE",
        help="HTML output path (default: report.html)",
    )
    p_lreport.add_argument(
        "--markdown", default=None, metavar="FILE",
        help="also write a markdown summary to FILE",
    )
    p_lreport.add_argument(
        "--bench-file", default="BENCH_KERNELS.json", metavar="PATH",
        help="benchmark trajectory folded into the report when present",
    )
    p_lreport.add_argument(
        "--title", default="repro-defender run report",
    )
    p_lreport.add_argument(
        "--slo-config", default=None, metavar="FILE",
        help="SLO objectives JSON folded into an SLO panel (built-in "
             "availability + latency objectives when only --access-path "
             "is given)",
    )
    p_lreport.add_argument(
        "--access-path", default=None, metavar="PATH", dest="access_path",
        help="access log (file or directory) the SLO panel is computed "
             "from (default: .repro/access when --slo-config is given)",
    )

    p_ldiff = add_ledger_command(
        "diff", "field-by-field comparison of two recorded runs"
    )
    p_ldiff.add_argument("run_id_a", help="first run id (prefix allowed)")
    p_ldiff.add_argument("run_id_b", help="second run id (prefix allowed)")
    p_ldiff.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt",
    )

    # cache takes no graph — it inspects the solve-result cache.
    p_cache = sub.add_parser(
        "cache",
        help="inspect and maintain the content-addressed solve-result "
             "cache: stats, lookup, gc",
        parents=[obs_parent],
    )
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)

    def add_cache_command(name: str, help_text: str):
        p = cache_sub.add_parser(name, help=help_text, parents=[obs_parent])
        p.add_argument(
            "--dir", default=None, metavar="DIR", dest="cache_query_dir",
            help="cache directory to operate on "
                 f"(default: {result_cache.DEFAULT_CACHE_DIR})",
        )
        return p

    p_cstats = add_cache_command(
        "stats", "store totals and per-solver entry/hit breakdown"
    )
    p_cstats.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt",
    )

    p_clookup = add_cache_command(
        "lookup", "list cache entries (metadata only), newest access first"
    )
    p_clookup.add_argument(
        "key_prefix", nargs="?", default=None,
        help="only entries whose key starts with this hex prefix",
    )
    p_clookup.add_argument(
        "--solver", default=None, metavar="NAME",
        help="only entries for this solver (e.g. equilibria.solve)",
    )
    p_clookup.add_argument(
        "--limit", type=int, default=20, metavar="N",
        help="newest N entries (default: 20)",
    )
    p_clookup.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt",
    )

    p_cgc = add_cache_command(
        "gc", "evict stale entries and re-enforce the size policy"
    )
    p_cgc.add_argument(
        "--max-age", type=float, default=None, metavar="SECONDS",
        help="evict entries not accessed within SECONDS (0 empties the "
             "store); omitted: only the size policy is enforced",
    )
    p_cgc.add_argument(
        "--solver", default=None, metavar="NAME",
        help="restrict age-based eviction to this solver's entries",
    )

    # serve takes no graph — clients POST canonical game JSON to it.
    p_serve = sub.add_parser(
        "serve",
        help="run the HTTP solve service (POST /solve, /double-oracle, "
             "/fictitious-play, /ranges; GET /healthz, /metrics, /slo, "
             "/debug/events)",
        parents=[obs_parent],
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: %(default)s)",
    )
    p_serve.add_argument(
        "--port", type=int, default=8400,
        help="bind port; 0 picks an ephemeral one (default: %(default)s)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=2,
        help="solver worker threads (default: %(default)s)",
    )
    p_serve.add_argument(
        "--queue-limit", type=int, default=8,
        help="requests allowed to wait beyond the running ones before "
             "429s are served (default: %(default)s)",
    )
    p_serve.add_argument(
        "--timeout", type=float, default=60.0, metavar="SECONDS",
        help="per-request solver deadline; exceeding it returns 504 "
             "(default: %(default)s)",
    )
    p_serve.add_argument(
        "--slo-config", default=None, metavar="FILE",
        help="SLO objectives JSON (repro.obs/slo-config/v1) evaluated "
             "live behind GET /slo (default: built-in availability + "
             "latency objectives)",
    )

    # slo takes no graph — it evaluates objectives over an access log.
    p_slo = sub.add_parser(
        "slo",
        help="evaluate service-level objectives over a recorded access "
             "log: burn rates, error budgets, breaches",
        parents=[obs_parent],
    )
    slo_sub = p_slo.add_subparsers(dest="slo_command", required=True)

    def add_slo_command(name: str, help_text: str):
        p = slo_sub.add_parser(name, help=help_text, parents=[obs_parent])
        p.add_argument(
            "--config", default=None, metavar="FILE",
            help="SLO objectives JSON (repro.obs/slo-config/v1); "
                 "omitted: the built-in defaults",
        )
        p.add_argument(
            "--access-path", default=obs_access.DEFAULT_ACCESS_DIR,
            metavar="PATH", dest="access_path",
            help="access log to evaluate: a JSONL file or a directory "
                 "containing access.jsonl (default: %(default)s)",
        )
        p.add_argument(
            "--now", type=float, default=None, metavar="UNIX_TS",
            help="anchor the sliding windows at this timestamp "
                 "(default: the newest access record)",
        )
        return p

    add_slo_command(
        "check",
        "exit non-zero when any objective is in breach (the CI gate)",
    )
    p_slo_report = add_slo_command(
        "report", "per-objective burn rates, budgets and p95 latencies"
    )
    p_slo_report.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt",
    )

    return parser


def _cmd_info(graph: Graph) -> int:
    rho = minimum_edge_cover_size(graph)
    table = Table(["property", "value"])
    table.add_row(["vertices (n)", graph.n])
    table.add_row(["edges (m)", graph.m])
    table.add_row(["bipartite", is_bipartite(graph)])
    table.add_row(["maximum matching ν(G)", matching_number(graph)])
    table.add_row(["minimum edge cover ρ(G)", rho])
    table.add_row(["pure NE exists iff k ≥", rho])
    _emit(table.render())
    return 0


def _cmd_pure(graph: Graph, k: int, nu: int) -> int:
    game = TupleGame(graph, k, nu)
    if not pure_nash_exists(game):
        rho = minimum_edge_cover_size(graph)
        _emit(
            f"no pure NE: k={k} < minimum edge cover ρ(G)={rho} (Theorem 3.1)"
        )
        return 1
    pure = find_pure_nash(game)
    if pure is None:
        raise GameError("find_pure_nash found no pure NE (Theorem 3.1)")
    _emit(f"pure NE exists (Theorem 3.1); defender gain = ν = {nu}")
    _emit("defender cover: " + " ".join(f"{u}-{v}" for u, v in pure.tuple_choice))
    return 0


def _cmd_solve(graph: Graph, k: int, nu: int, seed: int) -> int:
    game = TupleGame(graph, k, nu)
    try:
        result = solve_game(game, seed=seed)
    except NoEquilibriumFoundError as exc:
        _emit(f"no structural equilibrium: {exc}")
        return 1
    _emit(f"equilibrium kind : {result.kind}")
    _emit(f"defender gain    : {result.defender_gain:.6f}")
    if result.kind == "k-matching":
        config = result.mixed
        support = sorted(config.vp_support_union(), key=vertex_sort_key)
        hit = hit_probability(config, support[0])
        _emit(f"attacker support : {support}")
        _emit(f"defender tuples  : {len(config.tp_support())}")
        _emit(f"hit probability  : {hit:.6f} (= k/ρ(G))")
    return 0


def _cmd_gain(graph: Graph, nu: int, lp: bool, seed: int) -> int:
    points = gain_curve(graph, nu, include_lp=lp, seed=seed)
    headers = ["k", "kind", "gain"] + (["lp_gain"] if lp else [])
    table = Table(headers)
    for p in points:
        row: List = [p.k, p.kind, p.gain]
        if lp:
            row.append("-" if p.lp_gain is None else p.lp_gain)
        table.add_row(row)
    _emit(table.render(title=f"defender gain vs k (nu={nu})"))
    mixed = [p for p in points if p.kind == "k-matching"]
    if mixed:
        slope = fit_slope_through_origin(mixed)
        _emit(f"fitted slope through origin: {slope:.6f} "
              f"(theory: ν/ρ = {nu / minimum_edge_cover_size(graph):.6f})")
    return 0


def _cmd_simulate(graph: Graph, k: int, nu: int, trials: int, seed: int) -> int:
    game = TupleGame(graph, k, nu)
    try:
        result = solve_game(game, seed=seed)
    except NoEquilibriumFoundError as exc:
        _emit(f"no structural equilibrium: {exc}")
        return 1
    report = simulate(game, result.mixed, trials=trials, seed=seed)
    analytic = expected_profit_tp(result.mixed)
    low, high = report.defender_profit.confidence_interval()
    _emit(f"equilibrium kind        : {result.kind}")
    _emit(f"analytic defender gain  : {analytic:.6f}")
    _emit(
        f"simulated defender gain : {report.defender_profit.mean:.6f} "
        f"(95% CI [{low:.6f}, {high:.6f}], {trials} trials)"
    )
    inside = low <= analytic <= high
    _emit(f"analytic value inside CI: {'yes' if inside else 'no'}")
    return 0


def _cmd_report(graph: Graph, k: int, nu: int, trials: int, seed: int) -> int:
    from repro.analysis.report import security_report

    try:
        _emit(security_report(graph, k, nu=nu, trials=trials, seed=seed))
    except NoEquilibriumFoundError as exc:
        _emit(f"no structural equilibrium at the operating point: {exc}")
        return 1
    return 0


def _cmd_export(graph: Graph, k: int, nu: int, seed: int, output: str) -> int:
    from pathlib import Path

    from repro.core.serialize import solve_result_to_json

    try:
        result = solve_game(TupleGame(graph, k, nu), seed=seed)
    except NoEquilibriumFoundError as exc:
        _emit(f"no structural equilibrium: {exc}")
        return 1
    Path(output).write_text(solve_result_to_json(result) + "\n")
    _emit(f"wrote {result.kind} schedule (gain {result.defender_gain:.4f}) "
          f"to {output}")
    return 0


def _cmd_shapes(graph: Graph, k: int) -> int:
    from repro.models.families import KPathFamily, KStarFamily, KTupleFamily
    from repro.models.game import GeneralizedGame

    table = Table(["family", "strategies", "duel value", "vs tuple"])
    reference = None
    for family in (KTupleFamily(k), KStarFamily(k), KPathFamily(k)):
        try:
            game = GeneralizedGame(graph, family, nu=1)
            value = game.solve_minimax().value
        except GameError as exc:
            table.add_row([family.name, "-", f"({exc})", "-"])
            continue
        if reference is None:
            reference = value
        table.add_row([
            family.name, game.strategy_count(), value,
            f"{100 * value / reference:.1f}%",
        ])
    _emit(table.render(title=f"defender shape comparison at k={k}"))
    return 0


def _cmd_ranges(graph: Graph, k: int) -> int:
    from repro.solvers.ranges import attacker_vertex_ranges, defender_edge_ranges

    game = TupleGame(graph, k, nu=1)
    attacker = attacker_vertex_ranges(game)
    defender = defender_edge_ranges(game)
    _emit(f"duel value (per attacker): {attacker.value:.6f}\n")

    v_table = Table(["host", "attack prob min", "attack prob max"])
    for v in graph.sorted_vertices():
        low, high = attacker.ranges[v]
        v_table.add_row([str(v), low, high])
    _emit(v_table.render(title="attacker probability ranges over all optima"))

    e_table = Table(["link", "scan prob min", "scan prob max"])
    for e in graph.sorted_edges():
        low, high = defender.ranges[e]
        e_table.add_row([f"{e[0]}-{e[1]}", low, high])
    _emit()
    _emit(e_table.render(title="defender marginal scan ranges over all optima"))
    mandatory = defender.required()
    if mandatory:
        _emit("\nmandatory links (positive in every optimal schedule): "
              + ", ".join(f"{u}-{v}" for u, v in mandatory))
    return 0


def _cmd_redteam(graph: Graph, k: int, rounds: int, seed: int) -> int:
    from repro.matching.covers import minimum_edge_cover_size as _rho
    from repro.simulation.adaptive import exploit_gap, regret_matching_attack

    game = TupleGame(graph, k, nu=1)
    try:
        result = solve_game(game)
    except NoEquilibriumFoundError as exc:
        _emit(f"no structural equilibrium: {exc}")
        return 1
    drill = regret_matching_attack(game, result.mixed, rounds=rounds, seed=seed)
    rho = _rho(graph)
    value = min(1.0, k / rho)
    gap = exploit_gap(drill, value)
    _emit(f"schedule            : {result.kind} equilibrium")
    _emit(f"rounds probed       : {drill.rounds}")
    _emit(f"red-team escape rate: {drill.escape_rate:.4f}")
    _emit(f"theoretical cap     : {1 - value:.4f} (1 - k/rho)")
    _emit(f"exploit gap         : {gap:+.4f}")
    verdict = "schedule holds" if gap < 0.05 else "SCHEDULE EXPLOITED"
    _emit(f"verdict             : {verdict}")
    return 0


def _cmd_stats(
    graph: Graph, k: int, nu: int, seed: int, fmt: str,
    output: Optional[str] = None,
) -> int:
    """Run a fully traced solve and print the observability snapshot."""
    obs_tracing.enable_tracing(True)
    obs_tracing.clear_trace()
    game = TupleGame(graph, k, nu)
    kind: Optional[str] = None
    gain: Optional[float] = None
    code = 0
    try:
        result = solve_game(game, seed=seed)
        kind, gain = result.kind, result.defender_gain
    except NoEquilibriumFoundError as exc:
        _emit(f"no structural equilibrium: {exc}")
        code = 1
    registry = obs_metrics.get_registry()

    def _deliver(text: str) -> None:
        if output is not None:
            from pathlib import Path

            Path(output).write_text(text.rstrip("\n") + "\n")
            _emit(f"wrote {fmt} snapshot to {output}")
        else:
            _emit(text.rstrip("\n"))

    if fmt == "json":
        _deliver(registry.to_json())
        return code
    if fmt in ("prom", "prometheus"):
        _deliver(registry.to_prometheus())
        return code
    lines: List[str] = []
    if kind is not None:
        lines.append(f"equilibrium kind : {kind}")
        lines.append(f"defender gain    : {gain:.6f}")
    lines.append("\n== trace ==")
    lines.append(obs_tracing.render_trace())
    lines.append("\n== span aggregation ==")
    lines.append(obs_prof.render_aggregate(obs_prof.aggregate()))
    lines.append("\n== metrics snapshot ==")
    lines.append(obs_metrics.render_snapshot(registry.snapshot()))
    _deliver("\n".join(lines))
    return code


def _cmd_profile(
    graph: Graph, k: int, nu: int, seed: int,
    chrome_trace: Optional[str], folded: Optional[str],
) -> int:
    """Run a traced solve and report/export the deterministic profile."""
    obs_tracing.enable_tracing(True)
    obs_tracing.clear_trace()
    game = TupleGame(graph, k, nu)
    code = 0
    try:
        result = solve_game(game, seed=seed)
        _emit(f"equilibrium kind : {result.kind}")
        _emit(f"defender gain    : {result.defender_gain:.6f}")
    except NoEquilibriumFoundError as exc:
        _emit(f"no structural equilibrium: {exc}")
        code = 1
    spans = obs_tracing.get_trace()
    _emit("\n== span aggregation (self-time hot spots first) ==")
    _emit(obs_prof.render_aggregate(obs_prof.aggregate(spans)))
    if chrome_trace is not None:
        obs_prof.write_chrome_trace(chrome_trace, spans)
        _emit(f"\nwrote Chrome trace_event JSON to {chrome_trace} "
              "(load in chrome://tracing or ui.perfetto.dev)")
    if folded is not None:
        obs_prof.write_folded_stacks(folded, spans)
        _emit(f"wrote folded stacks to {folded} "
              "(flamegraph.pl / speedscope input)")
    return code


def _render_event(event: dict) -> str:
    payload = event.get("payload") or {}
    fields = " ".join(f"{key}={payload[key]}" for key in sorted(payload))
    return f"{event.get('seq', '?'):>6}  {event.get('type', '?'):16s} {fields}"


def _cmd_tail(args: argparse.Namespace) -> int:
    """Stream events from a sink file (live with --follow)."""
    from pathlib import Path

    if args.file is not None:
        sink = Path(args.file)
    else:
        sink = Path(args.tail_dir or obs_events.DEFAULT_EVENTS_DIR) \
            / obs_events.SINK_FILENAME
    if not sink.exists() and not args.follow:
        _emit(f"tail: no event sink at {sink} (record one with --events "
              "or REPRO_EVENTS=1)", err=True)
        return 1
    if args.follow:
        try:
            for event in obs_events.tail_events(
                sink, types=args.event_types, follow=True
            ):
                _emit(_render_event(event))
        except KeyboardInterrupt:
            pass
        return 0
    events = obs_events.read_events(sink, types=args.event_types)
    if args.count is not None and args.count >= 0:
        events = events[len(events) - min(args.count, len(events)):]
    for event in events:
        _emit(_render_event(event))
    _emit(f"({len(events)} events from {sink})")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the HTTP solve service in the foreground until interrupted."""
    import asyncio

    from repro.obs import slo as obs_slo
    from repro.serve import DefenderService, ServeConfig

    objectives = None
    if args.slo_config is not None:
        try:
            objectives = obs_slo.load_slo_config(args.slo_config)
        except ValueError as exc:
            _emit(f"error: {exc}", err=True)
            return 2
    config = ServeConfig(
        host=args.host, port=args.port, workers=args.workers,
        queue_limit=args.queue_limit, request_timeout_s=args.timeout,
    )
    service = DefenderService(config, slo_objectives=objectives)

    async def _run() -> None:
        await service.start()
        _emit(f"serving on http://{config.host}:{service.port} "
              f"({config.workers} workers, queue {config.queue_limit}, "
              f"timeout {config.request_timeout_s:g}s) — Ctrl-C to stop")
        await service.serve_forever()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        _emit("serve: interrupted, shutting down")
    return 0


def _cmd_ledger_stats(args: argparse.Namespace) -> int:
    directory = args.ledger_query_dir
    records = obs_ledger.read_runs(directory=directory)
    rows = obs_report.aggregate_runs(records, group_by=args.group_by)
    if args.fmt == "json":
        _emit(json.dumps(rows, indent=2, sort_keys=True))
        return 0
    table = Table([args.group_by, "runs", "errors", "err%", "p50 s", "p95 s"])
    for row in rows:
        table.add_row([
            row["key"], row["count"], row["errors"],
            f"{row['error_rate'] * 100:.1f}",
            f"{row['duration_s']['p50']:.4f}",
            f"{row['duration_s']['p95']:.4f}",
        ])
    _emit(table.render(title=f"{len(records)} runs in {directory}"))
    return 0


def _cmd_ledger_query(args: argparse.Namespace) -> int:
    records = obs_ledger.read_runs(
        directory=args.ledger_query_dir,
        entry_point=args.entry_point,
        status=args.status,
        fingerprint_sha256=args.fingerprint,
        since=args.since,
        limit=args.limit,
    )
    if args.fmt == "json":
        _emit(json.dumps(records, indent=2, sort_keys=True))
        return 0
    table = Table(["run_id", "entry point", "status", "duration s",
                   "git rev"])
    for record in records:
        table.add_row([
            record.get("run_id", "?"),
            record.get("entry_point", "?"),
            record.get("status", "?"),
            f"{record.get('duration_s', 0.0):.4f}",
            (record.get("env") or {}).get("git_rev", "?"),
        ])
    _emit(table.render(title=f"{len(records)} matching runs"))
    return 0


def _cmd_ledger_report(args: argparse.Namespace) -> int:
    slo_report = None
    if args.slo_config is not None or args.access_path is not None:
        from repro.obs import slo as obs_slo

        try:
            objectives = (obs_slo.load_slo_config(args.slo_config)
                          if args.slo_config is not None
                          else obs_slo.default_objectives())
        except ValueError as exc:
            _emit(f"error: {exc}", err=True)
            return 2
        access = args.access_path or obs_access.DEFAULT_ACCESS_DIR
        slo_report = obs_slo.evaluate_slos(
            objectives, obs_access.read_access(access)
        )
    summary = obs_report.write_report(
        args.ledger_query_dir, args.output, output_md=args.markdown,
        bench_file=args.bench_file, title=args.title,
        slo_report=slo_report,
    )
    _emit(f"report over {summary['records']} runs "
          f"({summary['entry_points']} entry points): "
          + ", ".join(summary["written"]))
    return 0


def _cmd_ledger_diff(args: argparse.Namespace) -> int:
    directory = args.ledger_query_dir
    try:
        run_a = obs_ledger.find_run(args.run_id_a, directory=directory)
        run_b = obs_ledger.find_run(args.run_id_b, directory=directory)
    except ValueError as exc:
        _emit(f"error: {exc}", err=True)
        return 2
    missing = [rid for rid, rec in ((args.run_id_a, run_a),
                                    (args.run_id_b, run_b)) if rec is None]
    if missing:
        _emit("error: no recorded run matching " + ", ".join(missing),
              err=True)
        return 2
    diff = obs_ledger.run_diff(run_a, run_b)
    if args.fmt == "json":
        _emit(json.dumps(diff, indent=2, sort_keys=True))
        return 0
    _emit(f"run a            : {diff['run_a']} ({diff['entry_points'][0]})")
    _emit(f"run b            : {diff['run_b']} ({diff['entry_points'][1]})")
    _emit(f"same fingerprint : "
          f"{'yes' if diff['same_fingerprint'] else 'no'}")
    _emit(f"duration delta   : {diff['duration_delta_s']:+.6f} s")
    for key, change in diff["env_changes"].items():
        _emit(f"env {key}: {change['a']} -> {change['b']}")
    for section in ("counters", "gauges", "histogram_means"):
        deltas = diff["metrics"][section]
        if not deltas:
            continue
        _emit(f"{section}:")
        for name, delta in deltas.items():
            _emit(f"  {name}: {delta:+g}")
    return 0


def _cmd_cache_stats(args: argparse.Namespace) -> int:
    stats = result_cache.open_store(args.cache_query_dir).stats()
    if args.fmt == "json":
        _emit(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    _emit(f"store            : {stats['path']} "
          f"(schema v{stats['schema_version']})")
    _emit(f"entries          : {stats['entries']} / {stats['max_entries']}")
    _emit(f"payload bytes    : {stats['bytes']} / {stats['max_bytes']}")
    if stats["solvers"]:
        table = Table(["solver", "entries", "bytes", "hits"])
        for solver in sorted(stats["solvers"]):
            row = stats["solvers"][solver]
            table.add_row([solver, row["entries"], row["bytes"],
                           row["hits"]])
        _emit(table.render(title="per-solver breakdown"))
    return 0


def _cmd_cache_lookup(args: argparse.Namespace) -> int:
    entries = result_cache.open_store(args.cache_query_dir).entries(
        key_prefix=args.key_prefix, solver=args.solver, limit=args.limit,
    )
    if args.fmt == "json":
        _emit(json.dumps(entries, indent=2, sort_keys=True))
        return 0
    table = Table(["key", "solver", "fingerprint", "bytes", "hits"])
    for entry in entries:
        table.add_row([
            entry["key"][:16], entry["solver"],
            entry["fingerprint"][:16], entry["size_bytes"], entry["hits"],
        ])
    _emit(table.render(title=f"{len(entries)} matching cache entries"))
    return 0


def _cmd_cache_gc(args: argparse.Namespace) -> int:
    store = result_cache.open_store(args.cache_query_dir)
    evicted = store.gc(max_age_s=args.max_age, solver=args.solver)
    remaining = store.stats()["entries"]
    _emit(f"evicted {evicted} entries ({remaining} remain)")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    if args.cache_command == "stats":
        return _cmd_cache_stats(args)
    if args.cache_command == "lookup":
        return _cmd_cache_lookup(args)
    if args.cache_command == "gc":
        return _cmd_cache_gc(args)
    raise GameError(f"unknown cache command {args.cache_command!r}")


def _render_slo_table(report: dict) -> str:
    table = Table(["objective", "endpoint", "window s", "requests", "err%",
                   "burn", "p95 s", "target p95", "status"])
    for result in report["results"]:
        targets = result["objective"]
        burn = result.get("burn_rate")
        target_p95 = targets.get("latency_p95_s")
        table.add_row([
            result["name"], result["endpoint"],
            f"{result['window_s']:g}", result["requests"],
            f"{result['error_rate'] * 100:.2f}",
            "-" if burn is None else f"{burn:.2f}",
            f"{result['latency_p95_s']:.4f}",
            "-" if target_p95 is None else f"{target_p95:g}",
            "BREACH" if result["breached"] else "ok",
        ])
    return table.render(title="SLO status")


def _cmd_slo(args: argparse.Namespace) -> int:
    """Evaluate SLO objectives over an access log (check|report)."""
    from repro.obs import slo as obs_slo

    if args.config is not None:
        try:
            objectives = obs_slo.load_slo_config(args.config)
        except ValueError as exc:
            _emit(f"error: {exc}", err=True)
            return 2
    else:
        objectives = obs_slo.default_objectives()
    records = obs_access.read_access(args.access_path)
    report = obs_slo.evaluate_slos(objectives, records, now=args.now)
    if args.slo_command == "report":
        if args.fmt == "json":
            _emit(json.dumps(report, indent=2, sort_keys=True))
        else:
            _emit(_render_slo_table(report))
            _emit(f"({len(records)} access records from {args.access_path})")
        return 0
    if args.slo_command == "check":
        _emit(_render_slo_table(report))
        breaches = report["breaches"]
        if breaches:
            _emit(f"SLO breach: {', '.join(breaches)}", err=True)
            return 1
        _emit("all objectives within budget")
        return 0
    raise GameError(f"unknown slo command {args.slo_command!r}")


def _cmd_ledger(args: argparse.Namespace) -> int:
    if args.ledger_command == "stats":
        return _cmd_ledger_stats(args)
    if args.ledger_command == "query":
        return _cmd_ledger_query(args)
    if args.ledger_command == "report":
        return _cmd_ledger_report(args)
    if args.ledger_command == "diff":
        return _cmd_ledger_diff(args)
    raise GameError(f"unknown ledger command {args.ledger_command!r}")


def _dispatch(args: argparse.Namespace, graph: Graph) -> int:
    if args.command == "info":
        return _cmd_info(graph)
    if args.command == "pure":
        return _cmd_pure(graph, args.k, args.nu)
    if args.command == "solve":
        return _cmd_solve(graph, args.k, args.nu, args.seed)
    if args.command == "gain":
        return _cmd_gain(graph, args.nu, args.lp, args.seed)
    if args.command == "simulate":
        return _cmd_simulate(graph, args.k, args.nu, args.trials, args.seed)
    if args.command == "report":
        return _cmd_report(graph, args.k, args.nu, args.trials, args.seed)
    if args.command == "export":
        return _cmd_export(graph, args.k, args.nu, args.seed, args.output)
    if args.command == "shapes":
        return _cmd_shapes(graph, args.k)
    if args.command == "ranges":
        return _cmd_ranges(graph, args.k)
    if args.command == "redteam":
        return _cmd_redteam(graph, args.k, args.rounds, args.seed)
    if args.command == "stats":
        return _cmd_stats(
            graph, args.k, args.nu, args.seed, args.fmt, args.output
        )
    if args.command == "profile":
        return _cmd_profile(
            graph, args.k, args.nu, args.seed,
            args.chrome_trace, args.folded,
        )
    raise GameError(f"unknown command {args.command!r}")


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    _OUTPUT.quiet = bool(getattr(args, "quiet", False))
    _OUTPUT.json_mode = bool(getattr(args, "log_json", False))
    if getattr(args, "verbose", False):
        obs_log.configure(level="info")
    if _OUTPUT.json_mode:
        obs_log.configure(json_mode=True)
    trace = bool(getattr(args, "trace", False))
    if trace:
        obs_tracing.enable_tracing(True)
        obs_tracing.clear_trace()
    disables = []
    for flag, _help, _directory, enable, disable in _SWITCHES:
        dest = flag.replace("-", "_")
        directory = getattr(args, f"{dest}_dir", None)
        # The ``cache`` subcommand *inspects* the store via its own
        # --dir; the memoization switch stays off for it.
        if (getattr(args, dest, False) or directory is not None) \
                and not (flag == "cache" and args.command == "cache"):
            enable(directory)
            disables.append(disable)

    try:
        if args.command == "lint":
            code = run_lint_from_args(args, emit=_emit)
        elif args.command == "fuzz":
            code = run_fuzz_from_args(args, emit=_emit)
        elif args.command == "watch":
            code = run_watch_from_args(args, emit=_emit)
        elif args.command == "tail":
            code = _cmd_tail(args)
        elif args.command == "ledger":
            code = _cmd_ledger(args)
        elif args.command == "cache":
            code = _cmd_cache(args)
        elif args.command == "serve":
            code = _cmd_serve(args)
        elif args.command == "slo":
            code = _cmd_slo(args)
        else:
            graph = load_graph(args.graph)
            code = _dispatch(args, graph)
        if trace and args.command not in ("stats", "profile"):
            _emit("\n== trace ==")
            _emit(obs_tracing.render_trace())
        return code
    except (GameError, OSError) as exc:
        _emit(f"error: {exc}", err=True)
        return 2
    finally:
        for disable in disables:
            disable()
        if trace or args.command in ("stats", "profile"):
            obs_tracing.enable_tracing(False)


if __name__ == "__main__":
    sys.exit(main())
