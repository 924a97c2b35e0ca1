"""repro.obs — structured observability for the solver stack.

A cross-cutting, zero-dependency layer (see ``docs/observability.md``
for conventions and examples):

* :mod:`repro.obs.log` — structured logging (``key=value`` or JSON
  lines, env/CLI-configurable level, silent by default);
* :mod:`repro.obs.metrics` — a process-global registry of counters,
  gauges and timing histograms, exportable as JSON or Prometheus-style
  text; the always-on instrumentation of the solvers, matching kernels
  and simulation engine feeds it;
* :mod:`repro.obs.tracing` — nested spans (``span("lp.solve", ...)`` /
  ``@traced``) that show where the wall-clock of a solve goes; opt-in
  and near-free when disabled; carries the per-request W3C trace
  context (``trace_id``/``span_id``, ``traceparent`` parsing) that
  correlates spans, ledger records, events and access-log lines;
* :mod:`repro.obs.jsonl` — the env switch, writer and torn-line reader
  the ledger, the event bus and the access log share;
* :mod:`repro.obs.ledger` — the run-provenance ledger: a durable
  append-only JSONL record (fingerprint, environment, metrics, span
  tree, outcome) of every wrapped entry-point run;
* :mod:`repro.obs.prof` — the deterministic profiler: span trees as
  folded-stack flamegraphs, Chrome ``trace_event`` JSON and self/total
  aggregation tables;
* :mod:`repro.obs.watchdog` — the perf-regression gate: host-corrected
  benchmark timings (median and MAD) and the one comparator that judges
  them against a baseline;
* :mod:`repro.obs.events` — the live telemetry event bus: typed run
  events (``solver.iteration``, ``lp.solve``, ...) in a bounded ring
  buffer with subscribers and an opt-in JSONL sink;
* :mod:`repro.obs.resources` — the daemon-thread process resource
  sampler (RSS, CPU, GC, threads) feeding the metrics registry and the
  ``resources`` block of every ledger record;
* :mod:`repro.obs.report` — ledger analytics (grouped latency
  percentiles, error rates, cross-revision deltas) and the
  self-contained HTML/markdown run reports;
* :mod:`repro.obs.access` — the per-request structured access log of
  the solve service (``repro.obs/access/v1`` JSONL lines; opt-in and
  near-free when off);
* :mod:`repro.obs.slo` — declarative service-level objectives: latency
  p95 targets and error-rate budgets evaluated over sliding windows,
  with burn rates, ``slo.breach`` events and the ``repro-defender slo``
  CLI.

Quickstart::

    from repro.obs import enable_tracing, get_registry, render_trace, span

    enable_tracing()
    with span("my.workload", n=12):
        ...                       # solver calls nest their own spans
    print(render_trace())
    print(get_registry().to_json())
"""

from repro.obs.access import (
    access_log_enabled,
    access_log_path,
    disable_access_log,
    enable_access_log,
    log_request,
    read_access,
)
from repro.obs.events import (
    disable_events,
    enable_events,
    events_enabled,
    publish,
    read_events,
    recent,
    subscribe,
    tail_events,
    unsubscribe,
)
from repro.obs.ledger import (
    disable_ledger,
    enable_ledger,
    ledger_enabled,
    read_runs,
    run_diff,
)
from repro.obs.log import StructuredLogger, configure, get_logger
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
    counter,
    gauge,
    get_registry,
    histogram,
    render_snapshot,
    timer,
)
from repro.obs.prof import (
    aggregate,
    render_aggregate,
    to_chrome_trace,
    to_folded_stacks,
)
from repro.obs.report import (
    aggregate_runs,
    render_report_html,
    render_report_markdown,
    write_report,
)
from repro.obs.resources import (
    sample_once,
    sampler_running,
    start_sampler,
    stop_sampler,
)
from repro.obs.slo import (
    SloEngine,
    SloObjective,
    default_objectives,
    evaluate_slos,
    load_slo_config,
)
from repro.obs.tracing import (
    Span,
    TraceContext,
    clear_trace,
    current_trace,
    current_trace_id,
    enable_tracing,
    format_traceparent,
    get_trace,
    parse_traceparent,
    render_trace,
    span,
    start_trace,
    traced,
    tracing_enabled,
)
from repro.obs.watchdog import WatchReport, watch_file

__all__ = [
    "StructuredLogger",
    "configure",
    "get_logger",
    "disable_ledger",
    "enable_ledger",
    "ledger_enabled",
    "read_runs",
    "run_diff",
    "disable_events",
    "enable_events",
    "events_enabled",
    "publish",
    "read_events",
    "recent",
    "subscribe",
    "tail_events",
    "unsubscribe",
    "aggregate_runs",
    "render_report_html",
    "render_report_markdown",
    "write_report",
    "sample_once",
    "sampler_running",
    "start_sampler",
    "stop_sampler",
    "aggregate",
    "render_aggregate",
    "to_chrome_trace",
    "to_folded_stacks",
    "WatchReport",
    "watch_file",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Timer",
    "counter",
    "gauge",
    "get_registry",
    "histogram",
    "render_snapshot",
    "timer",
    "Span",
    "TraceContext",
    "clear_trace",
    "current_trace",
    "current_trace_id",
    "enable_tracing",
    "format_traceparent",
    "get_trace",
    "parse_traceparent",
    "render_trace",
    "span",
    "start_trace",
    "traced",
    "tracing_enabled",
    "access_log_enabled",
    "access_log_path",
    "disable_access_log",
    "enable_access_log",
    "log_request",
    "read_access",
    "SloEngine",
    "SloObjective",
    "default_objectives",
    "evaluate_slos",
    "load_slo_config",
]
