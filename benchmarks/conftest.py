"""Shared helpers for the benchmark/experiment harness.

Every experiment module (E1–E8, see DESIGN.md §5) regenerates its table
through :func:`record_table`, which both prints it (visible with ``-s``)
and persists it under ``benchmarks/results/`` — as the human-readable
``<name>.txt`` *and* a machine-readable ``<name>.json`` (headers + rows,
timestamp-free) so experiment tables can be diffed programmatically.

The session fixture :func:`_obs_session_telemetry` additionally collects
per-experiment wall-clock and the process-global metrics registry
(double-oracle iterations, LP solve-time histograms, simulation
throughput, …) and writes ``benchmarks/results/bench_summary.json``.
Schema documented in ``docs/observability.md``.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter
from typing import Dict

import pytest

from repro.analysis.tables import Table
from repro.obs import events as obs_events
from repro.obs import ledger as obs_ledger
from repro.obs import metrics as obs_metrics

RESULTS_DIR = Path(__file__).parent / "results"

BENCH_SUMMARY_SCHEMA = "repro.obs/bench-summary/v1"

_experiment_seconds: Dict[str, float] = {}


def record_table(name: str, table: Table, title: str = "") -> str:
    """Render, print and persist an experiment table (.txt + .json)."""
    RESULTS_DIR.mkdir(exist_ok=True)
    text = table.render(title=title)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    document = {
        "schema": "repro.obs/experiment-table/v1",
        "name": name,
        "title": title,
        "headers": list(table.headers),
        "rows": [list(row) for row in table.rows],
    }
    (RESULTS_DIR / f"{name}.json").write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n"
    )
    print(f"\n{text}")
    return text


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(autouse=True)
def _obs_experiment_timer(request):
    """Record wall-clock seconds per experiment into the session summary."""
    start = perf_counter()
    yield
    seconds = perf_counter() - start
    _experiment_seconds[request.node.nodeid] = seconds
    obs_events.publish(
        "bench.case", case=request.node.nodeid, wall_clock_s=seconds
    )


@pytest.fixture(scope="session", autouse=True)
def _obs_session_telemetry():
    """Write bench_summary.json after the benchmark run."""
    registry = obs_metrics.get_registry()
    registry.reset()
    _experiment_seconds.clear()
    session_start = perf_counter()
    with obs_ledger.run(
        "benchmarks.session",
        fingerprint={"kind": "benchmark-session"},
    ):
        yield
    summary = {
        "schema": BENCH_SUMMARY_SCHEMA,
        "total_wall_clock_s": perf_counter() - session_start,
        "experiments": {
            nodeid: {"wall_clock_s": seconds}
            for nodeid, seconds in sorted(_experiment_seconds.items())
        },
        "metrics": registry.snapshot(),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "bench_summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n")
