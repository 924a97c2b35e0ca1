"""Tests for repro.obs: metrics math, span semantics, exports, overhead."""

from __future__ import annotations

import io
import json
import timeit

import pytest

from repro.obs import log as obs_log
from repro.obs import metrics as obs_metrics
from repro.obs import tracing
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    render_snapshot,
)


@pytest.fixture(autouse=True)
def _clean_tracing_state():
    """Every test starts and ends with tracing off and an empty buffer."""
    tracing.enable_tracing(False)
    tracing.clear_trace()
    yield
    tracing.enable_tracing(False)
    tracing.clear_trace()


class TestCounterAndGauge:
    def test_counter_accumulates(self):
        c = Counter("x.count")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_counter_rejects_decrease(self):
        with pytest.raises(ValueError):
            Counter("x.count").inc(-1)

    def test_gauge_last_value_wins(self):
        g = Gauge("x")
        g.set(1)
        g.set(42.5)
        assert g.value == 42.5


class TestHistogram:
    def test_percentile_nearest_rank(self):
        h = Histogram("t.seconds")
        for v in range(1, 101):
            h.observe(float(v))
        assert h.percentile(50) == 50.0
        assert h.percentile(95) == 95.0
        assert h.percentile(100) == 100.0
        assert h.percentile(0) == 1.0
        assert h.max == 100.0
        assert h.min == 1.0
        assert h.count == 100
        assert h.mean == pytest.approx(50.5)

    @pytest.mark.parametrize("count,q,rank", [
        (1000, 99.9, 999), (2000, 99.9, 1998), (100, 95, 95), (7, 50, 4),
    ])
    def test_one_exact_nearest_rank(self, count, q, rank):
        # metrics, report and slo share this helper; float rounding of
        # 99.9 / 100 * 1000 must not push the rank to 1000.
        values = [float(v) for v in range(1, count + 1)]
        assert obs_metrics.nearest_rank(values, q) == float(rank)
        h = Histogram("t.seconds")
        for v in values:
            h.observe(v)
        assert h.percentile(q) == float(rank)

    def test_empty_histogram_is_safe(self):
        h = Histogram("t.seconds")
        assert h.percentile(50) == 0.0
        assert h.mean == 0.0

    def test_percentile_range_checked(self):
        with pytest.raises(ValueError):
            Histogram("t").percentile(101)

    def test_decimation_keeps_exact_aggregates(self):
        h = Histogram("t")
        total = Histogram.MAX_SAMPLES * 3
        for v in range(total):
            h.observe(float(v))
        # Exact statistics survive decimation...
        assert h.count == total
        assert h.max == float(total - 1)
        assert h.total == pytest.approx(total * (total - 1) / 2)
        # ...while the sample buffer stays bounded and still representative.
        assert len(h._samples) < Histogram.MAX_SAMPLES
        assert h.percentile(50) == pytest.approx(total / 2, rel=0.05)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        r = MetricsRegistry()
        assert r.counter("a.count") is r.counter("a.count")
        assert r.gauge("g") is r.gauge("g")
        assert r.histogram("h") is r.histogram("h")

    def test_snapshot_structure(self):
        r = MetricsRegistry()
        r.counter("c.count").inc(3)
        r.gauge("g").set(1.5)
        with r.timer("t.seconds"):
            pass
        snap = r.snapshot()
        assert snap["counters"] == {"c.count": 3.0}
        assert snap["gauges"] == {"g": 1.5}
        stats = snap["histograms"]["t.seconds"]
        assert stats["count"] == 1
        assert stats["max"] >= 0.0
        assert set(stats) == {"count", "total", "mean", "min", "max", "p50", "p95"}

    def test_json_export_round_trips(self):
        r = MetricsRegistry()
        r.counter("c.count").inc()
        r.histogram("h.seconds").observe(0.25)
        assert json.loads(r.to_json()) == r.snapshot()

    def test_prometheus_export(self):
        r = MetricsRegistry()
        r.counter("lp.solve.count").inc(7)
        r.gauge("simulation.trials_per_sec").set(100.0)
        r.histogram("lp.solve.seconds").observe(0.5)
        text = r.to_prometheus()
        assert "# TYPE repro_lp_solve_count counter" in text
        assert "repro_lp_solve_count 7" in text
        assert "repro_simulation_trials_per_sec 100" in text
        assert 'repro_lp_solve_seconds{quantile="0.95"} 0.5' in text
        assert "repro_lp_solve_seconds_count 1" in text
        assert "repro_lp_solve_seconds_sum 0.5" in text

    def test_reset_and_len(self):
        r = MetricsRegistry()
        r.counter("a").inc()
        r.gauge("b").set(1)
        assert len(r) == 2
        r.reset()
        assert len(r) == 0
        assert r.snapshot()["counters"] == {}

    def test_render_snapshot_lists_every_instrument(self):
        r = MetricsRegistry()
        r.counter("z.count").inc(2)
        r.histogram("a.seconds").observe(1.0)
        text = render_snapshot(r.snapshot())
        assert "z.count" in text and "counter" in text
        assert "a.seconds" in text and "p95=" in text

    def test_render_snapshot_empty(self):
        assert render_snapshot(MetricsRegistry().snapshot()) == "(no metrics recorded)"

    def test_global_helpers_share_registry(self):
        obs_metrics.counter("obs.test.shared.count").inc()
        snap = obs_metrics.get_registry().snapshot()
        assert snap["counters"]["obs.test.shared.count"] >= 1.0


class TestSpans:
    def test_disabled_span_yields_none(self):
        with tracing.span("x") as s:
            assert s is None
        assert tracing.get_trace() == []

    def test_nesting_builds_a_tree(self):
        tracing.enable_tracing(True)
        with tracing.span("outer", n=5):
            with tracing.span("inner.a"):
                pass
            with tracing.span("inner.b"):
                pass
        roots = tracing.get_trace()
        assert len(roots) == 1
        outer = roots[0]
        assert outer.name == "outer"
        assert outer.attributes == {"n": 5}
        assert [c.name for c in outer.children] == ["inner.a", "inner.b"]
        assert outer.duration_s >= sum(c.duration_s for c in outer.children)

    def test_exception_marks_error_and_unwinds(self):
        tracing.enable_tracing(True)
        with pytest.raises(ValueError):
            with tracing.span("outer"):
                with tracing.span("inner"):
                    raise ValueError("boom")
        roots = tracing.get_trace()
        assert len(roots) == 1
        outer = roots[0]
        assert outer.status == "error"
        assert outer.children[0].status == "error"
        # The stack fully unwound: a new span is again a root.
        with tracing.span("after"):
            pass
        assert [s.name for s in tracing.get_trace()] == ["outer", "after"]

    def test_spans_feed_the_registry(self):
        tracing.enable_tracing(True)
        before = obs_metrics.histogram("span.obs.fed.seconds").count
        with tracing.span("obs.fed"):
            pass
        assert obs_metrics.histogram("span.obs.fed.seconds").count == before + 1

    def test_render_trace(self):
        tracing.enable_tracing(True)
        with tracing.span("outer", k=2):
            with tracing.span("inner"):
                pass
        text = tracing.render_trace()
        lines = text.splitlines()
        assert lines[0].startswith("outer")
        assert "k=2" in lines[0]
        assert lines[1].startswith("  inner")
        assert "ms" in lines[0]

    def test_render_trace_empty(self):
        assert tracing.render_trace() == "(no spans recorded)"


class TestTraced:
    def test_traced_records_span_when_enabled(self):
        tracing.enable_tracing(True)

        @tracing.traced("obs.fn", layer="test")
        def f(x):
            return x * 2

        assert f(21) == 42
        roots = tracing.get_trace()
        assert roots[-1].name == "obs.fn"
        assert roots[-1].attributes == {"layer": "test"}

    def test_traced_bare_uses_qualname(self):
        tracing.enable_tracing(True)

        @tracing.traced
        def plain():
            return 1

        assert plain() == 1
        assert "plain" in tracing.get_trace()[-1].name

    def test_traced_propagates_exceptions(self):
        tracing.enable_tracing(True)

        @tracing.traced("obs.raises")
        def bad():
            raise RuntimeError("nope")

        with pytest.raises(RuntimeError):
            bad()
        assert tracing.get_trace()[-1].status == "error"

    def test_disabled_overhead_is_negligible(self):
        """@traced in disabled mode must stay within a few µs per call."""
        tracing.enable_tracing(False)

        @tracing.traced("obs.overhead")
        def f(x):
            return x + 1

        n = 20_000
        per_call = timeit.timeit(lambda: f(1), number=n) / n
        assert per_call < 2e-5, f"disabled @traced costs {per_call * 1e6:.1f} µs/call"


class TestStructuredLogger:
    @pytest.fixture(autouse=True)
    def _restore_config(self):
        saved = obs_log.logging_config()
        yield
        obs_log.configure(level=str(saved["level"]), json_mode=bool(saved["json"]))

    def test_key_value_format(self):
        stream = io.StringIO()
        obs_log.configure(level="info", json_mode=False, stream=stream)
        obs_log.get_logger("repro.test").info("converged", iterations=3, gap=0.0)
        line = stream.getvalue().strip()
        assert line.startswith("level=info logger=repro.test event=converged")
        assert "iterations=3" in line and "gap=0" in line

    def test_values_with_spaces_are_quoted(self):
        stream = io.StringIO()
        obs_log.configure(level="info", json_mode=False, stream=stream)
        obs_log.get_logger("repro.test").info("msg", note="two words")
        assert 'note="two words"' in stream.getvalue()

    def test_json_format(self):
        stream = io.StringIO()
        obs_log.configure(level="info", json_mode=True, stream=stream)
        obs_log.get_logger("repro.test").info("fired", k=2)
        record = json.loads(stream.getvalue())
        assert record == {
            "level": "info", "logger": "repro.test", "event": "fired", "k": 2,
        }

    def test_level_filtering(self):
        stream = io.StringIO()
        obs_log.configure(level="warning", json_mode=False, stream=stream)
        logger = obs_log.get_logger("repro.test")
        logger.debug("hidden")
        logger.info("hidden")
        logger.warning("shown")
        lines = stream.getvalue().strip().splitlines()
        assert len(lines) == 1 and "event=shown" in lines[0]
        assert not logger.is_enabled_for("debug")
        assert logger.is_enabled_for("error")

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            obs_log.configure(level="loud")

    def test_get_logger_caches(self):
        assert obs_log.get_logger("repro.same") is obs_log.get_logger("repro.same")


class TestSolverTelemetry:
    """The instrumented hot paths populate the registry and result objects."""

    def test_double_oracle_gap_history(self, k24_game):
        from repro.solvers.double_oracle import double_oracle

        result = double_oracle(k24_game)
        assert len(result.gap_history) == result.iterations
        assert result.gap_history[-1] == pytest.approx(result.certified_gap)

    def test_fictitious_play_residual_history(self, k24_game):
        from repro.solvers.fictitious_play import fictitious_play

        result = fictitious_play(k24_game, rounds=40)
        assert len(result.residual_history) == result.rounds
        assert all(r >= -1e-12 for r in result.residual_history)
        assert result.residual_history[-1] == pytest.approx(
            result.history[-1][1] - result.history[-1][0]
        )

    def test_solve_cascade_kind_counter(self, k24_game):
        from repro.equilibria.solve import solve_game

        counter = obs_metrics.counter("equilibria.solve.kind.k-matching.count")
        before = counter.value
        solve_game(k24_game)
        assert counter.value == before + 1

    def test_simulation_throughput_metrics(self, k24_game):
        from repro.equilibria.solve import solve_game
        from repro.simulation.engine import simulate

        result = solve_game(k24_game)
        trials_before = obs_metrics.counter("simulation.trials.count").value
        draws_before = obs_metrics.counter("simulation.draws.count").value
        simulate(k24_game, result.mixed, trials=500, seed=1)
        assert obs_metrics.counter("simulation.trials.count").value == trials_before + 500
        # nu=5 attackers + 1 defender draw per trial.
        assert obs_metrics.counter("simulation.draws.count").value == draws_before + 3000
        assert obs_metrics.gauge("simulation.trials_per_sec").value > 0


class TestBenchmarkTableJson:
    def test_record_table_writes_json_twin(self, tmp_path, monkeypatch, capsys):
        import benchmarks.conftest as bench_conftest
        from repro.analysis.tables import Table

        monkeypatch.setattr(bench_conftest, "RESULTS_DIR", tmp_path)
        table = Table(["k", "gain"])
        table.add_row([1, 0.5])
        bench_conftest.record_table("T0_demo", table, title="demo table")
        capsys.readouterr()

        assert (tmp_path / "T0_demo.txt").exists()
        document = json.loads((tmp_path / "T0_demo.json").read_text())
        assert document["schema"] == "repro.obs/experiment-table/v1"
        assert document["name"] == "T0_demo"
        assert document["title"] == "demo table"
        assert document["headers"] == ["k", "gain"]
        assert document["rows"] == [["1", "0.5000"]]


class TestSpanExceptionPaths:
    """Regression coverage for raising bodies and abandoned spans."""

    def test_error_type_recorded_on_raise(self):
        tracing.enable_tracing(True)
        with pytest.raises(KeyError):
            with tracing.span("boom"):
                raise KeyError("gone")
        root = tracing.get_trace()[0]
        assert root.status == "error"
        assert root.error_type == "KeyError"
        assert "[ERROR KeyError]" in tracing.render_trace()

    def test_raising_span_feeds_histogram(self):
        tracing.enable_tracing(True)
        h = obs_metrics.histogram("span.obs.err.seconds")
        before = h.count
        with pytest.raises(RuntimeError):
            with tracing.span("obs.err"):
                raise RuntimeError("nope")
        assert h.count == before + 1

    def test_abandoned_span_closed_during_exception_unwind(self):
        """A span entered but never exited (e.g. a generator that died)
        must not be silently dropped when the enclosing span exits."""
        tracing.enable_tracing(True)
        h = obs_metrics.histogram("span.abandoned.inner.seconds")
        before = h.count
        with pytest.raises(ValueError):
            with tracing.span("outer"):
                tracing.span("abandoned.inner").__enter__()
                raise ValueError("boom")
        outer = tracing.get_trace()[0]
        assert [c.name for c in outer.children] == ["abandoned.inner"]
        abandoned = outer.children[0]
        assert abandoned.status == "error"
        assert abandoned.error_type == "ValueError"
        assert abandoned.duration_s >= 0.0
        assert h.count == before + 1
        # The stack fully unwound despite the abandonment.
        with tracing.span("after"):
            pass
        assert [s.name for s in tracing.get_trace()] == ["outer", "after"]

    def test_abandoned_span_on_clean_exit_marked_abandoned(self):
        tracing.enable_tracing(True)
        with tracing.span("outer"):
            tracing.span("leaked").__enter__()
        outer = tracing.get_trace()[0]
        leaked = outer.children[0]
        assert leaked.status == "error"
        assert leaked.error_type == "AbandonedSpan"

    def test_span_to_dict_serializes_tree_and_error(self):
        tracing.enable_tracing(True)
        with pytest.raises(ValueError):
            with tracing.span("outer", k=2):
                with tracing.span("inner"):
                    raise ValueError("x")
        payload = tracing.get_trace()[0].to_dict()
        assert payload["name"] == "outer"
        assert payload["status"] == "error"
        assert payload["error_type"] == "ValueError"
        assert payload["attributes"] == {"k": 2}
        assert payload["children"][0]["name"] == "inner"
        assert payload["children"][0]["error_type"] == "ValueError"
        # JSON-ready: a round-trip must not lose anything.
        assert json.loads(json.dumps(payload)) == payload


class TestHistogramEdgeCases:
    def test_empty_percentiles_all_zero(self):
        h = Histogram("t.seconds")
        for q in (0, 50, 99, 100):
            assert h.percentile(q) == 0.0
        assert h.count == 0
        assert h.mean == 0.0

    def test_single_sample_every_percentile(self):
        h = Histogram("t.seconds")
        h.observe(3.25)
        for q in (0, 1, 50, 99, 100):
            assert h.percentile(q) == 3.25
        assert h.min == 3.25
        assert h.max == 3.25
        assert h.mean == 3.25

    def test_decimation_deterministic_across_identical_feeds(self):
        """Two histograms fed the same stream must agree exactly —
        decimation uses a fixed stride, never randomness."""
        a, b = Histogram("a"), Histogram("b")
        total = Histogram.MAX_SAMPLES * 3 + 17
        for v in range(total):
            a.observe(float(v))
            b.observe(float(v))
        assert a.count == b.count == total
        assert a._samples == b._samples
        for q in (0, 25, 50, 75, 90, 99, 100):
            assert a.percentile(q) == b.percentile(q)

    def test_timer_records_on_raising_body(self):
        registry = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with registry.timer("t.seconds"):
                raise RuntimeError("boom")
        h = registry.histogram("t.seconds")
        assert h.count == 1
        assert h.max >= 0.0
