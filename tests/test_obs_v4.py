"""Tests for the v4 observability layer — request correlation.

Covers the trace-context machinery in :mod:`repro.obs.tracing`
(W3C ``traceparent`` parsing, span identity, contextvars propagation
across thread hops), the ledger's ``trace_id`` stamping, the structured
access log (:mod:`repro.obs.access`) and the SLO engine
(:mod:`repro.obs.slo`) plus its panel in the run report.
"""

import contextvars
import json
import threading

import pytest

from repro.obs import access as obs_access
from repro.obs import events as obs_events
from repro.obs import ledger as obs_ledger
from repro.obs import tracing
from repro.obs.report import render_report_html, render_report_markdown
from repro.obs.slo import (
    SLO_REPORT_SCHEMA,
    SloEngine,
    SloObjective,
    default_objectives,
    evaluate_slos,
    load_slo_config,
)
from repro.serve import WorkerPool

VALID_TRACEPARENT = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
VALID_TRACE_ID = "4bf92f3577b34da6a3ce929d0e0e4736"
VALID_PARENT_ID = "00f067aa0ba902b7"


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """Correlation state is process/context-global; reset around each test."""
    yield
    tracing.enable_tracing(False)
    tracing.clear_trace()
    obs_access.disable_access_log()
    obs_events.disable_events()
    obs_ledger.disable_ledger()


class TestTraceparent:
    def test_parse_valid(self):
        assert tracing.parse_traceparent(VALID_TRACEPARENT) == (
            VALID_TRACE_ID, VALID_PARENT_ID)

    def test_parse_uppercase_is_normalized(self):
        header = VALID_TRACEPARENT.upper().replace("FF", "ff")
        parsed = tracing.parse_traceparent(
            f"00-{VALID_TRACE_ID.upper()}-{VALID_PARENT_ID.upper()}-01")
        assert parsed == (VALID_TRACE_ID, VALID_PARENT_ID)
        del header

    @pytest.mark.parametrize("header", [
        None,
        "",
        "garbage",
        "00-abc-def-01",                                   # wrong lengths
        VALID_TRACEPARENT + "-extra",                      # 5 parts
        VALID_TRACEPARENT.replace("4bf9", "zzzz"),         # non-hex
        "ff-" + VALID_TRACEPARENT[3:],                     # reserved version
        f"00-{'0' * 32}-{VALID_PARENT_ID}-01",             # zero trace id
        f"00-{VALID_TRACE_ID}-{'0' * 16}-01",              # zero parent id
        f"0-{VALID_TRACE_ID}-{VALID_PARENT_ID}-01",        # short version
        f"00-{VALID_TRACE_ID}-{VALID_PARENT_ID}-1",        # short flags
    ])
    def test_parse_rejects(self, header):
        assert tracing.parse_traceparent(header) is None

    def test_format_round_trips(self):
        header = tracing.format_traceparent(VALID_TRACE_ID, VALID_PARENT_ID)
        assert tracing.parse_traceparent(header) == (
            VALID_TRACE_ID, VALID_PARENT_ID)


class TestStartTrace:
    def test_honors_inbound_traceparent(self):
        context = tracing.start_trace(VALID_TRACEPARENT)
        assert context.trace_id == VALID_TRACE_ID
        assert context.parent_id == VALID_PARENT_ID
        # This hop gets its own span id, echoed in the outbound header.
        assert context.span_id != VALID_PARENT_ID
        assert context.traceparent() == \
            f"00-{VALID_TRACE_ID}-{context.span_id}-01"

    def test_mints_on_malformed_header(self):
        context = tracing.start_trace("not-a-traceparent")
        assert context.trace_id != VALID_TRACE_ID
        assert len(context.trace_id) == 32
        int(context.trace_id, 16)
        assert context.parent_id is None

    def test_fresh_traces_are_distinct(self):
        first = tracing.start_trace(None)
        second = tracing.start_trace(None)
        assert first.trace_id != second.trace_id
        assert tracing.current_trace() is second

    def test_current_trace_id_create(self):
        tracing.start_trace(None)
        assert tracing.current_trace_id() == tracing.current_trace().trace_id
        created = tracing.current_trace_id(create=True)
        assert created == tracing.current_trace().trace_id


class TestSpanIdentity:
    def test_nested_spans_share_the_trace(self):
        tracing.enable_tracing(True)
        context = tracing.start_trace(VALID_TRACEPARENT)
        with tracing.span("outer") as outer:
            with tracing.span("inner") as inner:
                pass
        assert outer.trace_id == inner.trace_id == VALID_TRACE_ID
        assert outer.parent_id == context.span_id
        assert inner.parent_id == outer.span_id
        assert len({outer.span_id, inner.span_id, context.span_id}) == 3

    def test_to_dict_carries_identity(self):
        tracing.enable_tracing(True)
        tracing.start_trace(None)
        with tracing.span("work"):
            pass
        (root,) = tracing.get_trace()
        payload = root.to_dict()
        assert payload["trace_id"] == tracing.current_trace().trace_id
        assert payload["span_id"] == root.span_id
        assert payload["parent_id"] == root.parent_id

    def test_disabled_tracing_still_has_identity(self):
        tracing.enable_tracing(False)
        tracing.start_trace(None)
        with tracing.span("work") as live:
            assert live is None  # the near-free null context
        assert tracing.get_trace() == []
        assert tracing.current_trace_id() is not None


class TestContextPropagation:
    def test_copied_context_carries_the_trace_to_a_thread(self):
        context = tracing.start_trace(None)
        seen = {}
        copied = contextvars.copy_context()
        thread = threading.Thread(
            target=lambda: seen.update(
                trace_id=copied.run(tracing.current_trace_id)))
        thread.start()
        thread.join(timeout=10.0)
        assert seen["trace_id"] == context.trace_id

    def test_plain_thread_is_isolated(self):
        tracing.start_trace(None)
        seen = {}
        thread = threading.Thread(
            target=lambda: seen.update(trace=tracing.current_trace()))
        thread.start()
        thread.join(timeout=10.0)
        assert seen["trace"] is None

    def test_worker_pool_submit_propagates_the_trace(self):
        context = tracing.start_trace(None)
        pool = WorkerPool(workers=1, queue_limit=0)
        try:
            result = pool.submit(tracing.current_trace_id).result(timeout=30.0)
        finally:
            pool.close()
        assert result == context.trace_id

    def test_spans_from_a_copied_context_land_in_the_same_tree(self):
        tracing.enable_tracing(True)
        tracing.start_trace(None)
        copied = contextvars.copy_context()

        def work():
            with tracing.span("thread.work"):
                pass

        thread = threading.Thread(target=lambda: copied.run(work))
        thread.start()
        thread.join(timeout=10.0)
        assert [s.name for s in tracing.get_trace()] == ["thread.work"]


class TestLedgerTraceId:
    def test_recorded_run_stamps_the_active_trace(self, tmp_path):
        context = tracing.start_trace(None)
        obs_ledger.enable_ledger(tmp_path)
        with obs_ledger.run("test.correlated"):
            with tracing.span("test.step"):
                pass
        (record,) = obs_ledger.read_runs(directory=tmp_path)
        assert record["schema"] == obs_ledger.RECORD_SCHEMA
        assert record["trace_id"] == context.trace_id
        # The span tree carries the same id (runs always collect spans).
        assert record["spans"]
        assert all(s["trace_id"] == context.trace_id
                   for s in record["spans"])

    def test_run_without_a_trace_mints_one(self, tmp_path):
        # A fresh contextvars context has no trace at all.
        def record_in_fresh_context():
            obs_ledger.enable_ledger(tmp_path)
            with obs_ledger.run("test.minted"):
                pass

        contextvars.Context().run(record_in_fresh_context)
        (record,) = obs_ledger.read_runs(directory=tmp_path)
        assert record["trace_id"]
        int(record["trace_id"], 16)

    def test_run_events_carry_the_trace_id(self):
        context = tracing.start_trace(None)
        obs_events.enable_events(sink=False)
        with obs_ledger.run("test.events", record=False):
            pass
        events = obs_events.recent(types=["run.start", "run.end"])
        assert len(events) == 2
        assert all(e["payload"]["trace_id"] == context.trace_id
                   for e in events)


class TestAccessLog:
    def test_disabled_log_request_is_a_noop(self):
        assert not obs_access.access_log_enabled()
        assert obs_access.log_request(
            "a" * 32, "POST", "/solve", 200, None, 0.01) is None
        assert obs_access.access_log_path() is None

    def test_enable_write_read_round_trip(self, tmp_path):
        obs_access.enable_access_log(tmp_path)
        assert obs_access.access_log_enabled()
        record = obs_access.log_request(
            "b" * 32, "POST", "/solve", 200, None, 0.02,
            cache_hit=True, inflight=3)
        assert record["schema"] == obs_access.ACCESS_SCHEMA
        assert record["trace_id"] == "b" * 32
        assert record["endpoint"] == "/solve"
        assert record["cache_hit"] is True
        assert record["inflight"] == 3
        obs_access.disable_access_log()
        (read_back,) = obs_access.read_access(tmp_path)
        assert read_back == record

    def test_read_access_missing_file_is_empty(self, tmp_path):
        assert obs_access.read_access(tmp_path / "absent.jsonl") == []


class TestSloObjective:
    def test_needs_at_least_one_target(self):
        with pytest.raises(ValueError, match="latency_p95_s"):
            SloObjective("empty")

    @pytest.mark.parametrize("kwargs", [
        {"error_rate_budget": 0.0},
        {"error_rate_budget": 1.5},
        {"latency_p95_s": 0.0},
        {"latency_p95_s": 1.0, "window_s": 0},
        {"latency_p95_s": 1.0, "burn_rate_threshold": 0},
        {"latency_p95_s": 1.0, "endpoint": ""},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SloObjective("bad", **kwargs)

    def test_matches_wildcard_and_exact(self):
        wildcard = SloObjective("all", endpoint="*", latency_p95_s=1.0)
        exact = SloObjective("solve", endpoint="/solve", latency_p95_s=1.0)
        assert wildcard.matches("/solve") and wildcard.matches("/ranges")
        assert exact.matches("/solve") and not exact.matches("/ranges")

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown objective keys"):
            SloObjective.from_dict(
                {"name": "x", "latency_p95_s": 1.0, "typo": True})

    def test_dict_round_trip(self):
        objective = SloObjective("solve", endpoint="/solve", window_s=600,
                                 error_rate_budget=0.05,
                                 burn_rate_threshold=2.0)
        rebuilt = SloObjective.from_dict(objective.to_dict())
        assert rebuilt.to_dict() == objective.to_dict()

    def test_defaults_cover_availability_and_latency(self):
        names = {o.name for o in default_objectives()}
        assert names == {"availability", "latency"}


class TestLoadSloConfig:
    def test_loads_the_committed_fixture(self):
        objectives = load_slo_config("tests/fixtures/slo/slo.json")
        assert [o.name for o in objectives] == [
            "availability", "solve-latency"]

    @pytest.mark.parametrize("document,match", [
        ("not json", "not valid JSON"),
        ("[1]", "JSON object"),
        ('{"schema": "wrong/v0", "objectives": []}', "schema"),
        ('{"schema": "repro.obs/slo-config/v1", "objectives": []}',
         "non-empty"),
        ('{"schema": "repro.obs/slo-config/v1", "objectives": ['
         '{"name": "a", "latency_p95_s": 1.0},'
         '{"name": "a", "latency_p95_s": 2.0}]}', "duplicate"),
    ])
    def test_rejects_bad_configs(self, tmp_path, document, match):
        path = tmp_path / "slo.json"
        path.write_text(document)
        with pytest.raises(ValueError, match=match):
            load_slo_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read"):
            load_slo_config(tmp_path / "absent.json")


def _access_record(ts, endpoint="/solve", status=200, latency_s=0.01):
    return {"schema": obs_access.ACCESS_SCHEMA, "ts": ts,
            "endpoint": endpoint, "status": status, "latency_s": latency_s}


class TestEvaluateSlos:
    def test_burn_rate_and_breach(self):
        objective = SloObjective("avail", error_rate_budget=0.10,
                                 window_s=100.0)
        records = [_access_record(1000.0 + i,
                                  status=500 if i < 2 else 200)
                   for i in range(10)]
        report = evaluate_slos([objective], records, now=1010.0)
        (result,) = report["results"]
        assert result["requests"] == 10
        assert result["errors"] == 2
        assert result["burn_rate"] == pytest.approx(2.0)
        assert result["breached"] is True
        assert report["breaches"] == ["avail"]
        assert report["schema"] == SLO_REPORT_SCHEMA

    def test_client_errors_do_not_burn_the_budget(self):
        objective = SloObjective("avail", error_rate_budget=0.01,
                                 window_s=100.0)
        records = [_access_record(1000.0 + i, status=400)
                   for i in range(10)]
        report = evaluate_slos([objective], records, now=1010.0)
        (result,) = report["results"]
        assert result["errors"] == 0
        assert result["breached"] is False

    def test_nearest_rank_p95(self):
        objective = SloObjective("lat", latency_p95_s=0.5, window_s=100.0)
        # 20 samples 0.01..0.20: nearest-rank p95 is the 19th -> 0.19.
        records = [_access_record(1000.0 + i, latency_s=(i + 1) / 100.0)
                   for i in range(20)]
        report = evaluate_slos([objective], records, now=1020.0)
        (result,) = report["results"]
        assert result["latency_p95_s"] == pytest.approx(0.19)
        assert result["breached"] is False

    def test_latency_target_needs_traffic(self):
        objective = SloObjective("lat", latency_p95_s=0.5)
        report = evaluate_slos([objective], [], now=1000.0)
        assert report["results"][0]["breached"] is False
        assert report["breaches"] == []

    def test_window_excludes_old_records(self):
        objective = SloObjective("avail", error_rate_budget=0.01,
                                 window_s=10.0)
        records = [_access_record(900.0, status=500),  # outside the window
                   _access_record(1005.0, status=200)]
        report = evaluate_slos([objective], records, now=1010.0)
        (result,) = report["results"]
        assert result["requests"] == 1 and result["errors"] == 0

    def test_now_defaults_to_newest_record(self):
        objective = SloObjective("avail", error_rate_budget=0.5,
                                 window_s=10.0)
        records = [_access_record(2000.0), _access_record(2005.0)]
        report = evaluate_slos([objective], records)
        assert report["now"] == 2005.0
        assert report["results"][0]["requests"] == 2

    def test_endpoint_filter(self):
        objective = SloObjective("solve", endpoint="/solve",
                                 error_rate_budget=0.5, window_s=100.0)
        records = [_access_record(1000.0, endpoint="/solve"),
                   _access_record(1001.0, endpoint="/ranges", status=500)]
        report = evaluate_slos([objective], records, now=1002.0)
        (result,) = report["results"]
        assert result["requests"] == 1 and result["errors"] == 0


class TestSloEngine:
    def test_status_document_shape(self):
        engine = SloEngine()
        engine.observe("/solve", 200, 0.01, ts=1000.0)
        report = engine.status_document(now=1001.0)
        assert report["schema"] == SLO_REPORT_SCHEMA
        assert {r["name"] for r in report["results"]} == {
            "availability", "latency"}
        assert report["breaches"] == []

    def test_breach_transition_publishes_once_and_rearms(self):
        objective = SloObjective("avail", error_rate_budget=0.10,
                                 window_s=100.0)
        engine = SloEngine([objective])
        obs_events.enable_events(sink=False)

        def breach_events():
            return obs_events.recent(types=["slo.breach"])

        baseline = len(breach_events())
        for i in range(10):
            engine.observe("/solve", 500, 0.01, ts=1000.0 + i)
        engine.status_document(now=1010.0)
        engine.status_document(now=1010.0)  # still breached: no re-publish
        assert len(breach_events()) == baseline + 1
        event = breach_events()[-1]
        assert event["payload"]["objective"] == "avail"
        # Recovery (errors age out of the window) re-arms the objective.
        for i in range(100):
            engine.observe("/solve", 200, 0.01, ts=1200.0 + i)
        report = engine.status_document(now=1300.0)
        assert report["breaches"] == []
        for i in range(10):
            engine.observe("/solve", 500, 0.01, ts=1301.0 + i)
        engine.status_document(now=1311.0)
        assert len(breach_events()) == baseline + 2


class TestReportSloPanel:
    def _breach_report(self):
        objective = SloObjective("avail", error_rate_budget=0.01,
                                 window_s=100.0)
        records = [_access_record(1000.0 + i, status=500) for i in range(5)]
        return evaluate_slos([objective], records, now=1005.0)

    def test_html_panel_renders_breach(self):
        document = render_report_html([], slo_report=self._breach_report())
        assert "Service-level objectives" in document
        assert "breach" in document
        assert "avail" in document

    def test_html_without_report_shows_hint(self):
        document = render_report_html([])
        assert "No SLO report" in document

    def test_markdown_panel(self):
        document = render_report_markdown(
            [], slo_report=self._breach_report())
        assert "## Service-level objectives" in document
        assert "BREACH" in document

    def test_markdown_without_report_omits_section(self):
        document = render_report_markdown([])
        assert "Service-level objectives" not in document


class TestSloCli:
    FIXTURES = "tests/fixtures/slo"

    def test_slo_check_exit_codes(self, capsys):
        from repro.cli import main

        assert main(["slo", "check", "--config", f"{self.FIXTURES}/slo.json",
                     "--access-path",
                     f"{self.FIXTURES}/access_ok.jsonl"]) == 0
        assert main(["slo", "check", "--config", f"{self.FIXTURES}/slo.json",
                     "--access-path",
                     f"{self.FIXTURES}/access_breach.jsonl"]) == 1
        captured = capsys.readouterr()
        assert "SLO breach:" in captured.err

    def test_slo_check_default_objectives(self, capsys):
        from repro.cli import main

        # No --config: the built-in availability + latency objectives.
        assert main(["slo", "check", "--access-path",
                     f"{self.FIXTURES}/access_ok.jsonl"]) == 0
        assert "availability" in capsys.readouterr().out

    def test_slo_report_json_document(self, capsys):
        from repro.cli import main

        assert main(["slo", "report", "--format", "json",
                     "--config", f"{self.FIXTURES}/slo.json",
                     "--access-path",
                     f"{self.FIXTURES}/access_breach.jsonl"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == SLO_REPORT_SCHEMA
        assert sorted(document["breaches"]) == [
            "availability", "solve-latency"]

    def test_ledger_report_access_path_builds_the_panel(self, tmp_path,
                                                        capsys):
        from repro.cli import main

        out_html = tmp_path / "r.html"
        out_md = tmp_path / "r.md"
        # --access-path alone evaluates the built-in objectives, same as
        # `slo check` without --config.
        assert main(["ledger", "report", "--dir", "tests/fixtures/ledger",
                     "-o", str(out_html), "--markdown", str(out_md),
                     "--access-path",
                     f"{self.FIXTURES}/access_ok.jsonl"]) == 0
        assert "Service-level objectives" in out_md.read_text()
        html_text = out_html.read_text()
        assert "availability" in html_text and "latency" in html_text
