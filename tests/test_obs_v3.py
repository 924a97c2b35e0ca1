"""Tests for repro.obs v3: event bus, resource sampler, ledger analytics."""

from __future__ import annotations

import json
import threading

import pytest

from repro.core.game import TupleGame
from repro.graphs.generators import complete_bipartite_graph, cycle_graph
from repro.obs import events, ledger, report, resources
from repro.obs import metrics as obs_metrics


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """Every test starts and ends with the bus/ledger/sampler off."""
    events.disable_events()
    events.clear_events()
    ledger.disable_ledger()
    while resources.sampler_running():
        resources.stop_sampler()
    yield
    events.disable_events()
    events.clear_events()
    ledger.disable_ledger()
    while resources.sampler_running():
        resources.stop_sampler()


def _counter(name):
    return obs_metrics.get_registry().snapshot()["counters"].get(name, 0)


# --------------------------------------------------------------------------
# event bus


class TestEventBus:
    def test_disabled_publish_is_noop(self):
        assert events.publish("solver.iteration", x=1) is None
        assert events.recent() == []

    def test_publish_and_recent(self):
        events.enable_events(sink=False)
        first = events.publish("solver.iteration", gap=0.5)
        second = events.publish("lp.solve", value=1.0)
        buffered = events.recent()
        assert buffered[-2:] == [first, second]
        assert first["schema"] == events.EVENT_SCHEMA
        assert first["type"] == "solver.iteration"
        assert first["payload"] == {"gap": 0.5}
        assert second["seq"] == first["seq"] + 1
        assert second["ts"] >= first["ts"]

    def test_recent_filters_and_caps(self):
        events.enable_events(sink=False)
        for index in range(5):
            events.publish("solver.iteration", i=index)
        events.publish("lp.solve", value=0.0)
        iterations = events.recent(types=["solver.iteration"])
        assert [e["payload"]["i"] for e in iterations] == [0, 1, 2, 3, 4]
        assert [e["payload"]["i"]
                for e in events.recent(2, types=["solver.iteration"])] == [3, 4]

    def test_ring_buffer_is_bounded(self):
        events.enable_events(sink=False)
        for index in range(events.DEFAULT_CAPACITY + 50):
            events.publish("bench.case", i=index)
        buffered = events.recent(types=["bench.case"])
        assert len(buffered) <= events.DEFAULT_CAPACITY
        assert buffered[-1]["payload"]["i"] == events.DEFAULT_CAPACITY + 49

    def test_subscribe_and_unsubscribe(self):
        events.enable_events(sink=False)
        seen = []
        token = events.subscribe(seen.append)
        events.publish("fuzz.case", ok=True)
        assert events.unsubscribe(token)
        events.publish("fuzz.case", ok=False)
        assert [e["payload"]["ok"] for e in seen] == [True]
        assert not events.unsubscribe(token)

    def test_bad_subscriber_never_breaks_publish(self):
        events.enable_events(sink=False)
        before = _counter("events.subscriber_errors.count")

        def explode(event):
            raise RuntimeError("bad subscriber")

        token = events.subscribe(explode)
        try:
            event = events.publish("run.start", entry_point="x")
        finally:
            events.unsubscribe(token)
        assert event is not None
        assert _counter("events.subscriber_errors.count") == before + 1

    def test_unknown_type_counted_but_delivered(self):
        events.enable_events(sink=False)
        before = _counter("events.unknown_type.count")
        event = events.publish("made.up.type", x=1)
        assert event["type"] == "made.up.type"
        assert _counter("events.unknown_type.count") == before + 1

    def test_clear_events(self):
        events.enable_events(sink=False)
        events.publish("bench.case", i=0)
        events.clear_events()
        assert events.recent() == []

    def test_sink_round_trips(self, tmp_path):
        events.enable_events(tmp_path)
        events.publish("run.start", entry_point="demo")
        events.publish("run.end", entry_point="demo", status="ok")
        sink = events.events_sink_path()
        assert sink == tmp_path / events.SINK_FILENAME
        events.disable_events()
        replayed = events.read_events(sink)
        assert [e["type"] for e in replayed] == ["run.start", "run.end"]
        assert replayed[0]["payload"] == {"entry_point": "demo"}

    def test_read_events_missing_file_is_empty(self, tmp_path):
        assert events.read_events(tmp_path / "nope.jsonl") == []

    def test_tail_without_follow_reads_whole_lines_only(self, tmp_path):
        sink = tmp_path / "events.jsonl"
        good = {"schema": events.EVENT_SCHEMA, "seq": 1, "ts": 0.0,
                "type": "run.start", "payload": {}}
        sink.write_text(json.dumps(good) + "\n" + '{"torn": ')
        got = list(events.tail_events(sink))
        assert [e["type"] for e in got] == ["run.start"]

    def test_tail_follow_picks_up_appends(self, tmp_path):
        sink = tmp_path / "events.jsonl"
        sink.write_text("")
        done = threading.Event()

        def writer():
            line = json.dumps({"schema": events.EVENT_SCHEMA, "seq": 1,
                               "ts": 0.0, "type": "run.end", "payload": {}})
            with open(sink, "a", encoding="utf-8") as handle:
                handle.write(line + "\n")

        got = []
        thread = threading.Thread(target=writer)
        thread.start()
        for event in events.tail_events(sink, follow=True,
                                        poll_interval=0.01,
                                        stop=done.is_set):
            got.append(event)
            done.set()
        thread.join()
        assert [e["type"] for e in got] == ["run.end"]


class TestSolverInstrumentation:
    def test_double_oracle_iteration_stream(self):
        from repro.solvers.double_oracle import double_oracle

        events.enable_events(sink=False)
        result = double_oracle(TupleGame(cycle_graph(9), 2, 5))
        steps = [
            e["payload"] for e in events.recent(types=["solver.iteration"])
            if e["payload"].get("solver") == "double_oracle"
        ]
        assert len(steps) >= 2
        assert [s["iteration"] for s in steps[:-1]] == \
            list(range(1, len(steps)))
        for step in steps:
            assert {"gap", "defender_pool", "attacker_pool"} <= set(step)
        final = steps[-1]
        assert final["converged"] is True
        assert final["certified"] == result.exact
        assert final["gap"] <= 1e-9

    def test_fictitious_play_residual_stream(self):
        from repro.solvers.fictitious_play import fictitious_play

        events.enable_events(sink=False)
        fictitious_play(TupleGame(cycle_graph(6), 2, 1), rounds=10)
        steps = [
            e["payload"] for e in events.recent(types=["solver.iteration"])
            if e["payload"].get("solver") == "fictitious_play"
        ]
        assert steps
        for step in steps:
            assert step["residual"] == \
                pytest.approx(step["upper"] - step["lower"])

    def test_lp_solve_events(self):
        from repro.solvers.double_oracle import double_oracle

        events.enable_events(sink=False)
        double_oracle(TupleGame(complete_bipartite_graph(2, 4), 2, 3))
        lp = events.recent(types=["lp.solve"])
        assert lp
        payload = lp[-1]["payload"]
        assert payload["seconds"] >= 0.0
        assert payload["strategies"] >= 1
        assert payload["vertices"] >= 1

    def test_fuzz_case_events(self):
        from repro.fuzz.runner import run_fuzz

        events.enable_events(sink=False)
        report_obj = run_fuzz(count=3, seed=11, shrink=False)
        cases = events.recent(types=["fuzz.case"])
        assert len(cases) == report_obj.games == 3
        assert {c["payload"]["mode"] for c in cases} == {"batch"}


# --------------------------------------------------------------------------
# resource sampler


class TestResourceSampler:
    def test_sample_once_shape(self):
        sample = resources.sample_once()
        assert sample["rss_bytes"] > 0
        assert sample["cpu_user_s"] >= 0.0
        assert sample["cpu_system_s"] >= 0.0
        assert sample["gc_collections"] >= 0
        assert sample["threads"] >= 1

    def test_sampler_lifecycle_is_reentrant(self):
        resources.start_sampler(interval=0.01)
        resources.start_sampler(interval=0.01)
        assert resources.sampler_running()
        resources.stop_sampler()
        assert resources.sampler_running()  # outer holder still active
        resources.stop_sampler()
        assert not resources.sampler_running()

    def test_stop_without_start_is_safe(self):
        resources.stop_sampler()
        assert not resources.sampler_running()

    def test_snapshot_after_sampling(self):
        resources.start_sampler(interval=0.01)
        try:
            snapshot = resources.snapshot()
        finally:
            resources.stop_sampler()
        assert snapshot["samples"] >= 1
        assert snapshot["rss_peak_bytes"] >= snapshot["rss_bytes"] > 0
        assert snapshot["sampler_running"] is True

    def test_sampler_feeds_registry_gauges(self):
        resources.start_sampler(interval=0.01)
        resources.stop_sampler()
        gauges = obs_metrics.get_registry().snapshot()["gauges"]
        assert gauges.get("process.rss_bytes", 0) > 0
        assert gauges.get("process.threads", 0) >= 1


# --------------------------------------------------------------------------
# ledger v2 integration


class TestLedgerV2:
    def test_record_carries_resources_block(self, tmp_path):
        ledger.enable_ledger(tmp_path)
        with ledger.run("demo.run"):
            pass
        record = ledger.read_runs(directory=tmp_path)[-1]
        assert record["schema"] == ledger.RECORD_SCHEMA
        assert record["schema"] != ledger.RECORD_SCHEMA_V1
        block = record["resources"]
        assert block["samples"] >= 1
        assert block["rss_bytes"] > 0
        assert block["rss_peak_bytes"] >= block["rss_bytes"]

    def test_run_publishes_boundary_events(self, tmp_path):
        ledger.enable_ledger(tmp_path)
        events.enable_events(sink=False)
        with ledger.run("demo.run"):
            pass
        types = [e["type"] for e in events.recent()]
        assert "run.start" in types
        assert "run.end" in types
        end = events.recent(types=["run.end"])[-1]["payload"]
        assert end["entry_point"] == "demo.run"
        assert end["status"] == "ok"
        assert end["duration_s"] >= 0.0

    def test_events_only_mode_skips_the_ledger(self, tmp_path):
        events.enable_events(sink=False)
        with ledger.run("demo.run"):
            pass
        assert ledger.read_runs(directory=tmp_path) == []
        assert not list(tmp_path.glob("*.jsonl"))
        types = [e["type"] for e in events.recent()]
        assert types.count("run.start") == 1
        assert types.count("run.end") == 1

    def test_events_only_mode_skips_sampler(self):
        events.enable_events(sink=False)
        with ledger.run("demo.run"):
            assert not resources.sampler_running()

    def test_error_run_publishes_error_status(self, tmp_path):
        events.enable_events(sink=False)
        ledger.enable_ledger(tmp_path)
        with pytest.raises(RuntimeError):
            with ledger.run("demo.run"):
                raise RuntimeError("boom")
        end = events.recent(types=["run.end"])[-1]["payload"]
        assert end["status"] == "error"
        assert not resources.sampler_running()


# --------------------------------------------------------------------------
# ledger reader edge cases (satellites)


class TestLedgerReaderEdgeCases:
    def test_empty_directory_reads_empty(self, tmp_path):
        assert ledger.read_runs(directory=tmp_path / "none") == []

    def test_find_run_ambiguous_prefix_raises(self, tmp_path):
        record = {"entry_point": "demo", "started_at": 1.0}
        lines = []
        for rid in ("aaaa1111bbbb2222", "aaaa9999cccc3333"):
            lines.append(json.dumps(dict(record, run_id=rid)))
        (tmp_path / "demo.jsonl").write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="ambiguous"):
            ledger.find_run("aaaa", directory=tmp_path)
        found = ledger.find_run("aaaa1111", directory=tmp_path)
        assert found["run_id"] == "aaaa1111bbbb2222"
        assert ledger.find_run("ffff", directory=tmp_path) is None


# --------------------------------------------------------------------------
# ledger analytics + report


def _fake_records():
    records = []
    for index, (ep, rev, status, duration) in enumerate([
        ("equilibria.solve", "aaa1111", "ok", 0.10),
        ("equilibria.solve", "aaa1111", "ok", 0.12),
        ("equilibria.solve", "bbb2222", "ok", 0.20),
        ("equilibria.solve", "bbb2222", "error", 0.30),
        ("solvers.double_oracle", "aaa1111", "ok", 0.50),
        ("solvers.double_oracle", "bbb2222", "ok", 0.25),
    ]):
        records.append({
            "schema": ledger.RECORD_SCHEMA,
            "run_id": f"rid{index:013d}",
            "entry_point": ep,
            "started_at": 1000.0 + index,
            "duration_s": duration,
            "status": status,
            "fingerprint": {"sha256": "f" * 64},
            "attributes": {},
            "env": {"git_rev": rev},
            "metrics": {"counters": {}, "gauges": {
                "double_oracle.gap": 0.01 * index,
            }, "histograms": {}},
            "resources": {},
            "spans": [],
        })
    return records


class TestAnalytics:
    def test_aggregate_by_entry_point(self):
        rows = report.aggregate_runs(_fake_records(), group_by="entry_point")
        assert [r["key"] for r in rows] == \
            ["equilibria.solve", "solvers.double_oracle"]
        solve = rows[0]
        assert solve["count"] == 4
        assert solve["errors"] == 1
        assert solve["error_rate"] == pytest.approx(0.25)
        assert solve["duration_s"]["min"] == pytest.approx(0.10)
        assert solve["duration_s"]["max"] == pytest.approx(0.30)
        assert solve["duration_s"]["p50"] <= solve["duration_s"]["p95"]

    def test_aggregate_by_git_rev(self):
        rows = report.aggregate_runs(_fake_records(), group_by="git_rev")
        assert {r["key"] for r in rows} == {"aaa1111", "bbb2222"}

    def test_aggregate_rejects_unknown_group(self):
        with pytest.raises(ValueError):
            report.aggregate_runs(_fake_records(), group_by="nope")

    def test_metric_trends_ordered_by_start(self):
        trends = report.metric_trends(_fake_records())
        solve = trends["equilibria.solve"]
        assert solve["duration_s"] == \
            pytest.approx([0.10, 0.12, 0.20, 0.30])
        assert solve["double_oracle.gap"] == \
            pytest.approx([0.0, 0.01, 0.02, 0.03])

    def test_rev_deltas_cross_revision(self):
        deltas = report.rev_deltas(_fake_records())
        do = [d for d in deltas
              if d["entry_point"] == "solvers.double_oracle"]
        assert len(do) == 1
        assert (do[0]["rev_a"], do[0]["rev_b"]) == ("aaa1111", "bbb2222")
        assert do[0]["delta_s"] == pytest.approx(-0.25)
        assert do[0]["ratio"] == pytest.approx(0.5)


class TestReportRendering:
    def test_html_is_self_contained(self):
        html = report.render_report_html(_fake_records())
        assert html.startswith("<!DOCTYPE html>")
        assert html.rstrip().endswith("</html>")
        assert "<svg" in html
        assert "var(--series-1)" in html
        assert "prefers-color-scheme: dark" in html
        for marker in ('src="http', 'href="http', "<script src"):
            assert marker not in html

    def test_html_handles_empty_ledger(self):
        html = report.render_report_html([])
        assert html.startswith("<!DOCTYPE html>")
        assert "0" in html

    def test_html_folds_in_watchdog_history(self):
        def entry(rev, median):
            return {"git_rev": rev, "dirty": False, "timestamp": None,
                    "cases": {"double_oracle.medium_a": {
                        "median_s": median, "mad_s": 0.001, "reps": 15}}}

        doc = {
            "schema": "repro.kernels/bench-smoke/v3",
            "history": [entry("aaa1111", 0.10), entry("bbb2222", 0.20)],
        }
        html = report.render_report_html(_fake_records(), watchdog_doc=doc)
        assert "double_oracle.medium_a" in html
        assert "Benchmark watchdog" in html
        assert "regressed" in html

    def test_markdown_summary(self):
        md = report.render_report_markdown(_fake_records())
        assert md.startswith("#")
        assert "equilibria.solve" in md

    def test_write_report_from_fixture(self, tmp_path):
        out = tmp_path / "report.html"
        md = tmp_path / "report.md"
        summary = report.write_report("tests/fixtures/ledger", out,
                                      output_md=md)
        assert summary["records"] == 10
        assert out.read_text(encoding="utf-8").startswith("<!DOCTYPE html>")
        assert md.read_text(encoding="utf-8").startswith("#")

    def test_fixture_run_ids_are_content_addressed(self):
        records = ledger.read_runs(directory="tests/fixtures/ledger")
        assert records
        for record in records:
            body = {k: v for k, v in record.items() if k != "run_id"}
            assert ledger._canonical_sha256(body)[:16] == record["run_id"]


# --------------------------------------------------------------------------
# CLI faces (tail, ledger subcommands, watch --format json)


class TestCliFaces:
    def _events_fixture(self, tmp_path):
        sink_dir = tmp_path / "events"
        events.enable_events(sink_dir)
        events.publish("solver.iteration", solver="double_oracle",
                       iteration=1, gap=0.5)
        events.publish("lp.solve", value=1.0)
        events.disable_events()
        return sink_dir

    def test_tail_reads_sink(self, tmp_path, capsys):
        from repro.cli import main

        sink_dir = self._events_fixture(tmp_path)
        assert main(["tail", "--dir", str(sink_dir)]) == 0
        out = capsys.readouterr().out
        assert "solver.iteration" in out
        assert "gap=0.5" in out

    def test_tail_type_filter_and_count(self, tmp_path, capsys):
        from repro.cli import main

        sink_dir = self._events_fixture(tmp_path)
        assert main(["tail", "--dir", str(sink_dir),
                     "--type", "lp.solve", "--count", "1"]) == 0
        out = capsys.readouterr().out
        assert "lp.solve" in out
        assert "solver.iteration" not in out

    def test_tail_missing_sink_errors(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["tail", "--dir", str(tmp_path / "none")]) == 1

    def test_ledger_stats_json(self, capsys):
        from repro.cli import main

        assert main(["ledger", "stats", "--dir", "tests/fixtures/ledger",
                     "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {r["key"] for r in rows} >= \
            {"equilibria.solve", "solvers.double_oracle"}

    def test_ledger_query_filters(self, capsys):
        from repro.cli import main

        assert main(["ledger", "query", "--dir", "tests/fixtures/ledger",
                     "--status", "error", "--format", "json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 1
        assert records[0]["status"] == "error"

    def test_ledger_report_cli(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "r.html"
        assert main(["ledger", "report", "--dir", "tests/fixtures/ledger",
                     "-o", str(out)]) == 0
        assert out.read_text(encoding="utf-8").startswith("<!DOCTYPE html>")

    def test_ledger_diff_cli(self, capsys):
        from repro.cli import main

        records = ledger.read_runs(directory="tests/fixtures/ledger")
        a, b = records[0]["run_id"], records[-1]["run_id"]
        assert main(["ledger", "diff", a, b,
                     "--dir", "tests/fixtures/ledger",
                     "--format", "json"]) == 0
        diff = json.loads(capsys.readouterr().out)
        assert diff["run_a"] == a
        assert diff["run_b"] == b

    def test_ledger_diff_missing_run_exits_2(self, capsys):
        from repro.cli import main

        assert main(["ledger", "diff", "0000dead", "0000beef",
                     "--dir", "tests/fixtures/ledger"]) == 2

    def test_watch_format_json(self, tmp_path, capsys):
        import argparse

        from repro.obs.watchdog import run_watch_from_args

        def entry(rev, median):
            return {"git_rev": rev, "dirty": False, "timestamp": None,
                    "cases": {"case.x": {"median_s": median, "mad_s": 0.01,
                                         "reps": 15}}}

        doc = {
            "schema": "repro.kernels/bench-smoke/v3",
            "history": [entry("aaa", 0.10), entry("bbb", 0.50)],
        }
        path = tmp_path / "BENCH.json"
        path.write_text(json.dumps(doc))
        args = argparse.Namespace(file=str(path), against=None, strict=True,
                                  fmt="json")
        lines = []
        assert run_watch_from_args(args, emit=lines.append) == 1
        verdict = json.loads("\n".join(lines))
        assert verdict["schema"] == "repro.obs/watch-report/v2"
        assert verdict["ok"] is False
        assert verdict["regressions"][0]["case"] == "case.x"

    def test_watch_cli_format_json_missing_file(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["watch", "--file", str(tmp_path / "none.json"),
                     "--format", "json"]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["ok"] is True
        assert "error" in verdict

    @pytest.mark.parametrize("strict", [False, True])
    def test_watch_json_ok_matches_exit_code(self, tmp_path, capsys, strict):
        from repro.cli import main

        argv = ["watch", "--file", str(tmp_path / "none.json"),
                "--format", "json"] + (["--strict"] if strict else [])
        code = main(argv)
        assert code == (1 if strict else 0)
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["ok"] is (code == 0)
        assert "missing" in verdict["error"]
