"""Tests for repro.obs v2: run ledger, deterministic profiler, watchdog."""

from __future__ import annotations

import json
import subprocess

import pytest

from repro.core.game import TupleGame
from repro.graphs.core import Graph
from repro.graphs.generators import cycle_graph, grid_graph
from repro.obs import ledger, metrics as obs_metrics, tracing
from repro.obs import prof, watchdog
from repro.obs.tracing import Span


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """Every test starts and ends with ledger/tracing off, buffers empty."""
    ledger.disable_ledger()
    tracing.enable_tracing(False)
    tracing.clear_trace()
    yield
    ledger.disable_ledger()
    tracing.enable_tracing(False)
    tracing.clear_trace()


@pytest.fixture
def ledger_dir(tmp_path):
    d = tmp_path / "ledger"
    ledger.enable_ledger(d)
    yield d
    ledger.disable_ledger()


def _solve(k=2, nu=2, graph=None):
    from repro.equilibria.solve import solve_game

    return solve_game(TupleGame(graph or cycle_graph(6), k, nu))


# --------------------------------------------------------------------------
# ledger


class TestLedgerRecording:
    def test_disabled_run_is_shared_noop(self):
        assert ledger.run("x") is ledger.run("y")
        with ledger.run("x", game=object()) as handle:
            assert handle is None

    def test_solve_lands_in_ledger(self, ledger_dir):
        _solve()
        records = ledger.read_runs(
            directory=ledger_dir, entry_point="equilibria.solve"
        )
        assert len(records) == 1
        record = records[0]
        assert record["schema"] == ledger.RECORD_SCHEMA
        assert record["status"] == "ok"
        assert record["duration_s"] > 0.0
        fp = record["fingerprint"]
        assert fp["kind"] == "tuple-game"
        assert len(fp["sha256"]) == 64
        assert (fp["n"], fp["m"], fp["k"], fp["nu"]) == (6, 6, 2, 2)
        assert record["metrics"]["counters"]["equilibria.solve.count"] >= 1
        assert [s["name"] for s in record["spans"]] == ["equilibria.solve"]
        assert record["env"]["cpu_count"] >= 1
        assert record["env"]["python"]

    def test_run_id_is_content_addressed(self, ledger_dir):
        _solve()
        record = ledger.read_runs(directory=ledger_dir)[-1]
        body = {k: v for k, v in record.items() if k != "run_id"}
        assert ledger._canonical_sha256(body)[:16] == record["run_id"]

    def test_error_run_recorded_with_exception(self, ledger_dir):
        from repro.equilibria.solve import NoEquilibriumFoundError, solve_game

        # C5 + chord defeats every structural construction at k=1.
        house = Graph([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
        with pytest.raises(NoEquilibriumFoundError):
            solve_game(TupleGame(house, 1, 1))
        record = ledger.read_runs(
            directory=ledger_dir, entry_point="equilibria.solve", status="error"
        )[-1]
        assert record["error"]["type"] == "NoEquilibriumFoundError"
        assert "k=1" in record["error"]["message"]

    def test_append_only_across_runs(self, ledger_dir):
        _solve()
        _solve()
        path = ledger_dir / "equilibria.solve.jsonl"
        assert len(path.read_text().splitlines()) == 2

    def test_fingerprint_deterministic_across_instances(self):
        a = ledger.fingerprint_game(TupleGame(grid_graph(3, 3), 2, 1))
        b = ledger.fingerprint_game(TupleGame(grid_graph(3, 3), 2, 1))
        c = ledger.fingerprint_game(TupleGame(grid_graph(3, 3), 3, 1))
        assert a["sha256"] == b["sha256"]
        assert a["sha256"] != c["sha256"]

    def test_solver_routes_record(self, ledger_dir):
        from repro.solvers.double_oracle import double_oracle
        from repro.solvers.fictitious_play import fictitious_play

        game = TupleGame(cycle_graph(6), 2, 1)
        double_oracle(game)
        fictitious_play(game, rounds=5)
        points = {
            r["entry_point"] for r in ledger.read_runs(directory=ledger_dir)
        }
        assert "solvers.double_oracle" in points
        assert "solvers.fictitious_play" in points

    def test_fuzz_batch_records_dict_fingerprint(self, ledger_dir):
        from repro.fuzz.runner import run_fuzz

        run_fuzz(count=2, seed=3)
        record = ledger.read_runs(
            directory=ledger_dir, entry_point="fuzz.run"
        )[-1]
        assert record["fingerprint"] == {
            "kind": "fuzz-batch", "count": 2, "seed": 3,
        }

    def test_recording_failure_never_breaks_the_solve(self, tmp_path):
        # Point the ledger at a path that cannot be a directory.
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        ledger.enable_ledger(blocker / "sub")
        before = obs_metrics.counter("ledger.errors.count").value
        assert _solve().kind == "k-matching"
        assert obs_metrics.counter("ledger.errors.count").value > before


class TestLedgerReading:
    def test_filters_and_limit(self, ledger_dir):
        _solve(k=1, nu=1)
        _solve(k=2, nu=1)
        _solve(k=2, nu=1)
        all_runs = ledger.read_runs(directory=ledger_dir)
        solves = ledger.read_runs(
            directory=ledger_dir, entry_point="equilibria.solve"
        )
        assert len(solves) == 3
        assert len(all_runs) >= 3
        fp = solves[-1]["fingerprint"]["sha256"]
        same = ledger.read_runs(
            directory=ledger_dir, fingerprint_sha256=fp
        )
        assert len(same) == 2
        newest = ledger.read_runs(
            directory=ledger_dir, entry_point="equilibria.solve", limit=1
        )
        assert len(newest) == 1
        assert newest[0]["started_at"] == max(
            r["started_at"] for r in solves
        )

    def test_read_tolerates_torn_line(self, ledger_dir):
        _solve()
        path = ledger_dir / "equilibria.solve.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"schema": "repro.obs/ledger-re')  # torn write
        assert len(ledger.read_runs(directory=ledger_dir)) == 1

    def test_find_run_by_prefix(self, ledger_dir):
        _solve()
        record = ledger.read_runs(directory=ledger_dir)[-1]
        assert ledger.find_run(
            record["run_id"][:6], directory=ledger_dir
        ) == record
        assert ledger.find_run("ffffffffff", directory=ledger_dir) is None

    def test_run_diff_same_game(self, ledger_dir):
        _solve()
        _solve()
        a, b = ledger.read_runs(
            directory=ledger_dir, entry_point="equilibria.solve"
        )
        diff = ledger.run_diff(a, b)
        assert diff["same_fingerprint"] is True
        assert diff["env_changes"] == {}
        assert diff["entry_points"] == ["equilibria.solve"] * 2
        # The second run bumped the cumulative solve counter.
        assert diff["metrics"]["counters"]["equilibria.solve.count"] >= 1

    def test_run_diff_different_games(self, ledger_dir):
        _solve(k=1)
        _solve(k=2)
        runs = ledger.read_runs(
            directory=ledger_dir, entry_point="equilibria.solve"
        )
        assert ledger.run_diff(runs[0], runs[1])["same_fingerprint"] is False

    def test_missing_directory_reads_empty(self, tmp_path):
        assert ledger.read_runs(directory=tmp_path / "nope") == []


# --------------------------------------------------------------------------
# profiler


def _span(name, start, duration, children=(), status="ok", **attributes):
    s = Span(name, attributes)
    s.start = start
    s.duration_s = duration
    s.status = status
    s.children = list(children)
    return s


class TestAggregate:
    def test_self_time_subtracts_children(self):
        inner = _span("inner", 0.1, 0.3)
        outer = _span("outer", 0.0, 1.0, children=[inner])
        stats = prof.aggregate([outer])
        assert stats["outer"].total_s == pytest.approx(1.0)
        assert stats["outer"].self_s == pytest.approx(0.7)
        assert stats["inner"].self_s == pytest.approx(0.3)
        assert stats["outer"].calls == 1

    def test_recursive_span_not_double_counted(self):
        leaf = _span("f", 0.2, 0.4)
        root = _span("f", 0.0, 1.0, children=[leaf])
        stats = prof.aggregate([root])
        assert stats["f"].calls == 2
        assert stats["f"].total_s == pytest.approx(1.0)  # outermost only
        assert stats["f"].self_s == pytest.approx(0.6 + 0.4)

    def test_errors_counted(self):
        stats = prof.aggregate([_span("x", 0.0, 0.1, status="error")])
        assert stats["x"].errors == 1

    def test_defaults_to_thread_trace(self):
        tracing.enable_tracing(True)
        with tracing.span("live"):
            pass
        assert "live" in prof.aggregate()

    def test_render_aggregate(self):
        inner = _span("inner", 0.1, 0.3)
        outer = _span("outer", 0.0, 1.0, children=[inner])
        text = prof.render_aggregate(prof.aggregate([outer]))
        lines = text.splitlines()
        assert lines[0].split() == [
            "span", "calls", "total", "ms", "self", "ms", "self", "%",
        ]
        # Hottest self-time first: outer (0.7) before inner (0.3).
        assert lines[1].startswith("outer")
        assert lines[2].startswith("inner")

    def test_render_empty(self):
        assert prof.render_aggregate({}) == "(no spans recorded)"


class TestFoldedStacks:
    def test_format_and_merge(self):
        run1 = _span("root", 0.0, 1.0, children=[_span("leaf", 0.1, 0.4)])
        run2 = _span("root", 2.0, 1.0, children=[_span("leaf", 2.1, 0.4)])
        text = prof.to_folded_stacks([run1, run2])
        assert text.endswith("\n")
        lines = dict(
            line.rsplit(" ", 1) for line in text.strip().splitlines()
        )
        # Identical stacks merged; self-time in integer microseconds.
        assert int(lines["root"]) == 2 * 600_000
        assert int(lines["root;leaf"]) == 2 * 400_000

    def test_empty_is_empty_string(self):
        assert prof.to_folded_stacks([]) == ""

    def test_write(self, tmp_path):
        target = prof.write_folded_stacks(
            tmp_path / "out.folded", [_span("a", 0.0, 0.5)]
        )
        assert target.read_text() == "a 500000\n"


class TestChromeTrace:
    def test_schema(self):
        inner = _span("pkg.inner", 0.25, 0.5, status="error", n=3)
        inner.error_type = "ValueError"
        outer = _span("pkg.outer", 0.0, 1.0, children=[inner])
        document = prof.to_chrome_trace([outer])
        assert document["displayTimeUnit"] == "ms"
        assert document["otherData"]["generator"] == "repro.obs.prof"
        events = document["traceEvents"]
        assert [e["name"] for e in events] == ["pkg.outer", "pkg.inner"]
        for event in events:
            assert event["ph"] == "X"
            assert event["pid"] == 1 and event["tid"] == 1
            assert event["cat"] == "pkg"
        outer_ev, inner_ev = events
        assert outer_ev["ts"] == 0.0
        assert outer_ev["dur"] == pytest.approx(1e6)
        assert inner_ev["ts"] == pytest.approx(0.25e6)
        assert inner_ev["args"] == {
            "n": 3, "error": True, "error_type": "ValueError",
        }

    def test_events_sorted_parents_first(self):
        a = _span("a", 1.0, 0.2)
        b = _span("b", 0.5, 1.0, children=[_span("b.child", 0.5, 0.9)])
        events = prof.to_chrome_trace([a, b])["traceEvents"]
        assert [e["name"] for e in events] == ["b", "b.child", "a"]

    def test_empty_trace(self):
        assert prof.to_chrome_trace([])["traceEvents"] == []

    def test_write_round_trips(self, tmp_path):
        tracing.enable_tracing(True)
        with tracing.span("outer"):
            with tracing.span("inner"):
                pass
        target = prof.write_chrome_trace(tmp_path / "trace.json")
        document = json.loads(target.read_text())
        assert {e["name"] for e in document["traceEvents"]} == {
            "outer", "inner",
        }


# --------------------------------------------------------------------------
# watchdog


def _summary(median, mad=0.0, reps=15):
    return {"median_s": median, "mad_s": mad, "reps": reps}


def _history(values, case="case.a", rev_prefix="r"):
    return [
        {"git_rev": f"{rev_prefix}{i}", "dirty": False, "timestamp": None,
         "cases": {case: _summary(v, 0.004)}}
        for i, v in enumerate(values)
    ]


class TestWatchdogCheck:
    def test_injected_2x_slowdown_detected(self):
        report = watchdog.check({"case.a": _summary(0.10, 0.005)},
                                {"case.a": _summary(0.20, 0.010)})
        assert not report.ok
        regression = report.regressions[0]
        assert regression.case == "case.a"
        assert regression.baseline_s == pytest.approx(0.10)
        assert regression.current_s == pytest.approx(0.20)
        assert "2.00x" in regression.describe()

    def test_steady_timing_passes(self):
        report = watchdog.check({"case.a": _summary(0.10, 0.005)},
                                {"case.a": _summary(0.102, 0.005)})
        assert report.ok
        assert report.checked == ["case.a"]

    def test_median_defeats_single_outlier(self):
        # One 10x repetition must not raise the bar.
        baseline = watchdog.summarize([0.10] * 6 + [1.0])
        assert baseline["median_s"] == pytest.approx(0.10)
        assert not watchdog.check({"case.a": baseline},
                                  {"case.a": _summary(0.20)}).ok

    def test_no_history_case_skipped_not_fatal(self):
        report = watchdog.check({"case.a": _summary(0.1)},
                                {"case.b": _summary(5.0)})
        assert report.ok
        assert report.skipped == ["case.b"]
        assert "no baseline for case.b" in report.summary()

    def test_band_is_z_sigmas_of_the_noisier_run(self):
        base, now = _summary(0.10, 0.004, 63), _summary(0.10, 0.003, 21)
        # 1.4826 * MAD estimates sigma; the larger MAD sets the band
        expected = watchdog.BAND_Z * 1.4826 * 0.004
        assert watchdog.band(base, now) == pytest.approx(expected)
        assert watchdog.band(now, base) == pytest.approx(expected)
        assert watchdog.band(base, now) == pytest.approx(expected)
        limit = 0.10 + expected
        assert watchdog.check({"c": base},
                              {"c": _summary(limit * 0.999, 0.003, 21)}).ok
        assert not watchdog.check({"c": base},
                                  {"c": _summary(limit * 1.001, 0.003, 21)}).ok

    def test_summarize_median_and_mad(self):
        assert watchdog.summarize([1.0, 2.0, 4.0, 8.0, 9.0]) == {
            "median_s": 4.0, "mad_s": 3.0, "reps": 5}


def _trivial_cases():
    """A module-level case factory, so spawned processes can import it."""
    return {"first": lambda: None, "second": lambda: sum(range(100))}, \
        (lambda: None)


class TestMeasure:
    def test_one_process_runs_cases_round_robin(self):
        calls, resets = [], []

        def factory():
            return ({name: (lambda name=name: calls.append(name))
                     for name in ("first", "second")},
                    lambda: resets.append(1))

        samples = watchdog._sample(factory, frozenset(), False)
        reps = len(samples["first"])
        # 7..21 repetitions shared out over the processes
        assert reps == -(-21 // watchdog.PROCESSES)
        assert len(samples["second"]) == reps
        # warm-up round, then alternating repetitions
        assert calls == ["first", "second"] * (reps + 1)
        assert len(resets) == len(calls)
        assert all(x >= 0.0 for x in samples["first"])
        # a baseline takes three times the repetitions
        longer = watchdog._sample(factory, frozenset(), True)
        assert len(longer["first"]) == 3 * reps

    def test_measure_pools_the_processes(self):
        pytest.importorskip("scipy")
        summaries = watchdog.measure(_trivial_cases, native={"second"})
        assert set(summaries) == {"first", "second"}
        for summary in summaries.values():
            assert summary["reps"] == \
                watchdog.PROCESSES * -(-21 // watchdog.PROCESSES)
            assert summary["median_s"] >= 0.0 and summary["mad_s"] >= 0.0

    def test_calibration_slices_are_cpu_time(self):
        assert 0.0 < watchdog._calibration_slice(list(range(1 << 17))) < 1.0
        pytest.importorskip("scipy")
        problem = watchdog._native_problem()
        assert 0.0 < watchdog._native_slice(problem) < 1.0


class TestWatchdogFile:
    def _write(self, tmp_path, history):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"schema": watchdog.SCHEMA,
                                    "history": history}))
        return path

    def test_newest_entry_vs_trailing(self, tmp_path):
        path = self._write(tmp_path, _history([0.1, 0.1, 0.1, 0.5]))
        report = watchdog.watch_file(path)
        assert not report.ok
        assert "r3" in report.baseline_label

    def test_live_timings_against_full_history(self, tmp_path):
        path = self._write(tmp_path, _history([0.1, 0.1, 0.1]))
        assert watchdog.watch_file(
            path, current={"case.a": _summary(0.1, 0.004)}).ok
        assert not watchdog.watch_file(
            path, current={"case.a": _summary(0.9, 0.004)}).ok

    def test_against_pins_single_revision(self, tmp_path):
        path = self._write(tmp_path, _history([0.05, 0.4, 0.1]))
        current = {"case.a": _summary(0.2, 0.004)}
        # Against the slow r1 entry 0.2s is fine; against fast r0 it is not.
        assert watchdog.watch_file(path, current=current, against="r1").ok
        assert not watchdog.watch_file(path, current=current,
                                       against="r0").ok

    def test_against_unknown_revision_raises(self, tmp_path):
        with pytest.raises(ValueError, match="no history entry"):
            watchdog.watch_file(
                self._write(tmp_path, []), current={}, against="zzz"
            )

    def test_committed_trajectory_passes(self):
        """The real BENCH_KERNELS.json must be schema v3, stamped, and
        watchdog-clean as committed."""
        from pathlib import Path

        path = Path(__file__).parent.parent / "BENCH_KERNELS.json"
        report = watchdog.watch_file(path)
        assert report.ok, report.summary()
        newest = watchdog.load_history_document(path)["history"][-1]
        assert newest["git_rev"] and isinstance(newest["dirty"], bool)
        assert len(newest["cases"]) >= 13
        for summary in newest["cases"].values():
            assert summary["median_s"] > 0 and summary["mad_s"] >= 0
            assert summary["reps"] >= 7


class TestSchema:
    def test_unknown_schema_rejected(self, tmp_path):
        # v1/v2 held raw wall seconds; there is no migration path to v3.
        path = tmp_path / "bench.json"
        for schema in ("repro.kernels/bench-smoke/v1",
                       "repro.kernels/bench-smoke/v2", "something/else"):
            path.write_text(json.dumps({"schema": schema, "history": []}))
            with pytest.raises(ValueError, match="unrecognized"):
                watchdog.load_history_document(path)


class TestRecordHistory:
    def _git(self, root, *args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                        *args], cwd=root, check=True, capture_output=True)

    def test_entry_stamped_with_revision_and_dirty_flag(self, tmp_path):
        self._git(tmp_path, "init", "-q")
        (tmp_path / "tracked.txt").write_text("a\n")
        self._git(tmp_path, "add", "tracked.txt")
        self._git(tmp_path, "commit", "-q", "-m", "init")
        bench = tmp_path / "bench.json"
        cases = {"case.a": _summary(0.1, 0.004)}

        clean = watchdog.record_history(bench, cases, tmp_path)["history"]
        assert clean[-1]["dirty"] is False
        assert clean[-1]["git_rev"] == watchdog.git_revision(tmp_path)

        (tmp_path / "untracked.txt").write_text("ignored\n")
        assert watchdog.git_dirty(tmp_path) is False
        (tmp_path / "tracked.txt").write_text("b\n")
        history = watchdog.record_history(bench, cases, tmp_path)["history"]
        # same revision: the entry is replaced, now marked dirty
        assert len(history) == 1 and history[0]["dirty"] is True
        assert watchdog.load_history_document(bench)["history"] == history

    def test_outside_a_checkout(self, tmp_path):
        assert watchdog.git_revision(tmp_path / "nowhere") == "unknown"
        assert watchdog.git_dirty(tmp_path / "nowhere") is None


class TestCanonicalJson:
    """The explicit canonicalizer behind run ids and cache keys.

    Regression: the encoder previously leaned on ``json.dumps(...,
    default=str)``, so sets hashed in ``PYTHONHASHSEED``-dependent
    iteration order, NaN/Infinity leaked as non-RFC tokens, and unknown
    types were silently stringified into near-miss identities.
    """

    def test_key_order_independent(self):
        assert ledger.canonical_json({"b": 1, "a": 2}) \
            == ledger.canonical_json({"a": 2, "b": 1})

    def test_sets_sorted_independent_of_insertion(self):
        forward = ledger.canonical_json({"s": {1, 2, 3, 10}})
        backward = ledger.canonical_json({"s": frozenset([10, 3, 2, 1])})
        assert forward == backward
        assert json.loads(forward)["s"] == sorted(
            json.loads(forward)["s"],
            key=lambda m: json.dumps(m, sort_keys=True))

    def test_mixed_type_sets_are_deterministic(self):
        # Sorted by canonical JSON encoding, not by hash order.
        a = ledger.canonical_json({"s": {1, "1", 2.5}})
        b = ledger.canonical_json({"s": {"1", 2.5, 1}})
        assert a == b

    def test_nonfinite_floats_tagged(self):
        text = ledger.canonical_json(
            [float("nan"), float("inf"), float("-inf")])
        assert "NaN" not in text and "Infinity" not in text
        assert json.loads(text) == [
            {"__nonfinite__": "nan"},
            {"__nonfinite__": "inf"},
            {"__nonfinite__": "-inf"},
        ]

    def test_unknown_types_raise(self):
        with pytest.raises(TypeError):
            ledger.canonical_json({"x": object()})
        with pytest.raises(TypeError):
            ledger.canonical_json({1: "non-string key"})

    def test_tuples_encode_as_lists(self):
        assert ledger.canonical_json((1, 2)) == ledger.canonical_json([1, 2])

    def test_sha256_matches_canonical_text(self):
        import hashlib

        payload = {"z": {3, 1}, "a": [1.5, "x"]}
        expected = hashlib.sha256(
            ledger.canonical_json(payload).encode("utf-8")).hexdigest()
        assert ledger.canonical_sha256(payload) == expected
        # The private alias older tools import still points at it.
        assert ledger._canonical_sha256(payload) == expected
