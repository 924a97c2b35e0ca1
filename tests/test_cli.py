"""End-to-end tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import build_parser, main
from repro.graphs.generators import (
    complete_bipartite_graph,
    cycle_graph,
    grid_graph,
    petersen_graph,
)
from repro.graphs.io import save_edge_list


@pytest.fixture
def grid_file(tmp_path):
    path = tmp_path / "grid.edges"
    save_edge_list(grid_graph(3, 4), path)
    return str(path)


@pytest.fixture
def petersen_file(tmp_path):
    path = tmp_path / "petersen.edges"
    save_edge_list(petersen_graph(), path)
    return str(path)


@pytest.fixture
def house_file(tmp_path):
    """C5 + chord: defeats every structural construction in the library."""
    from repro.graphs.core import Graph

    path = tmp_path / "house.edges"
    save_edge_list(
        Graph([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]), path
    )
    return str(path)


class TestInfo:
    def test_prints_structure(self, grid_file, capsys):
        assert main(["info", grid_file]) == 0
        out = capsys.readouterr().out
        assert "12" in out  # n
        assert "17" in out  # m
        assert "yes" in out  # bipartite
        assert "minimum edge cover" in out

    def test_missing_file_exits_2(self, capsys):
        assert main(["info", "/nonexistent/graph.edges"]) == 2
        assert "error" in capsys.readouterr().err


class TestPure:
    def test_exists(self, grid_file, capsys):
        assert main(["pure", grid_file, "-k", "6"]) == 0
        out = capsys.readouterr().out
        assert "pure NE exists" in out
        assert "defender cover" in out

    def test_not_exists(self, grid_file, capsys):
        assert main(["pure", grid_file, "-k", "2"]) == 1
        assert "no pure NE" in capsys.readouterr().out


class TestSolve:
    def test_kmatching(self, grid_file, capsys):
        assert main(["solve", grid_file, "-k", "3", "--nu", "4"]) == 0
        out = capsys.readouterr().out
        assert "k-matching" in out
        assert "defender gain" in out
        assert "2.000000" in out  # 3*4/6

    def test_pure_regime(self, grid_file, capsys):
        assert main(["solve", grid_file, "-k", "8", "--nu", "2"]) == 0
        assert "pure" in capsys.readouterr().out

    def test_petersen_solves_via_extension(self, petersen_file, capsys):
        assert main(["solve", petersen_file, "-k", "2"]) == 0
        assert "perfect-matching" in capsys.readouterr().out

    def test_no_equilibrium(self, house_file, capsys):
        assert main(["solve", house_file, "-k", "2"]) == 1
        assert "no structural equilibrium" in capsys.readouterr().out

    def test_invalid_k_reports_error(self, grid_file, capsys):
        assert main(["solve", grid_file, "-k", "99"]) == 2
        assert "error" in capsys.readouterr().err


class TestGain:
    def test_sweep_with_slope(self, grid_file, capsys):
        assert main(["gain", grid_file, "--nu", "4"]) == 0
        out = capsys.readouterr().out
        assert "fitted slope" in out
        assert "0.666667" in out  # 4 / rho = 4/6

    def test_lp_column(self, tmp_path, capsys):
        path = tmp_path / "k23.edges"
        save_edge_list(complete_bipartite_graph(2, 3), path)
        assert main(["gain", str(path), "--nu", "2", "--lp"]) == 0
        assert "lp_gain" in capsys.readouterr().out


class TestSimulate:
    def test_reports_ci(self, grid_file, capsys):
        assert main(
            ["simulate", grid_file, "-k", "2", "--nu", "3", "--trials", "4000"]
        ) == 0
        out = capsys.readouterr().out
        assert "analytic defender gain" in out
        assert "95% CI" in out
        assert "inside CI: yes" in out

    def test_no_equilibrium(self, house_file, capsys):
        assert main(["simulate", house_file, "-k", "2"]) == 1


class TestReport:
    def test_full_report(self, grid_file, capsys):
        assert main(
            ["report", grid_file, "-k", "2", "--nu", "3", "--trials", "1000"]
        ) == 0
        out = capsys.readouterr().out
        assert "NETWORK SECURITY GAME REPORT" in out
        assert "Operating point k = 2" in out

    def test_unsolvable_point(self, house_file, capsys):
        assert main(["report", house_file, "-k", "1"]) == 1
        assert "no structural equilibrium" in capsys.readouterr().out


class TestExport:
    def test_writes_loadable_schedule(self, grid_file, tmp_path, capsys):
        out_path = tmp_path / "schedule.json"
        assert main(
            ["export", grid_file, "-k", "2", "--nu", "3", "-o", str(out_path)]
        ) == 0
        assert "wrote k-matching schedule" in capsys.readouterr().out

        from repro.core.serialize import configuration_from_json
        from repro.core.characterization import is_mixed_nash

        restored = configuration_from_json(out_path.read_text())
        assert is_mixed_nash(restored.game, restored)

    def test_unsolvable(self, house_file, tmp_path, capsys):
        out_path = tmp_path / "never.json"
        assert main(["export", house_file, "-k", "2", "-o", str(out_path)]) == 1
        assert not out_path.exists()


class TestShapes:
    def test_comparison_table(self, grid_file, capsys):
        assert main(["shapes", grid_file, "-k", "2"]) == 0
        out = capsys.readouterr().out
        assert "tuple" in out
        assert "path" in out
        assert "star" in out
        assert "100.0%" in out


class TestRanges:
    def test_prints_polytope_tables(self, tmp_path, capsys):
        from repro.graphs.generators import star_graph

        path = tmp_path / "star.edges"
        save_edge_list(star_graph(3), path)
        assert main(["ranges", str(path), "-k", "1"]) == 0
        out = capsys.readouterr().out
        assert "duel value" in out
        assert "attacker probability ranges" in out
        assert "mandatory links" in out  # star: every edge is mandatory


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for command in ("info", "pure", "solve", "gain", "simulate"):
            args = parser.parse_args(
                [command, "g.edges"] + (["-k", "1"] if command in ("pure", "solve", "simulate") else [])
            )
            assert args.command == command


class TestStats:
    def test_prints_trace_and_snapshot(self, grid_file, capsys):
        assert main(["stats", grid_file, "-k", "2"]) == 0
        out = capsys.readouterr().out
        assert "equilibrium kind : k-matching" in out
        assert "== trace ==" in out
        assert "equilibria.solve" in out  # the root span
        assert "ms" in out
        assert "== metrics snapshot ==" in out
        assert "equilibria.solve.count" in out
        assert "equilibria.solve.kind.k-matching.count" in out

    def test_json_format_is_a_registry_snapshot(self, grid_file, capsys):
        import json

        assert main(["stats", grid_file, "-k", "2", "--format", "json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert set(snapshot) == {"counters", "gauges", "histograms"}
        assert snapshot["counters"]["equilibria.solve.count"] >= 1

    def test_prom_format(self, grid_file, capsys):
        assert main(["stats", grid_file, "-k", "2", "--format", "prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_equilibria_solve_count counter" in out

    def test_unsolvable_still_reports_metrics(self, house_file, capsys):
        assert main(["stats", house_file, "-k", "2"]) == 1
        out = capsys.readouterr().out
        assert "no structural equilibrium" in out
        assert "== metrics snapshot ==" in out
        assert "equilibria.solve.kind.none.count" in out


class TestObservabilityFlags:
    def test_trace_appends_span_tree(self, grid_file, capsys):
        assert main(["solve", grid_file, "-k", "3", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "equilibrium kind : k-matching" in out  # normal output intact
        assert "== trace ==" in out
        assert "equilibria.solve" in out

    def test_trace_flag_before_subcommand(self, grid_file, capsys):
        assert main(["--trace", "solve", grid_file, "-k", "3"]) == 0
        assert "== trace ==" in capsys.readouterr().out

    def test_no_trace_by_default(self, grid_file, capsys):
        assert main(["solve", grid_file, "-k", "3"]) == 0
        assert "== trace ==" not in capsys.readouterr().out

    def test_quiet_suppresses_stdout(self, grid_file, capsys):
        assert main(["info", grid_file, "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_quiet_keeps_errors(self, capsys):
        assert main(["--quiet", "info", "/nonexistent/graph.edges"]) == 2
        assert "error" in capsys.readouterr().err

    def test_log_json_emits_json_lines(self, grid_file, capsys):
        import json

        assert main(["--log-json", "solve", grid_file, "-k", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines
        for line in lines:
            record = json.loads(line)
            assert record["event"] == "output"
        assert any("k-matching" in json.loads(l)["text"] for l in lines)


class TestRedTeam:
    def test_drill_against_equilibrium(self, grid_file, capsys):
        assert main(
            ["redteam", grid_file, "-k", "2", "--rounds", "2000"]
        ) == 0
        out = capsys.readouterr().out
        assert "red-team escape rate" in out
        assert "schedule holds" in out

    def test_unsolvable(self, house_file, capsys):
        assert main(["redteam", house_file, "-k", "1"]) == 1


class TestStatsOutput:
    def test_prometheus_alias(self, grid_file, capsys):
        assert main(
            ["stats", grid_file, "-k", "2", "--format", "prometheus"]
        ) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_equilibria_solve_count counter" in out

    def test_output_file(self, grid_file, tmp_path, capsys):
        target = tmp_path / "metrics.prom"
        assert main(
            ["stats", grid_file, "-k", "2", "--format", "prometheus",
             "-o", str(target)]
        ) == 0
        out = capsys.readouterr().out
        assert f"wrote prometheus snapshot to {target}" in out
        assert "# TYPE" not in out  # the snapshot went to the file
        assert "repro_equilibria_solve_count" in target.read_text()

    def test_output_file_json(self, grid_file, tmp_path):
        import json

        target = tmp_path / "metrics.json"
        assert main(
            ["stats", grid_file, "-k", "2", "--format", "json",
             "--output", str(target)]
        ) == 0
        snapshot = json.loads(target.read_text())
        assert snapshot["counters"]["equilibria.solve.count"] >= 1

    def test_text_format_includes_span_aggregation(self, grid_file, capsys):
        assert main(["stats", grid_file, "-k", "2"]) == 0
        assert "== span aggregation ==" in capsys.readouterr().out


class TestProfile:
    def test_prints_aggregation_table(self, grid_file, capsys):
        assert main(["profile", grid_file, "-k", "2"]) == 0
        out = capsys.readouterr().out
        assert "equilibrium kind : k-matching" in out
        assert "== span aggregation" in out
        assert "equilibria.solve" in out
        assert "self %" in out

    def test_chrome_trace_export(self, grid_file, tmp_path, capsys):
        import json

        target = tmp_path / "trace.json"
        assert main(
            ["profile", grid_file, "-k", "2", "--chrome-trace", str(target)]
        ) == 0
        assert "wrote Chrome trace_event JSON" in capsys.readouterr().out
        document = json.loads(target.read_text())
        events = document["traceEvents"]
        assert events and all(e["ph"] == "X" for e in events)
        assert any(e["name"] == "equilibria.solve" for e in events)
        assert document["displayTimeUnit"] == "ms"

    def test_folded_export(self, grid_file, tmp_path):
        target = tmp_path / "stacks.folded"
        assert main(
            ["profile", grid_file, "-k", "2", "--folded", str(target)]
        ) == 0
        lines = target.read_text().strip().splitlines()
        assert lines
        for line in lines:
            stack, count = line.rsplit(" ", 1)
            assert stack and count.isdigit()
        assert any(l.startswith("equilibria.solve") for l in lines)

    def test_unsolvable_exits_1(self, house_file, capsys):
        assert main(["profile", house_file, "-k", "1"]) == 1
        assert "no structural equilibrium" in capsys.readouterr().out


class TestLedgerFlags:
    def test_ledger_dir_records_solve(self, grid_file, tmp_path, capsys):
        import json

        d = tmp_path / "ledger"
        assert main(
            ["--ledger-dir", str(d), "solve", grid_file, "-k", "2"]
        ) == 0
        path = d / "equilibria.solve.jsonl"
        record = json.loads(path.read_text().splitlines()[0])
        assert record["schema"] == "repro.obs/ledger-record/v3"
        assert record["status"] == "ok"
        assert record["fingerprint"]["k"] == 2
        assert record["spans"]

    def test_ledger_disabled_after_run(self, grid_file, tmp_path):
        from repro.obs import ledger as obs_ledger

        assert main(
            ["--ledger-dir", str(tmp_path / "led"), "info", grid_file]
        ) == 0
        assert not obs_ledger.ledger_enabled()

    def test_no_ledger_by_default(self, grid_file, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["solve", grid_file, "-k", "2"]) == 0
        assert not (tmp_path / ".repro").exists()


class TestWatch:
    def _bench_file(self, tmp_path, history_values):
        import json

        path = tmp_path / "bench.json"
        path.write_text(json.dumps({
            "schema": "repro.kernels/bench-smoke/v3",
            "history": [
                {"git_rev": f"r{i}", "dirty": False, "timestamp": None,
                 "cases": {"case.a": {"median_s": v, "mad_s": 0.005,
                                      "reps": 15}}}
                for i, v in enumerate(history_values)
            ],
        }))
        return str(path)

    def test_clean_history_reports_ok(self, tmp_path, capsys):
        path = self._bench_file(tmp_path, [0.1, 0.1, 0.1, 0.11])
        assert main(["watch", "--file", path]) == 0
        out = capsys.readouterr().out
        assert "0 regressions" in out

    def test_regression_reported_but_not_fatal(self, tmp_path, capsys):
        path = self._bench_file(tmp_path, [0.1, 0.1, 0.1, 0.5])
        assert main(["watch", "--file", path]) == 0
        assert "REGRESSION case.a" in capsys.readouterr().out

    def test_strict_makes_regressions_fatal(self, tmp_path, capsys):
        path = self._bench_file(tmp_path, [0.1, 0.1, 0.1, 0.5])
        assert main(["watch", "--file", path, "--strict"]) == 1

    def test_against_unknown_rev_errors(self, tmp_path, capsys):
        path = self._bench_file(tmp_path, [0.1, 0.2])
        assert main(["watch", "--file", path, "--against", "nope"]) == 1
        assert "no history entry" in capsys.readouterr().out

    def test_missing_file_is_not_fatal(self, tmp_path, capsys):
        assert main(
            ["watch", "--file", str(tmp_path / "absent.json")]
        ) == 0
        assert "missing" in capsys.readouterr().out


class TestCache:
    @pytest.fixture(autouse=True)
    def _cache_off(self):
        import repro.cache as result_cache

        result_cache.disable_cache()
        yield
        result_cache.disable_cache()

    @pytest.fixture
    def populated(self, grid_file, tmp_path, capsys):
        """A cache directory populated by one --cache-dir solve."""
        cache_dir = str(tmp_path / "cache")
        assert main(["solve", grid_file, "-k", "3",
                     "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        return cache_dir

    def test_cache_dir_solve_populates_and_replays(self, grid_file,
                                                   populated, capsys):
        from repro.obs import metrics

        metrics.get_registry().reset()
        assert main(["solve", grid_file, "-k", "3",
                     "--cache-dir", populated]) == 0
        snapshot = metrics.get_registry().snapshot()["counters"]
        assert snapshot.get("cache.hits.count") == 1

    def test_stats_text_and_json(self, populated, capsys):
        assert main(["cache", "stats", "--dir", populated]) == 0
        out = capsys.readouterr().out
        assert "equilibria.solve" in out
        assert main(["cache", "stats", "--dir", populated,
                     "--format", "json"]) == 0
        import json as _json

        stats = _json.loads(capsys.readouterr().out)
        assert stats["entries"] == 1
        assert stats["solvers"]["equilibria.solve"]["entries"] == 1

    def test_lookup_lists_entries(self, populated, capsys):
        assert main(["cache", "lookup", "--dir", populated,
                     "--solver", "equilibria.solve"]) == 0
        assert "1 matching" in capsys.readouterr().out
        assert main(["cache", "lookup", "--dir", populated,
                     "--solver", "nope"]) == 0
        assert "0 matching" in capsys.readouterr().out

    def test_gc_empties_store(self, populated, capsys):
        assert main(["cache", "gc", "--dir", populated,
                     "--max-age", "0"]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--dir", populated,
                     "--format", "json"]) == 0
        import json as _json

        assert _json.loads(capsys.readouterr().out)["entries"] == 0

    def test_cache_subcommand_never_enables_memoization(self, populated):
        import repro.cache as result_cache

        assert main(["cache", "stats", "--dir", populated]) == 0
        assert not result_cache.cache_enabled()
