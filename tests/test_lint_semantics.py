"""Tests for the lint v2 semantic layer: index, call graph and rules.

Each semantic rule (LCK001, LCK002, DET001, EXC001, SCH001) gets a
planted true-positive fixture, a ``# repro: noqa``-suppressed variant
and a clean near-miss; the phase-1 machinery (symbol tables, call-graph
resolution, must-hold propagation, lock association) is exercised
directly on synthetic repositories under ``tmp_path``.  A meta-test
asserts the live repository is clean under the semantic rules alone.
"""

import textwrap
from pathlib import Path

import repro.lint as lint_pkg
from repro.lint import LintConfig, LintEngine, render_text

SEMANTIC_RULES = {"LCK001", "LCK002", "DET001", "EXC001", "SCH001"}


def make_repo(tmp_path, files):
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text), encoding="utf-8")
    return tmp_path


def run_fixture(tmp_path, files, **overrides):
    root = make_repo(tmp_path, files)
    config = LintConfig(root=root, paths=(root / "src",), **overrides)
    return LintEngine(config).run()


def rules_of(report):
    return sorted({f.rule for f in report.findings})


# ---------------------------------------------------------------------------
# phase 1: the project index
# ---------------------------------------------------------------------------


class TestProjectIndex:
    def index(self, tmp_path, files):
        root = make_repo(tmp_path, files)
        config = LintConfig(root=root, paths=(root / "src",))
        engine = LintEngine(config)
        contexts, errors = engine.parse_all()
        assert errors == []
        return engine.build_index(contexts)

    def test_cross_module_call_edge_resolves(self, tmp_path):
        index = self.index(tmp_path, {
            "src/pkg/a.py": (
                "from pkg.b import helper\n\n"
                "def caller():\n"
                "    return helper()\n"
            ),
            "src/pkg/b.py": "def helper():\n    return 1\n",
        })
        assert ("pkg.b:helper",) == tuple(
            sorted(index.graph.edges.get("pkg.a:caller", ())))

    def test_method_call_through_self_resolves(self, tmp_path):
        index = self.index(tmp_path, {
            "src/pkg/c.py": """\
                class Engine:
                    def run(self):
                        return self._step()

                    def _step(self):
                        return 0
                """,
        })
        assert "pkg.c:Engine._step" in index.graph.edges.get(
            "pkg.c:Engine.run", set())

    def test_must_hold_propagates_to_private_helper(self, tmp_path):
        index = self.index(tmp_path, {
            "src/pkg/d.py": """\
                import threading

                _LOCK = threading.Lock()
                _CACHE = {}  # repro: lock(_LOCK)

                def put(key, value):
                    with _LOCK:
                        _store(key, value)

                def _store(key, value):
                    _CACHE[key] = value
                """,
        })
        assert ("pkg.d", "", "_LOCK") in index.must_hold.get(
            "pkg.d:_store", frozenset())

    def test_must_hold_is_intersection_over_call_sites(self, tmp_path):
        index = self.index(tmp_path, {
            "src/pkg/e.py": """\
                import threading

                _LOCK = threading.Lock()

                def locked():
                    with _LOCK:
                        _work()

                def unlocked():
                    _work()

                def _work():
                    return 1
                """,
        })
        assert index.must_hold.get("pkg.e:_work", frozenset()) == frozenset()

    def test_escaping_function_inherits_nothing(self, tmp_path):
        index = self.index(tmp_path, {
            "src/pkg/f.py": """\
                import threading

                _LOCK = threading.Lock()
                CALLBACK = None

                def install():
                    global CALLBACK
                    CALLBACK = _work  # escapes: unknown future call sites

                def locked():
                    with _LOCK:
                        _work()

                def _work():
                    return 1
                """,
        })
        assert index.must_hold.get("pkg.f:_work", frozenset()) == frozenset()

    def test_lock_association_by_annotation(self, tmp_path):
        index = self.index(tmp_path, {
            "src/pkg/g.py": """\
                import threading

                _LOCK = threading.Lock()
                _ITEMS = []  # repro: lock(_LOCK)
                """,
        })
        summary = index.locks["pkg.g"]
        var = summary.variables[("pkg.g", "", "_ITEMS")]
        assert var.lock == ("pkg.g", "", "_LOCK")
        assert not var.inferred

    def test_lock_association_by_inference(self, tmp_path):
        index = self.index(tmp_path, {
            "src/pkg/h.py": """\
                import threading

                _LOCK = threading.Lock()
                _ITEMS = []

                def a():
                    with _LOCK:
                        _ITEMS.append(1)

                def b():
                    with _LOCK:
                        _ITEMS.append(2)

                def c():
                    with _LOCK:
                        return len(_ITEMS)
                """,
        })
        summary = index.locks["pkg.h"]
        var = summary.variables[("pkg.h", "", "_ITEMS")]
        assert var.lock == ("pkg.h", "", "_LOCK")
        assert var.inferred

    def test_last_all_assignment_wins_for_every_rule(self, tmp_path):
        # One __all__ reader: OBS001 (per-node) and DET001 (call graph)
        # judge the same export set, the runtime one -- the last
        # assignment.  Both functions are uninstrumented and reach the
        # global PRNG, so each rule flags exactly the exported one.
        report = run_fixture(tmp_path, {
            "src/pkg/solvers/s.py": """\
                import random

                __all__ = ["first"]
                __all__ = ["second"]

                def first(graph):
                    a = graph
                    b = a
                    return _jitter(b)

                def second(graph):
                    a = graph
                    b = a
                    return _jitter(b)

                def _jitter(graph):
                    return random.random()
                """,
        }, select={"OBS001", "DET001"}, obs_required=("pkg.solvers.",),
            det_entry_prefixes=("pkg.solvers.",))
        assert sorted((f.rule, f.line) for f in report.findings) == [
            ("DET001", 11), ("OBS001", 11)]
        assert all("`second`" in f.message for f in report.findings)

    def test_unassociated_candidate_has_no_lock(self, tmp_path):
        index = self.index(tmp_path, {
            "src/pkg/i.py": (
                "_ITEMS = []\n\n"
                "def add(x):\n"
                "    _ITEMS.append(x)\n"
            ),
        })
        summary = index.locks["pkg.i"]
        assert list(summary.guarded_vars()) == []


# ---------------------------------------------------------------------------
# LCK001 — lock discipline
# ---------------------------------------------------------------------------


ANNOTATED_CACHE = """\
    import threading

    _LOCK = threading.Lock()
    _CACHE = {{}}  # repro: lock(_LOCK)

    def put(key, value):
        with _LOCK:
            _CACHE[key] = value

    def get(key):
        return _CACHE.get(key){noqa}
    """


class TestLCK001:
    def run(self, tmp_path, body, **overrides):
        return run_fixture(tmp_path, {"src/pkg/m.py": body},
                           select={"LCK001"}, **overrides)

    def test_unguarded_read_of_annotated_var_flagged(self, tmp_path):
        report = self.run(tmp_path, ANNOTATED_CACHE.format(noqa=""))
        assert rules_of(report) == ["LCK001"]
        [finding] = report.findings
        assert "read of `_CACHE`" in finding.message
        assert "annotated" in finding.message
        assert finding.line == 11

    def test_noqa_suppresses(self, tmp_path):
        report = self.run(
            tmp_path,
            ANNOTATED_CACHE.format(noqa="  # repro: noqa[LCK001]"))
        assert report.findings == []

    def test_all_accesses_locked_is_clean(self, tmp_path):
        report = self.run(tmp_path, """\
            import threading

            _LOCK = threading.Lock()
            _CACHE = {}  # repro: lock(_LOCK)

            def put(key, value):
                with _LOCK:
                    _CACHE[key] = value

            def get(key):
                with _LOCK:
                    return _CACHE.get(key)
            """)
        assert report.findings == []

    def test_inferred_association_flags_the_outlier(self, tmp_path):
        report = self.run(tmp_path, """\
            import threading

            _LOCK = threading.Lock()
            _ITEMS = []

            def a():
                with _LOCK:
                    _ITEMS.append(1)

            def b():
                with _LOCK:
                    _ITEMS.append(2)

            def c():
                with _LOCK:
                    _ITEMS.append(3)

            def peek():
                return list(_ITEMS)
            """)
        assert rules_of(report) == ["LCK001"]
        [finding] = report.findings
        assert "inferred from usage" in finding.message
        assert finding.line == 19

    def test_unassociated_variable_is_not_flagged(self, tmp_path):
        # No annotation and no majority usage pattern: no association,
        # no findings — discovery alone must not fire the rule.
        report = self.run(tmp_path, (
            "_ITEMS = []\n\n"
            "def add(x):\n"
            "    _ITEMS.append(x)\n"
        ))
        assert report.findings == []

    def test_module_level_and_init_are_exempt(self, tmp_path):
        report = self.run(tmp_path, """\
            import threading

            _LOCK = threading.Lock()
            _CACHE = {}  # repro: lock(_LOCK)
            _CACHE["boot"] = 1

            def put(key, value):
                with _LOCK:
                    _CACHE[key] = value

            def get(key):
                with _LOCK:
                    return _CACHE.get(key)
            """)
        assert report.findings == []

    def test_unknown_annotation_is_a_problem_finding(self, tmp_path):
        report = self.run(tmp_path, (
            "_CACHE = {}  # repro: lock(_NOPE)\n"
        ))
        assert rules_of(report) == ["LCK001"]
        assert "names no known lock" in report.findings[0].message

    def test_must_hold_inheritance_keeps_helper_clean(self, tmp_path):
        report = self.run(tmp_path, """\
            import threading

            _LOCK = threading.Lock()
            _CACHE = {}  # repro: lock(_LOCK)

            def put(key, value):
                with _LOCK:
                    _store(key, value)

            def get(key):
                with _LOCK:
                    return _CACHE.get(key)

            def _store(key, value):
                _CACHE[key] = value
            """)
        assert report.findings == []

    def test_state_object_attribute_identity_unifies(self, tmp_path):
        # `self.items` in the class and `_STATE.items` at module scope
        # are the same variable when the class has a unique instance.
        report = self.run(tmp_path, """\
            import threading

            class _State:
                def __init__(self):
                    self.lock = threading.Lock()
                    self.items = []  # repro: lock(lock)

            _STATE = _State()

            def add(x):
                with _STATE.lock:
                    _STATE.items.append(x)

            def peek():
                return list(_STATE.items)
            """)
        assert rules_of(report) == ["LCK001"]
        [finding] = report.findings
        assert finding.line == 15
        assert "_STATE.items" in finding.message

    def test_global_scalar_rebind_is_a_candidate(self, tmp_path):
        report = self.run(tmp_path, """\
            import threading

            _LOCK = threading.Lock()
            _ENABLED = False  # repro: lock(_LOCK)

            def enable():
                global _ENABLED
                with _LOCK:
                    _ENABLED = True

            def enabled():
                return _ENABLED
            """)
        assert rules_of(report) == ["LCK001"]
        assert report.findings[0].line == 12

    def test_later_with_item_holds_the_earlier_items_lock(self, tmp_path):
        # `with self._lock, self._conn:` enters `_lock` before it reads
        # `_conn`; the reversed order reads `_conn` unguarded.
        report = self.run(tmp_path, """\
            import threading

            class Store:
                def __init__(self, conn):
                    self._lock = threading.Lock()
                    self._conn = conn  # repro: lock(_lock)

                def put(self, row):
                    with self._lock, self._conn:
                        self._conn.execute(row)

                def peek(self):
                    with self._conn, self._lock:
                        return self._conn.total
            """)
        assert rules_of(report) == ["LCK001"]
        [finding] = report.findings
        assert finding.line == 13
        assert "read of `" in finding.message and "_conn`" in finding.message

    def test_local_shadow_is_not_an_access(self, tmp_path):
        report = self.run(tmp_path, """\
            import threading

            _LOCK = threading.Lock()
            _CACHE = {}  # repro: lock(_LOCK)

            def other(_CACHE):
                return _CACHE.get("k")
            """)
        assert report.findings == []


# ---------------------------------------------------------------------------
# LCK002 — self-deadlock
# ---------------------------------------------------------------------------


class TestLCK002:
    def run(self, tmp_path, body):
        return run_fixture(tmp_path, {"src/pkg/m.py": body},
                           select={"LCK002"})

    def test_direct_nesting_flagged(self, tmp_path):
        report = self.run(tmp_path, """\
            import threading

            _LOCK = threading.Lock()

            def bad():
                with _LOCK:
                    with _LOCK:
                        pass
            """)
        assert rules_of(report) == ["LCK002"]
        [finding] = report.findings
        assert finding.line == 7
        assert "not reentrant" in finding.message

    def test_reacquire_in_one_with_statement_flagged(self, tmp_path):
        report = self.run(tmp_path, """\
            import threading

            _LOCK = threading.Lock()

            def bad():
                with _LOCK, _LOCK:
                    pass
            """)
        assert rules_of(report) == ["LCK002"]
        assert report.findings[0].line == 6

    def test_rlock_nesting_is_clean(self, tmp_path):
        report = self.run(tmp_path, """\
            import threading

            _LOCK = threading.RLock()

            def fine():
                with _LOCK:
                    with _LOCK:
                        pass
            """)
        assert report.findings == []

    def test_two_different_locks_are_clean(self, tmp_path):
        report = self.run(tmp_path, """\
            import threading

            _A = threading.Lock()
            _B = threading.Lock()

            def fine():
                with _A:
                    with _B:
                        pass
            """)
        assert report.findings == []

    def test_transitive_reacquire_flagged_at_call_site(self, tmp_path):
        # `_inner` also runs lock-free from `safe`, so must-hold stays
        # empty and only the call-graph walk can see the deadlock.
        report = self.run(tmp_path, """\
            import threading

            _LOCK = threading.Lock()

            def outer():
                with _LOCK:
                    _inner()

            def safe():
                _inner()

            def _inner():
                with _LOCK:
                    pass
            """)
        assert rules_of(report) == ["LCK002"]
        [finding] = report.findings
        assert finding.line == 7
        assert "_inner" in finding.message

    def test_must_hold_makes_inherited_reacquire_direct(self, tmp_path):
        # Every call site of `_inner` holds the lock, so `_inner`'s own
        # `with _LOCK:` is a guaranteed deadlock even without a path.
        report = self.run(tmp_path, """\
            import threading

            _LOCK = threading.Lock()

            def outer():
                with _LOCK:
                    _inner()

            def _inner():
                with _LOCK:
                    pass
            """)
        assert "LCK002" in rules_of(report)
        assert any(f.line == 10 for f in report.findings)

    def test_noqa_suppresses(self, tmp_path):
        report = self.run(tmp_path, """\
            import threading

            _LOCK = threading.Lock()

            def bad():
                with _LOCK:
                    with _LOCK:  # repro: noqa[LCK002]
                        pass
            """)
        assert report.findings == []


# ---------------------------------------------------------------------------
# DET001 — determinism reachability
# ---------------------------------------------------------------------------


def det_fixture(tmp_path, files, **overrides):
    overrides.setdefault("det_entry_prefixes", ("pkg.solvers.",))
    return run_fixture(tmp_path, files, select={"DET001"}, **overrides)


class TestDET001:
    def test_entry_reaching_global_prng_flagged(self, tmp_path):
        report = det_fixture(tmp_path, {
            "src/pkg/solvers/s.py": """\
                import random

                __all__ = ["solve"]

                def solve(graph):
                    return _jitter(graph)

                def _jitter(graph):
                    return random.random()
                """,
        })
        assert rules_of(report) == ["DET001"]
        [finding] = report.findings
        assert finding.line == 5
        assert "`solve`" in finding.message
        assert "via" in finding.message

    def test_cross_module_path_flagged(self, tmp_path):
        report = det_fixture(tmp_path, {
            "src/pkg/solvers/s.py": """\
                from pkg.util import shake

                __all__ = ["solve"]

                def solve(graph):
                    return shake(graph)
                """,
            "src/pkg/util.py": """\
                import random

                def shake(graph):
                    return random.shuffle(graph)
                """,
        })
        assert rules_of(report) == ["DET001"]
        assert "pkg/util.py" in report.findings[0].message

    def test_wall_clock_counts_as_nondeterminism(self, tmp_path):
        report = det_fixture(tmp_path, {
            "src/pkg/solvers/s.py": """\
                import time

                __all__ = ["solve"]

                def solve(graph):
                    return _stamp(graph)

                def _stamp(graph):
                    return time.time()
                """,
        })
        assert rules_of(report) == ["DET001"]
        assert "wall clock" in report.findings[0].message

    def test_source_in_entry_body_is_rng001s_job(self, tmp_path):
        report = det_fixture(tmp_path, {
            "src/pkg/solvers/s.py": """\
                import random

                __all__ = ["solve"]

                def solve(graph):
                    return random.random()
                """,
        })
        assert report.findings == []

    def test_seeded_helper_is_clean(self, tmp_path):
        report = det_fixture(tmp_path, {
            "src/pkg/solvers/s.py": """\
                import random

                __all__ = ["solve"]

                def solve(graph):
                    return _jitter(graph)

                def _jitter(graph):
                    return random.Random(7).random()
                """,
        })
        assert report.findings == []

    def test_exempt_prefix_sources_do_not_count(self, tmp_path):
        report = det_fixture(tmp_path, {
            "src/pkg/solvers/s.py": """\
                from pkg.obs.clock import stamp

                __all__ = ["solve"]

                def solve(graph):
                    return stamp(graph)
                """,
            "src/pkg/obs/clock.py": """\
                import time

                def stamp(graph):
                    return time.time()
                """,
        }, det_exempt_prefixes=("pkg.obs.",))
        assert report.findings == []

    def test_private_and_out_of_scope_functions_exempt(self, tmp_path):
        report = det_fixture(tmp_path, {
            # Not in __all__: not an entry point.
            "src/pkg/solvers/s.py": """\
                import random

                def helper(graph):
                    return _jitter(graph)

                def _jitter(graph):
                    return random.random()
                """,
            # Public, but outside det_entry_prefixes.
            "src/pkg/analysis/a.py": """\
                import random

                __all__ = ["tabulate"]

                def tabulate(rows):
                    return _jitter(rows)

                def _jitter(rows):
                    return random.random()
                """,
        })
        assert report.findings == []

    def test_noqa_suppresses(self, tmp_path):
        report = det_fixture(tmp_path, {
            "src/pkg/solvers/s.py": """\
                import random

                __all__ = ["solve"]

                def solve(graph):  # repro: noqa[DET001]
                    return _jitter(graph)

                def _jitter(graph):
                    return random.random()
                """,
        })
        assert report.findings == []


# ---------------------------------------------------------------------------
# EXC001 — instrumentation cleanup
# ---------------------------------------------------------------------------


class TestEXC001:
    def run(self, tmp_path, body):
        return run_fixture(tmp_path, {"src/pkg/m.py": body},
                           select={"EXC001"})

    def test_discarded_span_flagged(self, tmp_path):
        report = self.run(tmp_path, """\
            from pkg.obs.tracing import span

            def work(x):
                span("work")
                return x
            """)
        assert rules_of(report) == ["EXC001"]
        assert "discards" in report.findings[0].message

    def test_with_span_is_clean(self, tmp_path):
        report = self.run(tmp_path, """\
            from pkg.obs.tracing import span

            def work(x):
                with span("work"):
                    return x
            """)
        assert report.findings == []

    def test_release_outside_finally_flagged(self, tmp_path):
        report = self.run(tmp_path, """\
            from pkg.obs import resources

            def sample(run):
                resources.start_sampler()
                run()
                resources.stop_sampler()
            """)
        assert rules_of(report) == ["EXC001"]
        [finding] = report.findings
        assert finding.line == 6
        assert "finally" in finding.message

    def test_release_in_finally_is_clean(self, tmp_path):
        report = self.run(tmp_path, """\
            from pkg.obs import resources

            def sample(run):
                resources.start_sampler()
                try:
                    run()
                finally:
                    resources.stop_sampler()
            """)
        assert report.findings == []

    def test_enable_tracing_false_pairs_with_true(self, tmp_path):
        report = self.run(tmp_path, """\
            from pkg.obs.tracing import enable_tracing

            def traced(run):
                enable_tracing(True)
                run()
                enable_tracing(False)
            """)
        assert rules_of(report) == ["EXC001"]
        assert report.findings[0].line == 6

    def test_release_without_acquire_is_clean(self, tmp_path):
        # Tear-down helpers releasing state acquired elsewhere are fine.
        report = self.run(tmp_path, """\
            from pkg.obs import resources

            def teardown():
                resources.stop_sampler()
            """)
        assert report.findings == []

    def test_module_level_pairs_are_exempt(self, tmp_path):
        report = self.run(tmp_path, """\
            from pkg.obs import resources

            resources.start_sampler()
            resources.stop_sampler()
            """)
        assert report.findings == []

    def test_noqa_suppresses(self, tmp_path):
        report = self.run(tmp_path, """\
            from pkg.obs import resources

            def sample(run):
                resources.start_sampler()
                run()
                resources.stop_sampler()  # repro: noqa[EXC001]
            """)
        assert report.findings == []


# ---------------------------------------------------------------------------
# SCH001 — schema-version drift
# ---------------------------------------------------------------------------


class TestSCH001:
    def run(self, tmp_path, files, **overrides):
        return run_fixture(tmp_path, files, select={"SCH001"}, **overrides)

    def test_stale_reader_flagged(self, tmp_path):
        report = self.run(tmp_path, {
            "src/pkg/writer.py":
                'SCHEMA = "repro.obs/ledger-record/v2"\n',
            "src/pkg/reader.py":
                'ACCEPTED = "repro.obs/ledger-record/v1"\n',
        })
        assert rules_of(report) == ["SCH001"]
        [finding] = report.findings
        assert finding.path == "src/pkg/reader.py"
        assert "v1" in finding.message and "v2" in finding.message

    def test_migration_reader_mentioning_both_is_clean(self, tmp_path):
        report = self.run(tmp_path, {
            "src/pkg/writer.py":
                'SCHEMA = "repro.obs/ledger-record/v2"\n',
            "src/pkg/reader.py": (
                'CURRENT = "repro.obs/ledger-record/v2"\n'
                'LEGACY = "repro.obs/ledger-record/v1"\n'
            ),
        })
        assert report.findings == []

    def test_bare_mention_counts_for_the_file(self, tmp_path):
        # A docstring saying "ledger-record/v1" without the repro.obs/
        # prefix still marks the file as talking about the family.
        report = self.run(tmp_path, {
            "src/pkg/writer.py":
                'SCHEMA = "repro.obs/ledger-record/v2"\n',
            "src/pkg/tooling.py":
                '"""Validates ledger-record/v1 files."""\n',
        })
        assert rules_of(report) == ["SCH001"]
        assert report.findings[0].path == "src/pkg/tooling.py"

    def test_unrelated_families_do_not_interact(self, tmp_path):
        report = self.run(tmp_path, {
            "src/pkg/writer.py":
                'SCHEMA = "repro.obs/ledger-record/v2"\n',
            "src/pkg/events.py":
                'EVENT_SCHEMA = "repro.obs/event/v1"\n',
        })
        assert report.findings == []

    def test_docs_participate_via_schema_docs(self, tmp_path):
        report = self.run(tmp_path, {
            "src/pkg/writer.py":
                'SCHEMA = "repro.obs/ledger-record/v2"\n',
            "docs/format.md":
                "Records follow `repro.obs/ledger-record/v1`.\n",
        }, schema_docs=(tmp_path / "docs",))
        assert rules_of(report) == ["SCH001"]
        assert report.findings[0].path == "docs/format.md"

    def test_noqa_suppresses(self, tmp_path):
        report = self.run(tmp_path, {
            "src/pkg/writer.py":
                'SCHEMA = "repro.obs/ledger-record/v2"\n',
            "src/pkg/reader.py": (
                'ACCEPTED = "repro.obs/ledger-record/v1"'
                "  # repro: noqa[SCH001]\n"
            ),
        })
        assert report.findings == []


# ---------------------------------------------------------------------------
# the live repository is clean under the semantic rules
# ---------------------------------------------------------------------------


class TestLiveRepoSemantics:
    def test_semantic_rules_find_nothing(self):
        config = LintConfig.for_repo(Path(lint_pkg.__file__).parents[3])
        config.select = SEMANTIC_RULES
        report = LintEngine(config).run()
        assert report.findings == [], render_text(report)

    def test_full_run_is_fast(self):
        root = Path(lint_pkg.__file__).resolve().parents[3]
        report = LintEngine(LintConfig.for_repo(root)).run()
        assert report.elapsed_s < 10.0
