"""Tests for the repro.lint static analyzer.

Each rule gets fixture snippets that trigger it and a ``# repro: noqa``
suppression that silences it; the engine, the text report and the two
command-line faces are exercised on synthetic repositories under
``tmp_path``.  A meta-test asserts the live repository itself passes
``python -m repro.lint``.
"""

import textwrap

import pytest

from repro.lint import (
    Finding,
    LintConfig,
    LintEngine,
    Severity,
    registered_rules,
    render_text,
)
from repro.lint import main as lint_main
from repro.lint.project import parse_api_doc, parse_theory_index

#: The five per-node rules plus the seven whole-project (index) rules.
ALL_RULES = {
    "RNG001", "FLT001", "THM001", "LAY001", "OBS001", "API001", "ASR001",
    "LCK001", "LCK002", "DET001", "EXC001", "SCH001",
}


# ---------------------------------------------------------------------------
# fixture harness
# ---------------------------------------------------------------------------


def make_repo(tmp_path, files):
    """Materialise ``{relpath: source}`` under ``tmp_path`` (dedented)."""
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text), encoding="utf-8")
    return tmp_path


def run_fixture(tmp_path, files, **overrides):
    """Run the engine over a synthetic repo; rules see only ``overrides``."""
    root = make_repo(tmp_path, files)
    config = LintConfig(root=root, paths=(root / "src",), **overrides)
    return LintEngine(config).run()


def rules_of(report):
    return sorted({f.rule for f in report.findings})


# ---------------------------------------------------------------------------
# engine mechanics
# ---------------------------------------------------------------------------


class TestEngine:
    def test_all_rules_registered(self):
        assert set(registered_rules()) == ALL_RULES

    def test_clean_file_has_no_findings(self, tmp_path):
        report = run_fixture(
            tmp_path,
            {"src/pkg/clean.py": '"""A clean module."""\n\nX = 1\n'},
        )
        assert report.findings == []
        assert report.files_scanned == 1
        assert report.exit_code() == 0

    def test_syntax_error_reported_not_raised(self, tmp_path):
        report = run_fixture(
            tmp_path, {"src/pkg/broken.py": "def f(:\n    pass\n"}
        )
        assert len(report.parse_errors) == 1
        assert "broken.py" in report.parse_errors[0]

    def test_select_restricts_rules(self, tmp_path):
        files = {
            "src/pkg/mixed.py": """\
                import random

                def f(p):
                    x = random.random()
                    return p == 0.5
                """
        }
        report = run_fixture(tmp_path, dict(files), select={"FLT001"})
        assert rules_of(report) == ["FLT001"]

    def test_bare_noqa_suppresses_any_rule(self, tmp_path):
        report = run_fixture(
            tmp_path,
            {
                "src/pkg/f.py": (
                    "def f(p):\n"
                    "    return p == 0.5  # repro: noqa\n"
                )
            },
        )
        assert report.findings == []

    def test_noqa_for_other_rule_does_not_suppress(self, tmp_path):
        report = run_fixture(
            tmp_path,
            {
                "src/pkg/f.py": (
                    "def f(p):\n"
                    "    return p == 0.5  # repro: noqa[RNG001]\n"
                )
            },
        )
        assert rules_of(report) == ["FLT001"]

    def test_noqa_inside_string_is_not_a_suppression(self, tmp_path):
        # The '#' lives in a string literal, not a comment: no suppression.
        report = run_fixture(
            tmp_path,
            {
                "src/pkg/f.py": (
                    "def f(p):\n"
                    '    return (p == 0.5, "# repro: noqa")\n'
                )
            },
        )
        assert rules_of(report) == ["FLT001"]

    def test_noqa_covers_whole_multiline_statement(self, tmp_path):
        # The comment sits on the closing line; the finding anchors to the
        # opening line.  A noqa anywhere on the logical line must cover it.
        report = run_fixture(
            tmp_path,
            {
                "src/pkg/f.py": (
                    "def f(p):\n"
                    "    return (p\n"
                    "            == 0.5)  # repro: noqa[FLT001]\n"
                )
            },
        )
        assert report.findings == []

    def test_noqa_on_opening_line_of_multiline_statement(self, tmp_path):
        report = run_fixture(
            tmp_path,
            {
                "src/pkg/f.py": (
                    "def f(p):\n"
                    "    return (p ==  # repro: noqa[FLT001]\n"
                    "            0.5)\n"
                )
            },
        )
        assert report.findings == []

    def test_standalone_noqa_comment_covers_only_its_own_line(self, tmp_path):
        # A comment line between statements is not part of either logical
        # line: it must not silence the statement below it.
        report = run_fixture(
            tmp_path,
            {
                "src/pkg/f.py": (
                    "def f(p):\n"
                    "    # repro: noqa[FLT001]\n"
                    "    return p == 0.5\n"
                )
            },
        )
        assert rules_of(report) == ["FLT001"]

    def test_multiline_noqa_does_not_leak_to_next_statement(self, tmp_path):
        report = run_fixture(
            tmp_path,
            {
                "src/pkg/f.py": (
                    "def f(p):\n"
                    "    a = (p\n"
                    "         == 0.5)  # repro: noqa[FLT001]\n"
                    "    return p == 0.25\n"
                )
            },
        )
        assert len(report.findings) == 1
        assert report.findings[0].line == 4


class TestFindings:
    def test_render_and_severity_roundtrip(self):
        f = Finding("RNG001", Severity.ERROR, "src/x.py", 3, 0, "boom")
        assert f.render() == "src/x.py:3:0: error RNG001 boom"
        w = Finding("FLT001", Severity.WARNING, "src/x.py", 4, 2, "eq")
        assert w.render() == "src/x.py:4:2: warning FLT001 eq"


# ---------------------------------------------------------------------------
# RNG001 — unseeded randomness
# ---------------------------------------------------------------------------


class TestRNG001:
    def run(self, tmp_path, body, module="src/pkg/r.py", **overrides):
        return run_fixture(
            tmp_path, {module: body}, select={"RNG001"}, **overrides
        )

    def test_global_random_call_flagged(self, tmp_path):
        report = self.run(tmp_path, "import random\nx = random.random()\n")
        assert rules_of(report) == ["RNG001"]

    def test_from_import_alias_flagged(self, tmp_path):
        report = self.run(
            tmp_path, "from random import randint\nx = randint(0, 5)\n"
        )
        assert rules_of(report) == ["RNG001"]

    def test_numpy_global_state_flagged(self, tmp_path):
        report = self.run(
            tmp_path, "import numpy as np\nx = np.random.rand(3)\n"
        )
        assert rules_of(report) == ["RNG001"]

    def test_unseeded_constructor_flagged(self, tmp_path):
        report = self.run(tmp_path, "import random\nrng = random.Random()\n")
        assert rules_of(report) == ["RNG001"]

    def test_seeded_constructor_clean(self, tmp_path):
        report = self.run(
            tmp_path,
            "import random\nimport numpy as np\n"
            "rng = random.Random(7)\n"
            "gen = np.random.default_rng(7)\n",
        )
        assert report.findings == []

    def test_unseeded_default_rng_flagged(self, tmp_path):
        report = self.run(
            tmp_path, "import numpy as np\ngen = np.random.default_rng()\n"
        )
        assert rules_of(report) == ["RNG001"]

    def test_seed_taking_entry_point_exempt(self, tmp_path):
        body = """\
            import random

            def simulate(trials, seed=None):
                rng = random.Random() if seed is None else random.Random(seed)
                return rng
            """
        # Same code: exempt inside the sanctioned prefix, flagged outside it.
        exempt = self.run(
            tmp_path, body, module="src/pkg/sim/entry.py",
            rng_seeded_entry_prefixes=("pkg.sim.",),
        )
        assert exempt.findings == []
        flagged = run_fixture(
            tmp_path / "other", {"src/pkg/solve/entry.py": body},
            select={"RNG001"}, rng_seeded_entry_prefixes=("pkg.sim.",),
        )
        assert rules_of(flagged) == ["RNG001"]

    def test_noqa_suppresses(self, tmp_path):
        report = self.run(
            tmp_path,
            "import random\nx = random.random()  # repro: noqa[RNG001]\n",
        )
        assert report.findings == []


# ---------------------------------------------------------------------------
# FLT001 — bare float equality
# ---------------------------------------------------------------------------


class TestFLT001:
    def run(self, tmp_path, body):
        return run_fixture(
            tmp_path, {"src/pkg/f.py": body}, select={"FLT001"}
        )

    def test_eq_and_ne_float_literal_flagged(self, tmp_path):
        report = self.run(
            tmp_path,
            "def f(p):\n    return p == 0.5 or p != 1.0\n",
        )
        assert len(report.findings) == 2
        assert all(f.severity is Severity.WARNING for f in report.findings)

    def test_negative_literal_flagged(self, tmp_path):
        report = self.run(tmp_path, "def f(p):\n    return p == -1.0\n")
        assert rules_of(report) == ["FLT001"]

    def test_integer_and_ordering_comparisons_clean(self, tmp_path):
        report = self.run(
            tmp_path,
            "def f(p):\n    return p == 1 or p <= 0.5 or p > 0.0\n",
        )
        assert report.findings == []

    def test_isclose_is_the_sanctioned_spelling(self, tmp_path):
        report = self.run(
            tmp_path,
            "import math\n\ndef f(p):\n    return math.isclose(p, 0.5)\n",
        )
        assert report.findings == []

    def test_noqa_suppresses(self, tmp_path):
        report = self.run(
            tmp_path,
            "def f(p):\n    return p == 0.5  # repro: noqa[FLT001]\n",
        )
        assert report.findings == []


# ---------------------------------------------------------------------------
# THM001 — theorem tags
# ---------------------------------------------------------------------------


THEORY_DOC = """\
    # Theory guide

    Theorem 3.1 gives the pure characterization and Claims 4.2-4.4
    carry the covering construction; see also L4.1 and Corollary 3.3.
    """


class TestTHM001:
    def run(self, tmp_path, files, **overrides):
        files = dict(files)
        files.setdefault("docs/theory.md", THEORY_DOC)
        overrides.setdefault("theory_doc", tmp_path / "docs" / "theory.md")
        return run_fixture(tmp_path, files, select={"THM001"}, **overrides)

    def test_theory_index_parses_ranges_and_short_tags(self):
        index = parse_theory_index(textwrap.dedent(THEORY_DOC))
        assert {"T3.1", "CL4.2", "CL4.3", "CL4.4", "L4.1", "C3.3"} <= index

    def test_resolving_citation_clean(self, tmp_path):
        report = self.run(
            tmp_path,
            {"src/pkg/core/a.py": '"""Implements Theorem 3.1 (see CL4.3)."""\n'},
        )
        assert report.findings == []

    def test_dangling_citation_flagged(self, tmp_path):
        report = self.run(
            tmp_path,
            {"src/pkg/core/a.py": '"""Implements Theorem 9.9."""\n'},
        )
        assert rules_of(report) == ["THM001"]
        assert "T9.9" in report.findings[0].message

    def test_dangling_function_docstring_flagged(self, tmp_path):
        report = self.run(
            tmp_path,
            {
                "src/pkg/core/a.py": (
                    '"""Module (Theorem 3.1)."""\n\n'
                    "def f():\n"
                    '    """Uses L9.9."""\n'
                ),
            },
        )
        assert rules_of(report) == ["THM001"]
        assert "`f`" in report.findings[0].message

    def test_theory_package_module_must_cite(self, tmp_path):
        report = self.run(
            tmp_path,
            {"src/pkg/core/a.py": '"""No citation here."""\n'},
            theory_packages=("pkg.core",),
        )
        assert rules_of(report) == ["THM001"]
        assert "cites no paper result" in report.findings[0].message

    def test_non_theory_package_need_not_cite(self, tmp_path):
        report = self.run(
            tmp_path,
            {"src/pkg/util/a.py": '"""No citation here."""\n'},
            theory_packages=("pkg.core",),
        )
        assert report.findings == []

    def test_noqa_suppresses(self, tmp_path):
        report = self.run(
            tmp_path,
            {
                "src/pkg/core/a.py":
                    '"""Implements Theorem 9.9."""  # repro: noqa[THM001]\n'
            },
        )
        assert report.findings == []


# ---------------------------------------------------------------------------
# LAY001 — import layering
# ---------------------------------------------------------------------------


LAYERS = {"pkg": 9, "pkg.core": 1, "pkg.solvers": 2, "pkg.cli": 3}


class TestLAY001:
    def run(self, tmp_path, files):
        return run_fixture(
            tmp_path, files, select={"LAY001"}, layers=dict(LAYERS)
        )

    def test_upward_import_flagged(self, tmp_path):
        report = self.run(
            tmp_path,
            {
                "src/pkg/core/a.py": "from pkg.solvers.b import solve\n",
                "src/pkg/solvers/b.py": "def solve():\n    return 0\n",
            },
        )
        assert rules_of(report) == ["LAY001"]
        assert "layer 1" in report.findings[0].message
        assert "layer 2" in report.findings[0].message

    def test_downward_and_same_layer_imports_clean(self, tmp_path):
        report = self.run(
            tmp_path,
            {
                "src/pkg/core/a.py": "X = 1\n",
                "src/pkg/solvers/b.py": "from pkg.core.a import X\n",
                "src/pkg/solvers/c.py": "from pkg.solvers.b import X\n",
            },
        )
        assert report.findings == []

    def test_lazy_function_level_import_is_sanctioned(self, tmp_path):
        report = self.run(
            tmp_path,
            {
                "src/pkg/core/a.py": (
                    "def f():\n"
                    "    from pkg.solvers.b import solve\n"
                    "    return solve()\n"
                ),
                "src/pkg/solvers/b.py": "def solve():\n    return 0\n",
            },
        )
        assert report.findings == []

    def test_stdlib_imports_ignored(self, tmp_path):
        report = self.run(
            tmp_path,
            {"src/pkg/core/a.py": "import json\nimport os.path\n"},
        )
        assert report.findings == []

    def test_cycle_flagged(self, tmp_path):
        report = self.run(
            tmp_path,
            {
                "src/pkg/core/a.py": "import pkg.core.b\n",
                "src/pkg/core/b.py": "import pkg.core.a\n",
            },
        )
        assert rules_of(report) == ["LAY001"]
        assert "cycle" in report.findings[0].message

    def test_noqa_suppresses(self, tmp_path):
        report = self.run(
            tmp_path,
            {
                "src/pkg/core/a.py":
                    "from pkg.solvers.b import solve  # repro: noqa[LAY001]\n",
                "src/pkg/solvers/b.py": "def solve():\n    return 0\n",
            },
        )
        assert report.findings == []


# ---------------------------------------------------------------------------
# OBS001 — instrumentation of entry points
# ---------------------------------------------------------------------------


UNINSTRUMENTED = """\
    __all__ = ["solve"]

    def solve(graph, k):
        a = graph
        b = k
        c = a or b
        return c
    """


class TestOBS001:
    def run(self, tmp_path, body, module="src/pkg/solvers/s.py"):
        return run_fixture(
            tmp_path, {module: body},
            select={"OBS001"}, obs_required=("pkg.solvers.",),
        )

    def test_uninstrumented_export_flagged(self, tmp_path):
        report = self.run(tmp_path, UNINSTRUMENTED)
        assert rules_of(report) == ["OBS001"]
        assert "`solve`" in report.findings[0].message

    def test_span_counts_as_instrumentation(self, tmp_path):
        body = """\
            from pkg.obs import tracing

            __all__ = ["solve"]

            def solve(graph, k):
                with tracing.span("solve", k=k):
                    a = graph
                    b = k
                    return a or b
            """
        report = self.run(tmp_path, body)
        assert report.findings == []

    def test_traced_decorator_counts(self, tmp_path):
        body = """\
            from pkg.obs.tracing import traced

            __all__ = ["solve"]

            @traced("solve")
            def solve(graph, k):
                a = graph
                b = k
                c = a or b
                return c
            """
        report = self.run(tmp_path, body)
        assert report.findings == []

    def test_trivial_helper_exempt(self, tmp_path):
        body = """\
            __all__ = ["degree"]

            def degree(graph, v):
                return len(graph[v])
            """
        report = self.run(tmp_path, body)
        assert report.findings == []

    def test_private_function_exempt(self, tmp_path):
        body = UNINSTRUMENTED.replace('["solve"]', '["other"]') + \
            "\nother = solve\n"
        report = self.run(tmp_path, body)
        assert report.findings == []

    def test_module_outside_scope_exempt(self, tmp_path):
        report = self.run(
            tmp_path, UNINSTRUMENTED, module="src/pkg/analysis/s.py"
        )
        assert report.findings == []

    def test_noqa_suppresses(self, tmp_path):
        body = UNINSTRUMENTED.replace(
            "def solve(graph, k):",
            "def solve(graph, k):  # repro: noqa[OBS001]",
        )
        report = self.run(tmp_path, body)
        assert report.findings == []


# ---------------------------------------------------------------------------
# API001 — __all__ vs docs/api.md
# ---------------------------------------------------------------------------


API_DOC = """\
    # API

    ## `pkg.mod`

    - **`foo`** — does foo.
    """


# ---------------------------------------------------------------------------
# ASR001 — no assert in the package
# ---------------------------------------------------------------------------


class TestASR001:
    def run(self, tmp_path, body, module="src/repro/core/m.py"):
        return run_fixture(tmp_path, {module: body}, select={"ASR001"})

    def test_assert_flagged(self, tmp_path):
        report = self.run(tmp_path, "def f(x):\n    assert x is not None\n"
                                    "    return x\n")
        assert rules_of(report) == ["ASR001"]
        assert report.findings[0].severity is Severity.ERROR
        assert "python -O" in report.findings[0].message

    def test_package_root_module_flagged(self, tmp_path):
        report = self.run(tmp_path, "assert True\n",
                          module="src/repro/__init__.py")
        assert rules_of(report) == ["ASR001"]

    def test_explicit_raise_is_clean(self, tmp_path):
        report = self.run(
            tmp_path,
            "def f(x):\n    if x is None:\n"
            "        raise RuntimeError('x unset')\n    return x\n",
        )
        assert report.findings == []

    def test_modules_outside_the_packages_are_clean(self, tmp_path):
        report = self.run(tmp_path, "assert True\n",
                          module="src/pkgtools/m.py")
        assert report.findings == []

    def test_noqa_suppresses(self, tmp_path):
        report = self.run(
            tmp_path, "assert True  # repro: noqa[ASR001]\n",
        )
        assert report.findings == []


class TestAPI001:
    def run(self, tmp_path, files):
        files = dict(files)
        files.setdefault("docs/api.md", API_DOC)
        return run_fixture(
            tmp_path, files,
            select={"API001"}, api_doc=tmp_path / "docs" / "api.md",
        )

    def test_parse_api_doc(self):
        assert parse_api_doc(textwrap.dedent(API_DOC)) == {"pkg.mod": {"foo"}}

    def test_documented_export_clean(self, tmp_path):
        report = self.run(
            tmp_path,
            {"src/pkg/mod.py": '__all__ = ["foo"]\n\ndef foo():\n    pass\n'},
        )
        assert report.findings == []

    def test_missing_name_flagged(self, tmp_path):
        report = self.run(
            tmp_path,
            {
                "src/pkg/mod.py":
                    '__all__ = ["foo", "bar"]\n\nfoo = bar = None\n'
            },
        )
        assert rules_of(report) == ["API001"]
        assert "bar" in report.findings[0].message

    def test_missing_section_flagged(self, tmp_path):
        report = self.run(
            tmp_path,
            {"src/pkg/newmod.py": '__all__ = ["baz"]\n\nbaz = None\n'},
        )
        assert rules_of(report) == ["API001"]
        assert "no section" in report.findings[0].message

    def test_noqa_suppresses(self, tmp_path):
        report = self.run(
            tmp_path,
            {
                "src/pkg/newmod.py":
                    '__all__ = ["baz"]  # repro: noqa[API001]\n\nbaz = None\n'
            },
        )
        assert report.findings == []


# ---------------------------------------------------------------------------
# renderers
# ---------------------------------------------------------------------------


class TestRenderers:
    def report(self, tmp_path):
        files = {
            "src/pkg/r.py": "import random\nx = random.random()\n",
            "src/pkg/f.py": "def f(p):\n    return p == 0.5\n",
        }
        root = make_repo(tmp_path, files)
        config = LintConfig(root=root, paths=(root / "src",),
                            select={"RNG001", "FLT001"})
        return LintEngine(config).run()

    def test_text_summary(self, tmp_path):
        report = self.report(tmp_path)
        text = render_text(report)
        assert "2 finding(s) in 2 file(s)" in text
        assert "FLT001=1" in text and "RNG001=1" in text

    def test_text_clean_summary(self, tmp_path):
        root = make_repo(tmp_path, {"src/pkg/ok.py": "X = 1\n"})
        config = LintConfig(root=root, paths=(root / "src",))
        text = render_text(LintEngine(config).run())
        assert text.startswith("clean: 0 findings in 1 file(s)")

# ---------------------------------------------------------------------------
# command-line surfaces
# ---------------------------------------------------------------------------


def violating_repo(tmp_path):
    """A repo-shaped fixture with exactly one violation per rule."""
    return make_repo(tmp_path, {
        "docs/theory.md": THEORY_DOC,
        "docs/api.md": API_DOC.replace("pkg.mod", "repro.analysis.ok"),
        "src/repro/analysis/rng_bad.py":
            "import random\nx = random.random()\n",
        "src/repro/analysis/flt_bad.py":
            "def f(p):\n    return p == 0.5\n",
        "src/repro/core/thm_bad.py": '"""Implements Theorem 9.9."""\n',
        "src/repro/core/lay_bad.py":
            '"""Theorem 3.1."""\nfrom repro.cli import main\n',
        "src/repro/solvers/obs_bad.py": UNINSTRUMENTED,
        "src/repro/analysis/api_bad.py":
            '__all__ = ["mystery"]\n\nmystery = None\n',
    })


class TestCommandLine:
    @pytest.mark.parametrize("rule,bad_file", [
        ("RNG001", "src/repro/analysis/rng_bad.py"),
        ("FLT001", "src/repro/analysis/flt_bad.py"),
        ("THM001", "src/repro/core/thm_bad.py"),
        ("LAY001", "src/repro/core/lay_bad.py"),
        ("OBS001", "src/repro/solvers/obs_bad.py"),
        ("API001", "src/repro/analysis/api_bad.py"),
    ])
    def test_each_rule_fails_its_fixture(self, tmp_path, capsys, rule,
                                         bad_file):
        root = violating_repo(tmp_path)
        code = lint_main(["--root", str(root), str(root / bad_file)])
        assert code == 1
        assert f" {rule} " in capsys.readouterr().out

    def test_clean_fixture_exits_zero(self, tmp_path):
        root = make_repo(tmp_path, {
            "src/repro/analysis/ok.py":
                '__all__ = ["foo"]\n\ndef foo():\n    pass\n',
            "docs/api.md": API_DOC.replace("pkg.mod", "repro.analysis.ok"),
            "docs/theory.md": THEORY_DOC,
        })
        code = lint_main(["--root", str(root), str(root / "src" / "repro")])
        assert code == 0

    def test_warning_alone_fails_the_run(self, tmp_path, capsys):
        root = violating_repo(tmp_path)
        code = lint_main(["--root", str(root),
                          str(root / "src/repro/analysis/flt_bad.py")])
        out = capsys.readouterr().out
        assert " warning FLT001 " in out and " error " not in out
        assert code == 1

    def test_cli_subcommand_runs_the_same_lint(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        root = violating_repo(tmp_path)
        code = cli_main(["lint", "--root", str(root),
                         str(root / "src/repro/analysis/rng_bad.py")])
        assert code == 1
        assert " RNG001 " in capsys.readouterr().out

    def test_lint_run_records_wall_time(self, tmp_path):
        root = make_repo(tmp_path, {"src/pkg/ok.py": "X = 1\n"})
        report = LintEngine(LintConfig(root=root, paths=(root / "src",))).run()
        assert report.elapsed_s > 0
        assert render_text(report).endswith(f"in {report.elapsed_s:.2f}s")

    @pytest.mark.parametrize("flag", [
        "--strict", "--baseline", "--write-baseline", "--changed",
        "--select=RNG001", "--format=json", "--output=lint.sarif",
    ])
    def test_removed_options_are_usage_errors(self, flag, capsys):
        from repro.cli import main as cli_main

        for entry in (lint_main, lambda argv: cli_main(["lint", *argv])):
            with pytest.raises(SystemExit) as exc:
                entry([flag])
            assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_parse_error_exits_two(self, tmp_path):
        root = make_repo(tmp_path, {
            "src/repro/analysis/broken.py": "def f(:\n    pass\n",
        })
        code = lint_main(["--root", str(root),
                          str(root / "src" / "repro" / "analysis")])
        assert code == 2

# ---------------------------------------------------------------------------
# the live repository is clean
# ---------------------------------------------------------------------------


class TestLiveRepo:
    def test_repo_is_clean(self, capsys):
        """The acceptance gate: `python -m repro.lint` exits 0."""
        code = lint_main([])
        out = capsys.readouterr().out
        assert code == 0, out

    def test_default_layers_cover_every_package(self):
        from repro.lint import DEFAULT_LAYERS

        import repro

        pkg_root = repro.__path__[0]
        from pathlib import Path

        for child in sorted(Path(pkg_root).iterdir()):
            if child.is_dir() and (child / "__init__.py").is_file():
                assert f"repro.{child.name}" in DEFAULT_LAYERS, (
                    f"package repro.{child.name} missing from DEFAULT_LAYERS"
                )
