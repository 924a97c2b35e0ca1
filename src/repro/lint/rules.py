"""Per-node domain rules: RNG001, FLT001, OBS001, ASR001.

These rules judge one file at a time from its AST; the cross-file rules
(layering, documentation indices) live in :mod:`repro.lint.project`.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set, Tuple

from repro.lint.engine import FileContext, Rule, register
from repro.lint.findings import Finding, Severity

# --------------------------------------------------------------------------
# RNG001 — no unseeded / global-state randomness


#: `random.<fn>()` calls that mutate or read the module-global PRNG.
_GLOBAL_RANDOM_FNS = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "seed", "getrandbits", "gauss", "normalvariate",
    "betavariate", "expovariate", "triangular", "vonmisesvariate",
    "paretovariate", "weibullvariate", "lognormvariate", "binomialvariate",
})

#: numpy.random attributes that do NOT touch global state when called.
_NUMPY_SAFE = frozenset({"default_rng", "Generator", "SeedSequence",
                         "BitGenerator", "PCG64", "Philox", "MT19937"})

#: Class-like constructors that are fine *when seeded* (given arguments).
_SEEDABLE_CLASSES = frozenset({"Random", "SystemRandom", "RandomState"})


@register
class UnseededRandomness(Rule):
    """RNG001: all randomness must flow through an explicitly seeded RNG.

    Deterministic reproduction is a theorem-level requirement here —
    equilibrium constructions and Monte-Carlo estimates must replay
    bit-identically under an injected seed.  Flags:

    * calls through the ``random`` module's global PRNG
      (``random.random()``, ``random.shuffle()``, bare ``randint`` after
      ``from random import randint``, ...);
    * ``numpy.random.*`` global-state calls (``np.random.rand()``,
      ``np.random.seed()``, ...) — use ``np.random.default_rng(seed)``;
    * unseeded constructors (``random.Random()`` with no arguments),
      unless the enclosing function takes an explicit ``seed`` parameter
      and lives in a sanctioned simulation entry-point module.
    """

    id = "RNG001"
    name = "unseeded-randomness"
    description = ("randomness must come from an explicitly seeded "
                   "random.Random / numpy Generator")
    severity = Severity.ERROR
    node_types = (ast.Call, ast.ImportFrom)

    def __init__(self) -> None:
        self._from_imports: Set[str] = set()

    def start_file(self, ctx: FileContext) -> None:
        self._from_imports = set()

    def _entry_point_exempt(self, node: ast.AST, ctx: FileContext) -> bool:
        """Unseeded RNG tolerated in seed-taking simulation entry points."""
        config = getattr(ctx, "lint_config", None)
        prefixes = getattr(config, "rng_seeded_entry_prefixes",
                           ("repro.simulation.",)) if config else \
            ("repro.simulation.",)
        if not any(ctx.module.startswith(p) or ctx.module == p.rstrip(".")
                   for p in prefixes):
            return False
        fn = ctx.enclosing_function(node)
        if fn is None:
            return False
        names = [a.arg for a in fn.args.args + fn.args.kwonlyargs]
        return "seed" in names

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        if isinstance(node, ast.ImportFrom):
            if node.module == "random" and node.level == 0:
                for alias in node.names:
                    self._from_imports.add(alias.asname or alias.name)
            return
        if not isinstance(node, ast.Call):
            return
        func = node.func

        # random.<fn>(...) through the module object.
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "random"):
            if func.attr in _GLOBAL_RANDOM_FNS:
                yield ctx.finding(
                    self, node,
                    f"call to global-state `random.{func.attr}()`; "
                    "construct `random.Random(seed)` and use its methods",
                )
            elif func.attr in _SEEDABLE_CLASSES and not node.args:
                if not self._entry_point_exempt(node, ctx):
                    yield ctx.finding(
                        self, node,
                        f"`random.{func.attr}()` without a seed; pass an "
                        "explicit seed so runs are reproducible",
                    )
            return

        # np.random.<fn>(...) / numpy.random.<fn>(...).
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Attribute)
                and func.value.attr == "random"
                and isinstance(func.value.value, ast.Name)
                and func.value.value.id in ("np", "numpy")):
            if func.attr in _NUMPY_SAFE:
                if func.attr == "default_rng" and not node.args \
                        and not self._entry_point_exempt(node, ctx):
                    yield ctx.finding(
                        self, node,
                        "`default_rng()` without a seed; pass an explicit "
                        "seed so runs are reproducible",
                    )
                return
            if func.attr in _SEEDABLE_CLASSES:
                if not node.args and not self._entry_point_exempt(node, ctx):
                    yield ctx.finding(
                        self, node,
                        f"`numpy.random.{func.attr}()` without a seed",
                    )
                return
            yield ctx.finding(
                self, node,
                f"call to numpy global-state `numpy.random.{func.attr}()`; "
                "use `numpy.random.default_rng(seed)`",
            )
            return

        # Bare names bound by `from random import ...`.
        if isinstance(func, ast.Name) and func.id in self._from_imports:
            if func.id in _GLOBAL_RANDOM_FNS:
                yield ctx.finding(
                    self, node,
                    f"call to global-state `{func.id}()` imported from "
                    "`random`; construct `random.Random(seed)` instead",
                )
            elif func.id in _SEEDABLE_CLASSES and not node.args \
                    and not self._entry_point_exempt(node, ctx):
                yield ctx.finding(
                    self, node, f"`{func.id}()` without a seed",
                )


# --------------------------------------------------------------------------
# FLT001 — no bare float equality


def _is_float_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    if (isinstance(node, ast.UnaryOp)
            and isinstance(node.op, (ast.USub, ast.UAdd))):
        return _is_float_literal(node.operand)
    return False


@register
class FloatEquality(Rule):
    """FLT001: probabilities and payoffs never compare with ``==``/``!=``.

    Equilibrium conditions are equalities between floating-point
    quantities (hit probabilities, tuple masses, payoffs); exact
    comparison silently turns rounding noise into wrong verdicts.  Any
    ``==``/``!=`` with a float literal operand is flagged — use
    ``math.isclose``, an absolute tolerance such as
    ``repro.core.PROB_TOL``, or integer arithmetic.
    """

    id = "FLT001"
    name = "float-equality"
    description = "no bare == / != against float literals; use a tolerance"
    severity = Severity.WARNING
    node_types = (ast.Compare,)

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        if not isinstance(node, ast.Compare):
            return
        operands = [node.left] + list(node.comparators)
        for i, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            left, right = operands[i], operands[i + 1]
            if _is_float_literal(left) or _is_float_literal(right):
                symbol = "==" if isinstance(op, ast.Eq) else "!="
                yield ctx.finding(
                    self, node,
                    f"bare float `{symbol}` comparison; use math.isclose "
                    "or an explicit tolerance (e.g. repro.core.PROB_TOL)",
                )


# --------------------------------------------------------------------------
# OBS001 — solver/engine entry points must be instrumented


#: names whose presence (as a bare name or attribute) counts as
#: instrumentation: a tracing span, a metrics timer, or the decorator.
_OBS_MARKERS = frozenset({"span", "timer", "traced"})

#: public functions this small are helpers, not entry points.
_TRIVIAL_BODY_STATEMENTS = 3


@register
class UninstrumentedEntryPoint(Rule):
    """OBS001: public solver/engine entry points carry a span or timer.

    ``repro stats`` and the benchmark telemetry only see what is
    instrumented; a public solver without a span is invisible to the
    perf trajectory.  Within the configured modules, every function
    exported via ``__all__`` (beyond trivial helpers) must reference a
    ``span``/``timer`` from :mod:`repro.obs` or wear ``@traced``.
    """

    id = "OBS001"
    name = "uninstrumented-entry-point"
    description = ("public solver/engine functions must use a repro.obs "
                   "span, timer or @traced")
    severity = Severity.WARNING
    node_types = (ast.FunctionDef,)

    def _applies(self, ctx: FileContext) -> bool:
        config = getattr(ctx, "lint_config", None)
        prefixes = getattr(config, "obs_required", ()) if config else ()
        return any(
            ctx.module.startswith(p) if p.endswith(".") else ctx.module == p
            for p in prefixes
        )

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        if not isinstance(node, ast.FunctionDef):
            return
        if not self._applies(ctx):
            return
        if node.name not in ctx.exports:
            return
        if not isinstance(ctx.parent(node), ast.Module):
            return
        body = node.body
        if body and isinstance(body[0], ast.Expr) \
                and isinstance(body[0].value, ast.Constant) \
                and isinstance(body[0].value.value, str):
            body = body[1:]
        if len(body) < _TRIVIAL_BODY_STATEMENTS:
            return
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id in _OBS_MARKERS:
                return
            if isinstance(sub, ast.Attribute) and sub.attr in _OBS_MARKERS:
                return
        yield ctx.finding(
            self, node,
            f"public entry point `{node.name}` has no repro.obs "
            "instrumentation; wrap it in tracing.span(...) / "
            "metrics.timer(...) or decorate with @traced",
        )


# --------------------------------------------------------------------------
# ASR001 — invariants never rest on ``assert``


@register
class AssertInvariant(Rule):
    """ASR001: no ``assert`` in the package, since ``python -O`` strips
    it; raise a named error (or return early from an ``isinstance``
    guard) instead."""

    id = "ASR001"
    name = "assert-invariant"
    description = "no assert in the package; raise an explicit error"
    severity = Severity.ERROR
    node_types = (ast.Assert,)

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        if ctx.module == "repro" or ctx.module.startswith("repro."):
            yield ctx.finding(
                self, node,
                "`assert` vanishes under python -O; raise an explicit "
                "error instead",
            )
