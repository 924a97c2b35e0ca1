"""Monte-Carlo playout engine for mixed configurations.

Equations (1)–(2) of the paper are *expectations* over the joint play of
``ν + 1`` independent mixed strategies.  This engine actually plays the
game: it draws every trial's defender tuple and attacker vertices at
once with numpy, reads the catches off the kernel's 0/1 coverage matrix,
and summarises the pure profits of Definition 2.1 per trial.  Experiment
E7 uses it to confirm the analytic profit formulas (and hence every
closed form derived from them) to within sampling error.

The draws are fixed per seed, from one ``numpy.random.default_rng(seed)``:
first the defender's tuples, over its support sorted by
``tuple_sort_key``; then each attacker in player order, over its support
sorted by ``repr``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.configuration import MixedConfiguration
from repro.core.game import GameError, TupleGame
from repro.core.tuples import EdgeTuple
from repro.graphs.core import Vertex, tuple_sort_key
from repro.kernels.coverage import shared_oracle
from repro.obs import get_logger, metrics, tracing
from repro.simulation.estimators import SampleSummary, wilson_interval

_log = get_logger("repro.simulation.engine")

__all__ = ["SimulationReport", "draw_tuples", "draw_vertices", "simulate"]


def draw_tuples(
    config: MixedConfiguration, rng: np.random.Generator, size
) -> Tuple[List[EdgeTuple], np.ndarray]:
    """Draw defender tuples from ``config``'s tuple distribution.

    Returns ``(tuples, draws)``: the support sorted by ``tuple_sort_key``,
    and an index array of shape ``size`` into it.
    """
    tuples = sorted(config.tp_support(), key=tuple_sort_key)
    return tuples, _choice(rng, [config.prob_tp(t) for t in tuples], size)


def draw_vertices(
    config: MixedConfiguration, i: int, rng: np.random.Generator, size
) -> Tuple[List[Vertex], np.ndarray]:
    """Draw vertices from vertex player ``i``'s distribution in ``config``.

    Returns ``(support, draws)``: the support sorted by ``repr``, and an
    index array of shape ``size`` into it.
    """
    support = sorted(config.vp_distribution(i), key=repr)
    return support, _choice(rng, [config.prob_vp(i, v) for v in support], size)


def _choice(rng: np.random.Generator, weights: Sequence[float], size) -> np.ndarray:
    probs = np.array(weights)
    return rng.choice(len(probs), size=size, p=probs / probs.sum())


class SimulationReport:
    """Aggregated outcome of a Monte-Carlo run.

    Attributes
    ----------
    trials:
        Number of complete game playouts.
    defender_profit:
        :class:`SampleSummary` of the defender's per-trial catches.
    attacker_profit:
        One :class:`SampleSummary` per vertex player (1 = escaped).
    catches:
        Per-attacker count of trials in which that attacker was caught.
    hit_counts:
        Per-vertex count of trials in which the defender's tuple covered
        the vertex — the empirical ``P(Hit(v))``.  Vertices never covered
        are absent.
    """

    __slots__ = ("trials", "defender_profit", "attacker_profit", "catches", "hit_counts")

    def __init__(self, caught: np.ndarray, hit_counts: Dict[Vertex, int]) -> None:
        # caught[i, trial] is True iff attacker i was caught in that trial.
        n = self.trials = caught.shape[1]
        self.defender_profit = SampleSummary.of(caught.sum(axis=0).astype(float))
        self.catches = [int(c) for c in np.count_nonzero(caught, axis=1)]
        # An attacker's profit is 1 (escaped) or 0 in each trial, so its
        # e = n - catches escapes give the mean e/n and the ddof=1
        # variance e(n - e)/(n(n - 1)) of its per-trial sample.
        self.attacker_profit = [
            SampleSummary(n, (n - c) / n,
                          (n - c) * c / (n * (n - 1)) if n > 1 else 0.0)
            for c in self.catches
        ]
        self.hit_counts = hit_counts

    def catch_rate(self, i: int) -> float:
        """Empirical probability that attacker ``i`` is caught."""
        return self.catches[i] / self.trials

    def catch_rate_interval(self, i: int) -> Tuple[float, float]:
        """Wilson 95% interval for attacker ``i``'s catch probability."""
        return wilson_interval(self.catches[i], self.trials)

    def empirical_hit_probability(self, v: Vertex) -> float:
        """Fraction of trials in which ``v`` was covered by the defender."""
        return self.hit_counts.get(v, 0) / self.trials

    def __repr__(self) -> str:
        return (
            f"SimulationReport(trials={self.trials}, "
            f"defender_mean={self.defender_profit.mean:.4f})"
        )


def simulate(
    game: TupleGame,
    config: MixedConfiguration,
    trials: int = 10_000,
    seed: int = 0,
) -> SimulationReport:
    """Play ``trials`` independent rounds of ``Π_k(G)`` under ``config``.

    Returns a :class:`SimulationReport` whose means estimate the expected
    profits of equations (1)–(2).
    """
    if config.game != game:
        raise GameError("configuration belongs to a different game")
    if trials < 1:
        raise GameError("at least one trial is required")
    with tracing.span("simulation.run", trials=trials, nu=game.nu), \
            metrics.timer("simulation.run.seconds") as timing:
        rng = np.random.default_rng(seed)
        tuples, tuple_draws = draw_tuples(config, rng, trials)
        # Tuples x vertex slots, memoized by the shared kernel so repeated
        # runs over one configuration skip the rebuild.
        coverage, vertex_slot = shared_oracle(
            game.graph, game.k
        ).coverage_matrix(tuples)
        caught = np.empty((game.nu, trials), dtype=bool)
        for i in range(game.nu):
            support, draws = draw_vertices(config, i, rng, trials)
            slots = np.array([vertex_slot[v] for v in support])
            caught[i] = coverage[tuple_draws, slots[draws]]
        covered = np.bincount(tuple_draws, minlength=len(tuples)) @ coverage
        report = SimulationReport(caught, {
            v: int(covered[slot])
            for v, slot in vertex_slot.items() if covered[slot]
        })
    metrics.counter("simulation.runs.count").inc()
    metrics.counter("simulation.trials.count").inc(trials)
    # One defender draw plus one draw per attacker, every trial.
    metrics.counter("simulation.draws.count").inc(trials * (game.nu + 1))
    if timing.elapsed > 0.0:
        metrics.gauge("simulation.trials_per_sec").set(trials / timing.elapsed)
    _log.info(
        "simulation.finished", trials=trials,
        defender_mean=report.defender_profit.mean, seconds=timing.elapsed,
    )
    return report
