"""Sample statistics for Monte-Carlo experiments.

Per-run summaries plus interval helpers — enough to attach honest error
bars to the simulated profits that validate equations (1)–(2).
"""

from __future__ import annotations

import math
from typing import Tuple

__all__ = ["SampleSummary", "wilson_interval"]

_Z95 = 1.959963984540054
"""Two-sided 95% normal quantile."""


class SampleSummary:
    """Mean and unbiased (ddof=1) variance of one non-empty sample.

    A single value has no spread: its variance reads 0 and
    :meth:`confidence_interval` degenerates to the zero-width
    ``(mean, mean)``, which is no usable error bar.
    """

    __slots__ = ("count", "mean", "variance")

    def __init__(self, count: int, mean: float, variance: float) -> None:
        self.count = count
        self.mean = mean
        self.variance = variance

    @classmethod
    def of(cls, values) -> "SampleSummary":
        """Summarise a non-empty numpy array."""
        count = len(values)
        return cls(count, float(values.mean()),
                   float(values.var(ddof=1)) if count > 1 else 0.0)

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    @property
    def stderr(self) -> float:
        """Standard error of the mean."""
        return self.stddev / math.sqrt(self.count)

    def confidence_interval(self, z: float = _Z95) -> Tuple[float, float]:
        """Normal-approximation CI for the mean (95% by default)."""
        half = z * self.stderr
        return self.mean - half, self.mean + half

    def __repr__(self) -> str:
        return f"SampleSummary(n={self.count}, mean={self.mean:.6f})"


def wilson_interval(successes: int, trials: int, z: float = _Z95) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Better behaved than the normal approximation near 0 and 1, which is
    where attacker catch rates live at strong equilibria.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    p_hat = successes / trials
    denom = 1.0 + z * z / trials
    center = (p_hat + z * z / (2 * trials)) / denom
    half = (
        z
        * math.sqrt(p_hat * (1 - p_hat) / trials + z * z / (4 * trials * trials))
        / denom
    )
    return max(0.0, center - half), min(1.0, center + half)
