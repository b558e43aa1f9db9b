"""Quantile-parameterized distributions.

The paper's Figure 2 reproduces the bandwidth distributions Ballani et
al. measured on eight real-world clouds, but only as box plots (1st,
25th, 50th, 75th, 99th percentiles).  Section 2.1's emulation therefore
samples bandwidth "uniformly from these distributions": the quantile
function is reconstructed by linear interpolation between the known
percentiles and sampled with uniform probabilities — exactly what
:class:`QuantileDistribution` implements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.trace import BoxSummary

__all__ = ["QuantileDistribution"]


@dataclass(frozen=True)
class QuantileDistribution:
    """A distribution known only through a set of quantile points.

    ``probs`` are cumulative probabilities in (0, 1), strictly
    increasing; ``values`` the corresponding quantile values,
    non-decreasing.  Sampling inverts the piecewise-linear CDF.  The
    distribution is truncated at the outermost known quantiles, which
    matches how the paper treats the Ballani data (no information
    outside the 1st-99th percentile whiskers).
    """

    probs: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.probs) != len(self.values):
            raise ValueError("probs and values must have equal length")
        if len(self.probs) < 2:
            raise ValueError("need at least two quantile points")
        if any(not 0.0 < p < 1.0 for p in self.probs):
            raise ValueError("probabilities must be in (0, 1)")
        if any(b <= a for a, b in zip(self.probs, self.probs[1:])):
            raise ValueError("probabilities must be strictly increasing")
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError(f"values must be finite, got {self.values}")
        if any(b < a for a, b in zip(self.values, self.values[1:])):
            raise ValueError("values must be non-decreasing")

    @classmethod
    def from_box(cls, box: BoxSummary) -> "QuantileDistribution":
        """Build from the paper's five-point box summary."""
        return cls(
            probs=(0.01, 0.25, 0.50, 0.75, 0.99),
            values=(box.p01, box.p25, box.p50, box.p75, box.p99),
        )

    @classmethod
    def from_mapping(cls, quantiles: Mapping[float, float]) -> "QuantileDistribution":
        """Build from a ``{probability: value}`` mapping."""
        probs = tuple(sorted(quantiles))
        values = tuple(quantiles[p] for p in probs)
        return cls(probs=probs, values=values)

    def quantile(self, p: float | Sequence[float] | np.ndarray):
        """Inverse CDF at probability ``p`` (clipped to the known range)."""
        p_arr = np.clip(np.asarray(p, dtype=float), self.probs[0], self.probs[-1])
        result = np.interp(p_arr, self.probs, self.values)
        if np.isscalar(p):
            return float(result)
        return result

    @property
    def median(self) -> float:
        """The 50th percentile."""
        return self.quantile(0.5)

    def box_summary(self) -> BoxSummary:
        """Project back to the paper's box summary.

        ``p999`` clips to this distribution's anchored probability
        range: the Ballani quantile tables end at p99, so beyond it
        the tail estimate saturates at the p99 value.
        """
        p01, p25, p50, p75, p99, p999 = (
            self.quantile(q) for q in (0.01, 0.25, 0.50, 0.75, 0.99, 0.999)
        )
        return BoxSummary(
            p01=p01, p25=p25, p50=p50, p75=p75, p99=p99, p999=p999
        )

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw samples by uniform inversion of the piecewise-linear CDF."""
        u = rng.uniform(self.probs[0], self.probs[-1], size=size)
        result = np.interp(u, self.probs, self.values)
        if size is None:
            return float(result)
        return result

    def mean_estimate(self, grid: int = 1_001) -> float:
        """Mean of the reconstructed distribution (trapezoidal estimate)."""
        probs = np.linspace(self.probs[0], self.probs[-1], grid)
        return float(np.mean(np.interp(probs, self.probs, self.values)))

    def scale(self, factor: float) -> "QuantileDistribution":
        """A copy with every quantile multiplied by ``factor``."""
        if not factor > 0:
            raise ValueError(f"scale factor must be positive, got {factor}")
        return QuantileDistribution(
            probs=self.probs, values=tuple(v * factor for v in self.values)
        )
