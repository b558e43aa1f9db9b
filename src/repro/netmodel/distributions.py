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
from bisect import bisect_right
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
        # Plain-float knots and numpy.interp's per-segment slopes, for
        # the scalar inverse CDF (not dataclass fields: equality,
        # hashing and repr see probs and values only).
        xp = [float(p) for p in self.probs]
        fp = [float(v) for v in self.values]
        slopes = [
            (fp[j + 1] - fp[j]) / (xp[j + 1] - xp[j]) for j in range(len(xp) - 1)
        ]
        object.__setattr__(self, "_knots", (xp, fp, slopes))

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
        if np.isscalar(p):
            p = float(p)
            xp = self._knots[0]
            lo = xp[0]
            hi = xp[-1]
            # np.clip's result: NaN passes through, as in _inverse_cdf.
            return self._inverse_cdf(lo if p < lo else hi if p > hi else p)
        p_arr = np.clip(np.asarray(p, dtype=float), self.probs[0], self.probs[-1])
        return np.interp(p_arr, self.probs, self.values)

    def _inverse_cdf(self, u: float) -> float:
        """``float(np.interp(u, probs, values))`` for one float, in Python.

        The same steps as numpy's C loop: the knot ``j`` with
        ``probs[j] <= u < probs[j + 1]`` by bisection; the end values
        outside the knots and at the last one; the knot's own value on
        an exact hit; else ``slope * (u - probs[j]) + values[j]``, which
        numpy retries from the right knot if it is NaN.  The result is
        bit-identical, and a one-element ``np.interp`` call costs several
        times more.
        """
        xp, fp, slopes = self._knots
        if u != u:
            return u
        j = bisect_right(xp, u) - 1
        if j < 0:
            return fp[0]
        if j >= len(slopes) or xp[j] == u:
            return fp[j]
        slope = slopes[j]
        value = slope * (u - xp[j]) + fp[j]
        if value != value:
            value = slope * (u - xp[j + 1]) + fp[j + 1]
            if value != value and fp[j] == fp[j + 1]:
                value = fp[j]
        return value

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
        if size is None:
            return self._inverse_cdf(u)
        return np.interp(u, self.probs, self.values)

    def sample_last(self, rng: np.random.Generator, size: int) -> float:
        """The last of ``sample(rng, size=size)``, transforming only it.

        The RNG consumes the same ``size`` uniforms, so its stream ends
        where the full draw leaves it.  Resampling shapers use this when
        one step crosses several resample boundaries.
        """
        u = rng.uniform(self.probs[0], self.probs[-1], size=size)
        return self._inverse_cdf(float(u[-1]))

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
