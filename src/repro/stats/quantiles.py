"""Nonparametric confidence intervals for quantiles.

The paper computes 95 % nonparametric (asymmetric) confidence intervals
for medians and for the 90th percentile using the order-statistics
method described by Le Boudec ("Performance Evaluation of Computer and
Communication Systems", 2011).  The method makes no distributional
assumption beyond iid sampling: for a sample of size ``n`` and target
quantile ``p``, the number of observations below the true quantile is
Binomial(n, p), so a pair of order statistics ``(x_(j), x_(k))`` covers
the quantile with probability ``P(j <= B < k)``.

Figure 3's footnote notes that three repetitions are too few to compute
a CI at all — :func:`quantile_ci_indices` therefore returns ``None``
when no valid pair of order statistics exists, and callers must handle
that case explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = ["QuantileCI", "quantile_ci_indices", "quantile_ci", "median_ci"]


@dataclass(frozen=True)
class QuantileCI:
    """A point estimate and confidence interval for one quantile."""

    quantile: float
    confidence: float
    estimate: float
    low: float
    high: float
    n: int
    #: Achieved (exact binomial) coverage probability; always >= confidence.
    coverage: float

    @property
    def width(self) -> float:
        """Absolute CI width."""
        return self.high - self.low

    @property
    def relative_width(self) -> float:
        """CI width relative to the point estimate (for error bounds)."""
        if self.estimate == 0:
            return float("inf")
        return self.width / abs(self.estimate)

    def within_error_bound(self, error: float) -> bool:
        """True when the CI lies within ``estimate * (1 +/- error)``.

        This is the acceptance criterion used by CONFIRM and by the
        paper's Figures 13 and 19 (1 % and 10 % error bounds).
        """
        lo_bound = self.estimate * (1.0 - error)
        hi_bound = self.estimate * (1.0 + error)
        return self.low >= lo_bound and self.high <= hi_bound

    def contains(self, value: float) -> bool:
        """True when ``value`` falls inside the interval."""
        return self.low <= value <= self.high


def quantile_ci_indices(
    n: int, quantile: float = 0.5, confidence: float = 0.95
) -> Optional[tuple[int, int, float]]:
    """Order-statistic indices for a nonparametric quantile CI.

    Returns ``(j, k, coverage)`` with **1-based** order-statistic indices
    such that ``P(x_(j) <= q_p <= x_(k)) = coverage >= confidence``, or
    ``None`` when ``n`` is too small for any pair to reach the requested
    confidence.

    The indices are the standard equal-tail choice: ``j`` is the largest
    index with ``P(B < j) <= alpha/2`` and ``k`` the smallest index with
    ``P(B >= k) <= alpha/2`` for ``B ~ Binomial(n, p)``.
    """
    if not 0.0 < quantile < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {quantile}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if n < 2:
        return None

    alpha = 1.0 - confidence
    from scipy import stats

    dist = stats.binom(n, quantile)

    # Largest j in [1, n] with P(B <= j - 1) <= alpha / 2.
    j = int(dist.ppf(alpha / 2.0))
    while j >= 1 and dist.cdf(j - 1) > alpha / 2.0:
        j -= 1
    j = max(j, 0)

    # Smallest k in [1, n] with P(B >= k) <= alpha / 2, i.e.
    # 1 - P(B <= k - 1) <= alpha / 2.
    k = int(dist.ppf(1.0 - alpha / 2.0)) + 1
    while k <= n and (1.0 - dist.cdf(k - 1)) > alpha / 2.0:
        k += 1

    if j < 1 or k > n or j >= k:
        return None

    coverage = float(dist.cdf(k - 1) - dist.cdf(j - 1))
    if coverage < confidence - 1e-12:
        return None
    return j, k, coverage


def quantile_ci(
    samples: Sequence[float] | np.ndarray,
    quantile: float = 0.5,
    confidence: float = 0.95,
) -> Optional[QuantileCI]:
    """Point estimate and nonparametric CI for ``quantile``.

    The point estimate uses :func:`numpy.percentile` (linear
    interpolation); the CI bounds are order statistics per
    :func:`quantile_ci_indices`.  Returns ``None`` when the sample is too
    small to support the requested confidence (for example fewer than 6
    samples for a 95 % median CI).
    """
    arr = np.sort(np.asarray(samples, dtype=float))
    n = arr.size
    indices = quantile_ci_indices(n, quantile, confidence)
    estimate = float(np.percentile(arr, quantile * 100.0))
    if indices is None:
        return None
    j, k, coverage = indices
    return QuantileCI(
        quantile=quantile,
        confidence=confidence,
        estimate=estimate,
        low=float(arr[j - 1]),
        high=float(arr[k - 1]),
        n=n,
        coverage=coverage,
    )


def median_ci(
    samples: Sequence[float] | np.ndarray, confidence: float = 0.95
) -> Optional[QuantileCI]:
    """Convenience wrapper: nonparametric CI for the median."""
    return quantile_ci(samples, quantile=0.5, confidence=confidence)
