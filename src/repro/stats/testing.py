"""Statistical assumption tests recommended by the paper (F5.4).

Section 5 instructs experimenters to test collected samples for
normality [54], independence [45], and stationarity [22] before
applying standard analyses:

* :func:`shapiro_test` — Shapiro-Wilk normality test;
* :func:`mann_whitney_test` — Mann-Whitney U test that two sample sets
  come from the same distribution (used to compare repetition batches);
* :func:`runs_test` — Wald-Wolfowitz runs test of randomness around the
  median (detects serial dependence such as token-bucket carry-over);
* :func:`ljung_box_test` — portmanteau test for autocorrelation;
* :func:`adf_test` — augmented Dickey-Fuller unit-root test for
  stationarity, implemented directly on numpy least squares with
  MacKinnon finite-sample critical values (statsmodels is not a
  dependency of this library).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "TestVerdict",
    "shapiro_test",
    "mann_whitney_test",
    "runs_test",
    "ljung_box_test",
    "adf_test",
    "pettitt_test",
]


@dataclass(frozen=True)
class TestVerdict:
    """Uniform result record for every hypothesis test in this module."""

    name: str
    statistic: float
    p_value: float
    alpha: float
    #: True when the *null hypothesis is rejected* at ``alpha``.
    reject_null: bool
    #: Human-readable statement of the null hypothesis.
    null_hypothesis: str
    details: Mapping[str, float] = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        verdict = "REJECT" if self.reject_null else "keep"
        return (
            f"{self.name}: stat={self.statistic:.4f} p={self.p_value:.4g} "
            f"-> {verdict} H0 ({self.null_hypothesis}) at alpha={self.alpha}"
        )


def _as_array(samples: Sequence[float] | np.ndarray, min_n: int, name: str) -> np.ndarray:
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} expects a 1-D sample, got shape {arr.shape}")
    if arr.size < min_n:
        raise ValueError(f"{name} needs at least {min_n} samples, got {arr.size}")
    return arr


def shapiro_test(
    samples: Sequence[float] | np.ndarray, alpha: float = 0.05
) -> TestVerdict:
    """Shapiro-Wilk test; H0: the sample is normally distributed."""
    arr = _as_array(samples, 3, "shapiro_test")
    from scipy import stats

    stat, p = stats.shapiro(arr)
    return TestVerdict(
        name="shapiro-wilk",
        statistic=float(stat),
        p_value=float(p),
        alpha=alpha,
        reject_null=bool(p < alpha),
        null_hypothesis="sample is normally distributed",
    )


def mann_whitney_test(
    sample_a: Sequence[float] | np.ndarray,
    sample_b: Sequence[float] | np.ndarray,
    alpha: float = 0.05,
) -> TestVerdict:
    """Mann-Whitney U test; H0: the two samples share a distribution.

    The paper uses this (citing Mann & Whitney [45]) to check whether
    one batch of repetitions is stochastically larger than another —
    exactly what happens when a token bucket drains between batches.
    """
    a = _as_array(sample_a, 1, "mann_whitney_test")
    b = _as_array(sample_b, 1, "mann_whitney_test")
    from scipy import stats

    stat, p = stats.mannwhitneyu(a, b, alternative="two-sided")
    return TestVerdict(
        name="mann-whitney-u",
        statistic=float(stat),
        p_value=float(p),
        alpha=alpha,
        reject_null=bool(p < alpha),
        null_hypothesis="both samples come from the same distribution",
    )


def runs_test(
    samples: Sequence[float] | np.ndarray, alpha: float = 0.05
) -> TestVerdict:
    """Wald-Wolfowitz runs test; H0: sequence order is random.

    The sequence is dichotomized around its median; values equal to the
    median are dropped, which is the standard treatment.  Too few
    remaining values (< 2 in either class) raise :class:`ValueError`.
    """
    arr = _as_array(samples, 4, "runs_test")
    median = float(np.median(arr))
    signs = arr[arr != median] > median
    n_pos = int(np.sum(signs))
    n_neg = int(signs.size - n_pos)
    if n_pos < 2 or n_neg < 2:
        raise ValueError("runs test needs at least 2 values on each side of the median")

    runs = 1 + int(np.sum(signs[1:] != signs[:-1]))
    n = n_pos + n_neg
    mean_runs = 2.0 * n_pos * n_neg / n + 1.0
    var_runs = (
        2.0 * n_pos * n_neg * (2.0 * n_pos * n_neg - n) / (n**2 * (n - 1.0))
    )
    z = (runs - mean_runs) / np.sqrt(var_runs)
    from scipy import stats

    p = 2.0 * float(stats.norm.sf(abs(z)))
    return TestVerdict(
        name="wald-wolfowitz-runs",
        statistic=float(z),
        p_value=p,
        alpha=alpha,
        reject_null=bool(p < alpha),
        null_hypothesis="observations are serially independent",
        details={"runs": float(runs), "expected_runs": mean_runs},
    )


def _autocorrelation(arr: np.ndarray, max_lag: int) -> np.ndarray:
    """Sample autocorrelation for lags 1..max_lag."""
    centered = arr - np.mean(arr)
    denom = float(np.dot(centered, centered))
    if denom == 0.0:
        raise ValueError("autocorrelation undefined for a constant series")
    acf = np.empty(max_lag)
    for lag in range(1, max_lag + 1):
        acf[lag - 1] = float(np.dot(centered[:-lag], centered[lag:])) / denom
    return acf


def ljung_box_test(
    samples: Sequence[float] | np.ndarray,
    lags: int = 10,
    alpha: float = 0.05,
) -> TestVerdict:
    """Ljung-Box portmanteau test; H0: no autocorrelation up to ``lags``."""
    arr = _as_array(samples, max(8, lags + 2), "ljung_box_test")
    n = arr.size
    lags = min(lags, n - 2)
    acf = _autocorrelation(arr, lags)
    k = np.arange(1, lags + 1)
    q = n * (n + 2.0) * float(np.sum(acf**2 / (n - k)))
    from scipy import stats

    p = float(stats.chi2.sf(q, df=lags))
    return TestVerdict(
        name="ljung-box",
        statistic=q,
        p_value=p,
        alpha=alpha,
        reject_null=bool(p < alpha),
        null_hypothesis=f"no autocorrelation up to lag {lags}",
        details={"lags": float(lags)},
    )


def pettitt_test(
    samples: Sequence[float] | np.ndarray, alpha: float = 0.05
) -> TestVerdict:
    """Pettitt's changepoint test; H0: no shift in the sequence.

    A rank-based (Mann-Whitney-flavoured) scan over *every* split
    point: ``U_t = sum_{i<=t} sum_{j>t} sign(x_j - x_i)``, with the
    statistic ``K = max |U_t|`` and the standard approximation
    ``p ~= 2 exp(-6 K^2 / (n^3 + n^2))``.  This catches the abrupt
    level shift a depleting token bucket produces even when it happens
    early in a measurement campaign — exactly where a fixed
    half-vs-half comparison loses power.

    The detected changepoint index (0-based, last sample of the first
    regime) is reported in ``details``.
    """
    arr = _as_array(samples, 8, "pettitt_test")
    n = arr.size
    from scipy import stats

    # U_t via ranks: U_t = 2 * sum_{i<=t} r_i - t * (n + 1), where r_i
    # are the ranks of the full sample (mid-ranks for ties).
    ranks = stats.rankdata(arr)
    cumulative = np.cumsum(ranks)
    t = np.arange(1, n)  # split after index t-1
    u = 2.0 * cumulative[:-1] - t * (n + 1.0)
    k_index = int(np.argmax(np.abs(u)))
    k = float(np.abs(u[k_index]))
    p = min(1.0, 2.0 * float(np.exp(-6.0 * k**2 / (n**3 + n**2))))
    return TestVerdict(
        name="pettitt-changepoint",
        statistic=k,
        p_value=p,
        alpha=alpha,
        reject_null=bool(p < alpha),
        null_hypothesis="the sequence has no change point",
        details={"changepoint_index": float(k_index)},
    )


#: MacKinnon (2010) response-surface coefficients for the constant-only
#: ("c") ADF regression: crit(T) = b0 + b1/T + b2/T^2.
_MACKINNON_C = {
    0.01: (-3.43035, -6.5393, -16.786),
    0.05: (-2.86154, -2.8903, -4.234),
    0.10: (-2.56677, -1.5384, -2.809),
}


def _mackinnon_critical(level: float, nobs: int) -> float:
    b0, b1, b2 = _MACKINNON_C[level]
    return b0 + b1 / nobs + b2 / nobs**2


def _adf_fit(arr: np.ndarray, lag: int) -> tuple[float, float, int]:
    """Fit the ADF regression at one lag order.

    Returns ``(t_statistic_of_gamma, aic, nobs)``.
    """
    dy = np.diff(arr)
    y_lag = arr[:-1]
    nobs = dy.size - lag
    if nobs < lag + 4:
        raise ValueError("series too short for the chosen lag order")
    rows = []
    for i in range(lag, dy.size):
        row = [y_lag[i], 1.0]
        row.extend(dy[i - j] for j in range(1, lag + 1))
        rows.append(row)
    x = np.asarray(rows)
    target = dy[lag:]

    coef, _, _, _ = np.linalg.lstsq(x, target, rcond=None)
    residuals = target - x @ coef
    k = x.shape[1]
    dof = max(nobs - k, 1)
    sigma2 = float(residuals @ residuals) / dof
    xtx_inv = np.linalg.pinv(x.T @ x)
    se_gamma = float(np.sqrt(sigma2 * xtx_inv[0, 0]))
    if se_gamma == 0.0:
        raise ValueError("degenerate regression: zero standard error")
    t_stat = float(coef[0] / se_gamma)
    ssr = float(residuals @ residuals)
    aic = nobs * np.log(max(ssr / nobs, 1e-300)) + 2.0 * k
    return t_stat, aic, nobs


def adf_test(
    samples: Sequence[float] | np.ndarray,
    max_lag: int | None = None,
    alpha: float = 0.05,
) -> TestVerdict:
    """Augmented Dickey-Fuller unit-root test; H0: series has a unit root.

    Rejecting the null supports stationarity.  Uses the constant-only
    regression ``dy_t = a + g*y_{t-1} + sum b_i dy_{t-i} + e``; the lag
    order is chosen by AIC over ``0..max_lag`` (Schwert's rule bounds
    the search, as in standard implementations).  The p-value is
    interpolated between MacKinnon critical values, which is accurate
    enough for the accept/reject decisions the methodology requires.
    """
    arr = _as_array(samples, 12, "adf_test")
    n = arr.size
    if max_lag is None:
        # Schwert's bound, further capped for short series: AIC happily
        # overfits high lag orders on n < 40, destroying test power.
        schwert = int(np.floor(12.0 * (n / 100.0) ** 0.25))
        max_lag = min(schwert, max((n - 16) // 3, 0))
    max_lag = max(0, min(max_lag, n // 2 - 4))

    best: tuple[float, float, int] | None = None
    best_lag = 0
    for lag in range(0, max_lag + 1):
        try:
            fit = _adf_fit(arr, lag)
        except ValueError:
            break
        if best is None or fit[1] < best[1]:
            best = fit
            best_lag = lag
    if best is None:
        raise ValueError("series too short for any ADF regression")
    t_stat, _, nobs = best
    max_lag = best_lag

    crits = {lvl: _mackinnon_critical(lvl, nobs) for lvl in _MACKINNON_C}
    # Piecewise-linear p-value interpolation across the three levels.
    levels = sorted(crits)  # [0.01, 0.05, 0.10]
    values = [crits[lvl] for lvl in levels]
    if t_stat <= values[0]:
        p = 0.005
    elif t_stat >= values[-1]:
        # Flat extrapolation above the 10% critical value: the test
        # cannot resolve p there, so report a conservative 0.5+.
        p = min(0.99, 0.10 + 0.4 * (t_stat - values[-1]))
    else:
        p = float(np.interp(t_stat, values, levels))

    reject = t_stat < crits[alpha] if alpha in crits else p < alpha
    return TestVerdict(
        name="augmented-dickey-fuller",
        statistic=t_stat,
        p_value=p,
        alpha=alpha,
        reject_null=bool(reject),
        null_hypothesis="series has a unit root (is non-stationary)",
        details={
            "lag_order": float(max_lag),
            "nobs": float(nobs),
            "crit_1pct": crits[0.01],
            "crit_5pct": crits[0.05],
            "crit_10pct": crits[0.10],
        },
    )
