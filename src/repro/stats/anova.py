"""Group-comparison tests: ANOVA and its nonparametric counterpart.

F5.3 names ANOVA among the "standard statistical tools" that produce
robust results under stochastic variability.  :func:`one_way_anova`
wraps the classic F-test; because cloud measurements are frequently
non-normal (Section 5 recommends checking first), the Kruskal-Wallis
rank test is provided as the drop-in nonparametric alternative, and
:func:`compare_groups` picks between them based on a Shapiro-Wilk
pre-test — the decision procedure the paper's guidelines describe.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.stats.testing import TestVerdict, shapiro_test

__all__ = ["one_way_anova", "kruskal_wallis", "compare_groups"]


def _validate_groups(groups: Sequence[Sequence[float]], min_size: int) -> list[np.ndarray]:
    if len(groups) < 2:
        raise ValueError("need at least two groups to compare")
    arrays = [np.asarray(g, dtype=float) for g in groups]
    for i, arr in enumerate(arrays):
        if arr.ndim != 1:
            raise ValueError(f"group {i} must be 1-D")
        if arr.size < min_size:
            raise ValueError(f"group {i} needs at least {min_size} samples")
    return arrays


def one_way_anova(
    groups: Sequence[Sequence[float]], alpha: float = 0.05
) -> TestVerdict:
    """One-way ANOVA; H0: all group means are equal.

    Assumes approximate normality and equal variances — check with
    :func:`repro.stats.testing.shapiro_test` first, or use
    :func:`compare_groups` which does it for you.
    """
    arrays = _validate_groups(groups, min_size=2)
    from scipy import stats

    stat, p = stats.f_oneway(*arrays)
    return TestVerdict(
        name="one-way-anova",
        statistic=float(stat),
        p_value=float(p),
        alpha=alpha,
        reject_null=bool(p < alpha),
        null_hypothesis="all group means are equal",
        details={"groups": float(len(arrays))},
    )


def kruskal_wallis(
    groups: Sequence[Sequence[float]], alpha: float = 0.05
) -> TestVerdict:
    """Kruskal-Wallis H test; H0: all groups share a distribution.

    The rank-based alternative to ANOVA — appropriate for the skewed,
    long-tailed samples cloud networks produce.
    """
    arrays = _validate_groups(groups, min_size=2)
    from scipy import stats

    stat, p = stats.kruskal(*arrays)
    return TestVerdict(
        name="kruskal-wallis",
        statistic=float(stat),
        p_value=float(p),
        alpha=alpha,
        reject_null=bool(p < alpha),
        null_hypothesis="all groups come from the same distribution",
        details={"groups": float(len(arrays))},
    )


def compare_groups(
    groups: Sequence[Sequence[float]], alpha: float = 0.05
) -> TestVerdict:
    """Compare groups with the appropriate test (F5.4's decision rule).

    Shapiro-Wilk pre-tests each group (Bonferroni-adjusted so the
    family-wise false-positive rate stays at ``alpha``); if any group
    rejects normality, the nonparametric Kruskal-Wallis test is used,
    otherwise ANOVA.  The chosen test's name is visible in the
    returned verdict.
    """
    arrays = _validate_groups(groups, min_size=3)
    pretest_alpha = alpha / len(arrays)
    normal = True
    for arr in arrays:
        if arr.size >= 3 and np.std(arr) > 0:
            if shapiro_test(arr, alpha=pretest_alpha).reject_null:
                normal = False
                break
    if normal:
        return one_way_anova(arrays, alpha=alpha)
    return kruskal_wallis(arrays, alpha=alpha)
