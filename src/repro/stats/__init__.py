"""Statistics toolbox for variability-aware performance analysis.

This package implements the statistical machinery the paper leans on:

* :mod:`repro.stats.quantiles` — nonparametric confidence intervals for
  medians and arbitrary quantiles (Le Boudec's order-statistics method),
  used in Figures 3, 13, and 19;
* :mod:`repro.stats.confirm` — the CONFIRM analysis of Maricq et al.,
  predicting how many repetitions an experiment needs (Figure 13);
* :mod:`repro.stats.testing` — the assumption tests recommended in F5.4:
  normality (Shapiro-Wilk), independence (Mann-Whitney, runs test,
  Ljung-Box), and stationarity (augmented Dickey-Fuller);
* :mod:`repro.stats.kappa` — Cohen's Kappa inter-reviewer agreement used
  by the literature survey (Section 2);
* :mod:`repro.stats.cov` — dispersion summaries (coefficient of
  variation, IQR) as plotted in Figure 6;
* :mod:`repro.stats.bootstrap` — bootstrap confidence intervals used as
  a cross-check on the order-statistics method.

``scipy.stats`` is slow to import, so the modules here import it inside
the functions that call it: it loads on the first call that needs it.
Keep it that way.  Campaign workers and the CLI import this package,
and no simulation process may load any scipy module
(the AR(1) shaper's normal CDF is the pure-Python port in
:mod:`repro.netmodel._ndtr`); ``tests/test_import_graph.py`` guards
both.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.stats.anova": ("compare_groups", "kruskal_wallis", "one_way_anova"),
    "repro.stats.bootstrap": ("bootstrap_ci",),
    "repro.stats.confirm": (
        "ConfirmCurve",
        "confirm_curve",
        "min_samples_for_ci",
        "repetitions_needed",
    ),
    "repro.stats.cov": ("coefficient_of_variation", "dispersion_summary"),
    "repro.stats.kappa": ("cohens_kappa",),
    "repro.stats.quantiles": (
        "QuantileCI",
        "median_ci",
        "quantile_ci",
        "quantile_ci_indices",
    ),
    "repro.stats.timeseries": (
        "DiurnalProfile",
        "autocorrelation",
        "diurnal_profile",
        "interval_medians",
        "stationary_windows",
    ),
    "repro.stats.testing": (
        "TestVerdict",
        "adf_test",
        "ljung_box_test",
        "mann_whitney_test",
        "pettitt_test",
        "runs_test",
        "shapiro_test",
    ),
}
__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)

__all__ = [
    "QuantileCI",
    "quantile_ci",
    "quantile_ci_indices",
    "median_ci",
    "ConfirmCurve",
    "confirm_curve",
    "repetitions_needed",
    "min_samples_for_ci",
    "coefficient_of_variation",
    "dispersion_summary",
    "cohens_kappa",
    "TestVerdict",
    "shapiro_test",
    "mann_whitney_test",
    "runs_test",
    "ljung_box_test",
    "adf_test",
    "pettitt_test",
    "bootstrap_ci",
    "one_way_anova",
    "kruskal_wallis",
    "compare_groups",
    "autocorrelation",
    "stationary_windows",
    "interval_medians",
    "diurnal_profile",
    "DiurnalProfile",
]
