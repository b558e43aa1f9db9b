"""Tests for the stochastic (HPCCloud) and per-core-QoS (GCE) models."""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.special import ndtr
from scipy.stats import norm

from repro.netmodel import (
    Ar1QuantileModel,
    PerCoreQosModel,
    QuantileDistribution,
    UniformQuantileSamplingModel,
)

DIST = QuantileDistribution(
    probs=(0.01, 0.25, 0.50, 0.75, 0.99),
    values=(7.7, 8.9, 9.4, 9.8, 10.4),
)


#: ``Ar1QuantileModel(DIST, seed=7)``: the ceiling after construction,
#: then 63 redraws, as computed with ``scipy.stats.norm.cdf`` as the
#: CDF.  ``scipy.special.ndtr`` must reproduce them bit for bit.
AR1_SEED7_CEILINGS = [
    9.535692172915637, 9.363447404440997, 8.904076570930775,
    8.720373463285728, 8.166624818095578, 8.65082702873059,
    9.629930298000676, 9.325397396591397, 9.010994970816983,
    9.395020908556472, 9.558239447526978, 9.558320374052029,
    9.024809481922166, 9.116439179970651, 9.553155951241173,
    8.723297047289163, 8.597075811688091, 7.771016322209368,
    7.7032588053570885, 7.7, 7.716587262532917,
    7.7, 7.967449774764004, 8.497249278475632,
    8.705031526111638, 7.7, 7.754308196285198,
    8.010707727748114, 8.51663534012497, 7.849647490375449,
    7.94264800604971, 7.831288542038225, 7.816363021523037,
    8.99841569833216, 8.51117345185239, 8.883383451240933,
    9.496707988221225, 9.156325044174263, 9.166475429058716,
    9.297353973978588, 9.36430342817746, 8.562084774125177,
    8.9619417058364, 9.742026499628684, 8.844590887461628,
    9.474430325492284, 9.506132719686995, 9.132975975631807,
    10.13232629358636, 10.214435995054595, 9.468533510110234,
    9.48180842817703, 9.707353978619905, 9.53708621305642,
    9.781848739490005, 9.648640124286594, 9.863289854240804,
    10.275614057847939, 9.765061450485845, 9.745143276738348,
    9.443525881418351, 9.488223375267253, 8.781983428418908,
    8.519018285736411,
]


def collect_limits(model, n, dt):
    values = []
    for _ in range(n):
        rate = model.limit()
        values.append(rate)
        model.advance(dt, rate)
    return np.asarray(values)


class TestUniformSampling:
    def test_limits_within_distribution_support(self):
        model = UniformQuantileSamplingModel(DIST, interval_s=5.0, seed=0)
        values = collect_limits(model, 500, 5.0)
        assert values.min() >= 7.7 - 1e-9
        assert values.max() <= 10.4 + 1e-9

    def test_resamples_at_interval(self):
        model = UniformQuantileSamplingModel(DIST, interval_s=5.0, seed=0)
        first = model.limit()
        model.advance(2.0, first)
        assert model.limit() == first  # same interval, same draw
        model.advance(3.0, first)
        # New interval: value redrawn (almost surely different).
        assert model.limit() != first

    def test_horizon_counts_down(self):
        model = UniformQuantileSamplingModel(DIST, interval_s=5.0, seed=0)
        assert model.horizon(1.0) == pytest.approx(5.0)
        model.advance(2.0, 1.0)
        assert model.horizon(1.0) == pytest.approx(3.0)

    def test_reset_reproduces_sequence(self):
        model = UniformQuantileSamplingModel(DIST, interval_s=5.0, seed=3)
        first = collect_limits(model, 20, 5.0)
        model.reset()
        second = collect_limits(model, 20, 5.0)
        assert first == pytest.approx(second)

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            UniformQuantileSamplingModel(DIST, interval_s=0.0)


class TestAr1Model:
    def test_marginal_within_support(self):
        model = Ar1QuantileModel(DIST, interval_s=10.0, phi=0.6, seed=1)
        values = collect_limits(model, 2_000, 10.0)
        assert values.min() >= 7.7 - 1e-9
        assert values.max() <= 10.4 + 1e-9

    def test_autocorrelation_increases_with_phi(self):
        def lag1_autocorr(phi, seed=2):
            model = Ar1QuantileModel(DIST, interval_s=10.0, phi=phi, seed=seed)
            v = collect_limits(model, 3_000, 10.0)
            centered = v - v.mean()
            return float(
                np.dot(centered[:-1], centered[1:]) / np.dot(centered, centered)
            )

        assert lag1_autocorr(0.9) > lag1_autocorr(0.1) + 0.2

    def test_phi_validation(self):
        with pytest.raises(ValueError):
            Ar1QuantileModel(DIST, phi=1.0)
        with pytest.raises(ValueError):
            Ar1QuantileModel(DIST, phi=-0.1)

    def test_marginal_median_preserved(self):
        model = Ar1QuantileModel(DIST, interval_s=10.0, phi=0.5, seed=4)
        values = collect_limits(model, 5_000, 10.0)
        assert np.median(values) == pytest.approx(9.4, abs=0.2)

    def test_redraw_ceilings_pinned(self):
        model = Ar1QuantileModel(DIST, seed=7)
        ceilings = [model.limit()] + [model._draw() for _ in range(63)]
        assert ceilings == AR1_SEED7_CEILINGS

    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_batched_redraw_ceilings_pinned(self, k):
        model = Ar1QuantileModel(DIST, seed=7)
        ceilings = [model._draw_batch(k) for _ in range(63 // k)]
        assert ceilings == AR1_SEED7_CEILINGS[k::k]

    @given(
        z=st.floats(min_value=-40.0, max_value=40.0)
        | st.sampled_from([math.inf, -math.inf])
    )
    @example(z=0.0)
    @example(z=-0.0)
    @example(z=5e-324)
    @example(z=-5e-324)
    @example(z=2.2e-308)
    @example(z=40.0)
    @example(z=-40.0)
    @example(z=math.inf)
    @example(z=-math.inf)
    def test_ndtr_is_bit_equal_to_norm_cdf(self, z):
        assert struct.pack("<d", float(ndtr(z))) == struct.pack(
            "<d", float(norm.cdf(z))
        )


class TestPerCoreQos:
    def test_qos_scales_with_cores(self):
        for cores, qos in [(1, 2.0), (2, 4.0), (4, 8.0), (8, 16.0)]:
            model = PerCoreQosModel(cores=cores, seed=0)
            assert model.qos_gbps == qos

    def test_limit_never_exceeds_qos(self):
        model = PerCoreQosModel(cores=8, seed=1)
        values = collect_limits(model, 1_000, 2.5)
        assert values.max() <= 16.0

    def test_warm_stream_stable_cold_stream_variable(self):
        # Continuous sending -> warm efficiencies; bursty 5-30 access ->
        # cold efficiencies with a long lower tail (Figure 5).
        warm_model = PerCoreQosModel(cores=8, seed=2)
        warm = collect_limits(warm_model, 2_000, 2.5)
        # Drop the initial ramp before comparing.
        warm = warm[10:]

        cold_model = PerCoreQosModel(cores=8, seed=2)
        cold_samples = []
        for _ in range(500):
            # 5 s burst, 30 s rest.
            rates = []
            for _ in range(2):
                rate = cold_model.limit()
                rates.append(rate)
                cold_model.advance(2.5, rate)
            cold_samples.append(np.mean(rates))
            cold_model.advance(30.0, 0.0)
        cold = np.asarray(cold_samples)

        assert np.std(cold) > np.std(warm)
        assert np.percentile(cold, 1) < np.percentile(warm, 1)

    def test_idle_resets_stream_age(self):
        model = PerCoreQosModel(cores=4, ramp_s=4.0, idle_reset_s=15.0, seed=3)
        model.advance(10.0, 8.0)
        assert model.is_warm
        model.advance(20.0, 0.0)  # long idle: flow goes cold
        model.advance(0.5, 8.0)
        assert not model.is_warm

    def test_short_idle_keeps_stream_warm(self):
        model = PerCoreQosModel(cores=4, ramp_s=4.0, idle_reset_s=15.0, seed=4)
        model.advance(10.0, 8.0)
        model.advance(5.0, 0.0)  # idle shorter than the reset threshold
        model.advance(0.5, 8.0)
        assert model.is_warm

    def test_cold_resume_redraws_efficiency_immediately(self):
        # Regression: a burst resumed after an idle gap >= idle_reset_s
        # must sample the *cold* distribution at resume, not keep the
        # stale warm draw until the next interval boundary — otherwise
        # bursts shorter than interval_s never see the Figure 5 cold
        # tail.  Disjoint degenerate distributions make the draws
        # unambiguous: warm always 1.0, cold always 0.1.
        from repro.netmodel.percore import PerCoreQosModel as Model

        warm = QuantileDistribution(probs=(0.01, 0.99), values=(1.0, 1.0))
        cold = QuantileDistribution(probs=(0.01, 0.99), values=(0.1, 0.1))
        model = Model(
            cores=4,
            warm_efficiency=warm,
            cold_efficiency=cold,
            ramp_s=4.0,
            idle_reset_s=15.0,
            interval_s=2.5,
            seed=7,
        )
        # Warm the stream past the ramp and through interval redraws.
        model.advance(10.0, 8.0)
        assert model.is_warm
        assert model.limit() == pytest.approx(8.0 * 1.0)
        # Long idle: the flow is de-programmed.  During the idle the
        # clockwork keeps redrawing (still warm — the age only resets
        # on resume), so the stale value is a warm 1.0.
        model.advance(20.0, 0.0)
        # A short resumed burst (shorter than interval_s!) must see a
        # cold-tail efficiency immediately.
        model.advance(0.5, 8.0)
        assert not model.is_warm
        assert model.limit() == pytest.approx(8.0 * 0.1)

    def test_short_idle_resume_does_not_redraw(self):
        # The cold redraw must not fire for idles below the reset
        # threshold: the efficiency (and the RNG position) stay put.
        model = PerCoreQosModel(cores=4, ramp_s=4.0, idle_reset_s=15.0, seed=9)
        model.advance(10.0, 8.0)
        before = model.limit()
        model.advance(1.0, 0.0)  # brief idle, same resample interval
        model.advance(0.4, 8.0)
        assert model.limit() == before

    def test_validation(self):
        with pytest.raises(ValueError):
            PerCoreQosModel(cores=0)
        with pytest.raises(ValueError):
            PerCoreQosModel(cores=1, per_core_gbps=-1.0)
        with pytest.raises(ValueError):
            PerCoreQosModel(cores=1, interval_s=0.0)


_MODELS = {
    "uniform": lambda **kw: UniformQuantileSamplingModel(DIST, **kw),
    "ar1": lambda **kw: Ar1QuantileModel(DIST, **kw),
    "percore": lambda **kw: PerCoreQosModel(cores=1, **kw),
}


@pytest.mark.parametrize(
    "model, name, value",
    [
        ("uniform", "interval_s", math.nan),
        ("uniform", "interval_s", math.inf),
        ("ar1", "interval_s", math.nan),
        ("ar1", "interval_s", math.inf),
        ("percore", "interval_s", math.nan),
        ("percore", "interval_s", math.inf),
        ("percore", "per_core_gbps", math.nan),
        ("percore", "per_core_gbps", math.inf),
        ("percore", "ramp_s", math.nan),
        ("percore", "idle_reset_s", math.nan),
    ],
)
def test_non_finite_params_rejected_by_name(model, name, value):
    with pytest.raises(ValueError, match=name):
        _MODELS[model](**{name: value})
