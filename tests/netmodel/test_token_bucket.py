"""Tests for the fluid token-bucket model."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netmodel import TokenBucketModel, TokenBucketParams
from repro.netmodel.base import drive


def c5_xlarge_params(**overrides):
    defaults = dict(
        peak_gbps=10.0,
        capped_gbps=1.0,
        replenish_gbps=1.0,
        capacity_gbit=5_400.0,
    )
    defaults.update(overrides)
    return TokenBucketParams(**defaults)


class TestParams:
    def test_time_to_empty_matches_paper(self):
        # c5.xlarge: ~10 minutes of full-speed transfer.
        params = c5_xlarge_params()
        assert params.time_to_empty_s == pytest.approx(600.0)

    def test_time_to_empty_infinite_when_replenish_covers_peak(self):
        params = c5_xlarge_params(replenish_gbps=10.0)
        assert math.isinf(params.time_to_empty_s)

    def test_with_budget(self):
        params = c5_xlarge_params().with_budget(100.0)
        assert params.initial_budget_gbit == 100.0
        assert params.time_to_empty_s == pytest.approx(100.0 / 9.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            c5_xlarge_params(peak_gbps=-1.0)
        with pytest.raises(ValueError):
            c5_xlarge_params(capped_gbps=20.0)
        with pytest.raises(ValueError):
            c5_xlarge_params(capacity_gbit=0.0)
        with pytest.raises(ValueError):
            c5_xlarge_params(replenish_gbps=-0.5)

    @pytest.mark.parametrize(
        "name",
        [
            "peak_gbps",
            "capped_gbps",
            "replenish_gbps",
            "capacity_gbit",
            "initial_budget_gbit",
            "resume_threshold_gbit",
        ],
    )
    def test_non_finite_params_rejected_by_name(self, name):
        with pytest.raises(ValueError, match=name):
            c5_xlarge_params(**{name: math.nan})


class TestModel:
    def test_fresh_bucket_starts_at_peak(self):
        model = TokenBucketModel(c5_xlarge_params())
        assert model.limit() == 10.0
        assert not model.throttled

    def test_empties_at_the_analytic_time(self):
        model = TokenBucketModel(c5_xlarge_params())
        horizon = model.horizon(10.0)
        assert horizon == pytest.approx(600.0)
        model.advance(horizon, 10.0)
        assert model.throttled
        assert model.limit() == 1.0

    def test_capped_rate_keeps_bucket_empty(self):
        model = TokenBucketModel(c5_xlarge_params())
        model.advance(600.0, 10.0)
        assert model.throttled
        # replenish == capped rate: sending at the cap never refills.
        model.advance(1_000.0, 1.0)
        assert model.throttled

    def test_rest_refills_and_restores_peak(self):
        model = TokenBucketModel(c5_xlarge_params())
        model.advance(600.0, 10.0)
        assert model.throttled
        rest = model.time_to_full_s()
        assert rest == pytest.approx(5_400.0)
        model.advance(rest, 0.0)
        assert not model.throttled
        assert model.limit() == 10.0
        assert model.budget_gbit == pytest.approx(5_400.0)

    def test_hysteresis_resume_threshold(self):
        params = c5_xlarge_params(resume_threshold_gbit=50.0)
        model = TokenBucketModel(params)
        model.advance(600.0, 10.0)
        assert model.throttled
        # Refill just below the threshold: still throttled.
        model.advance(49.0, 0.0)
        assert model.throttled
        model.advance(2.0, 0.0)
        assert not model.throttled

    def test_set_budget(self):
        model = TokenBucketModel(c5_xlarge_params())
        model.set_budget(100.0)
        assert model.budget_gbit == 100.0
        model.set_budget(0.0)
        assert model.throttled
        with pytest.raises(ValueError):
            model.set_budget(-1.0)

    def test_set_budget_clamps_to_capacity(self):
        model = TokenBucketModel(c5_xlarge_params())
        model.set_budget(1e9)
        assert model.budget_gbit == 5_400.0

    def test_reset_restores_initial_budget(self):
        params = c5_xlarge_params().with_budget(250.0)
        model = TokenBucketModel(params)
        model.advance(60.0, 10.0)
        model.reset()
        assert model.budget_gbit == pytest.approx(250.0)

    def test_negative_dt_rejected(self):
        model = TokenBucketModel(c5_xlarge_params())
        with pytest.raises(ValueError):
            model.advance(-1.0, 1.0)

    @pytest.mark.parametrize("rate", [-1.0, math.nan])
    def test_negative_or_nan_send_rate_rejected(self, rate):
        # NaN would pass ``< 0`` and leave the budget NaN while the
        # bucket still reports its peak limit.
        model = TokenBucketModel(c5_xlarge_params())
        with pytest.raises(ValueError, match="send rate"):
            model.advance(1.0, rate)
        assert model.budget_gbit == 5_400.0
        assert model.limit() == 10.0

    def test_integration_full_speed_hour(self):
        # One hour at full speed: 600 s at 10 Gbps + 3000 s at 1 Gbps.
        model = TokenBucketModel(c5_xlarge_params())
        transferred = sum(rate * dt for dt, rate in drive(model, 3_600.0, 100.0, 1e-9))
        assert transferred == pytest.approx(600 * 10 + 3_000 * 1, rel=1e-6)

    def test_oscillation_with_replenish_above_cap(self):
        # Replenish slightly above the capped rate: once drained, the
        # bucket repeatedly crosses the resume threshold, producing the
        # Figure 18 straggler oscillation.
        params = c5_xlarge_params(
            capped_gbps=1.0,
            replenish_gbps=1.2,
            capacity_gbit=100.0,
            resume_threshold_gbit=2.0,
        )
        model = TokenBucketModel(params)
        model.set_budget(0.0)
        states = []
        for _ in range(2_000):
            rate = min(10.0, model.limit())
            step = min(max(model.horizon(rate), 1e-3), 5.0)
            model.advance(step, rate)
            states.append(model.throttled)
        assert any(states) and not all(states)


class TestPropertyBased:
    @given(
        peak=st.floats(min_value=1.0, max_value=100.0),
        capped_frac=st.floats(min_value=0.05, max_value=1.0),
        replenish_frac=st.floats(min_value=0.0, max_value=1.0),
        capacity=st.floats(min_value=1.0, max_value=1e5),
        steps=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=100.0),
                st.floats(min_value=0.0, max_value=200.0),
            ),
            min_size=1,
            max_size=40,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_budget_always_within_bounds(
        self, peak, capped_frac, replenish_frac, capacity, steps
    ):
        params = TokenBucketParams(
            peak_gbps=peak,
            capped_gbps=peak * capped_frac,
            replenish_gbps=peak * replenish_frac,
            capacity_gbit=capacity,
        )
        model = TokenBucketModel(params)
        for dt, rate in steps:
            model.advance(dt, rate)
            assert 0.0 <= model.budget_gbit <= capacity + 1e-9

    @given(
        capacity=st.floats(min_value=10.0, max_value=1e4),
        offered=st.floats(min_value=0.5, max_value=50.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_horizon_is_exact_boundary(self, capacity, offered):
        params = TokenBucketParams(
            peak_gbps=10.0,
            capped_gbps=1.0,
            replenish_gbps=0.5,
            capacity_gbit=capacity,
        )
        model = TokenBucketModel(params)
        rate = min(offered, model.limit())
        h = model.horizon(rate)
        if math.isinf(h):
            return
        # Just before the horizon the limit is unchanged...
        before = TokenBucketModel(params)
        before.advance(h * 0.999, rate)
        assert before.limit() == model.limit()
        # ...and at/after it the state has flipped.
        after = TokenBucketModel(params)
        after.advance(h * 1.001 + 1e-9, rate)
        assert after.throttled

    @given(duration=st.floats(min_value=1.0, max_value=5_000.0))
    @settings(max_examples=50, deadline=None)
    def test_transfer_never_exceeds_budget_plus_replenish(self, duration):
        params = TokenBucketParams(
            peak_gbps=10.0,
            capped_gbps=1.0,
            replenish_gbps=1.0,
            capacity_gbit=1_000.0,
        )
        model = TokenBucketModel(params)
        transferred = sum(rate * dt for dt, rate in drive(model, duration, 1e6, 1e-9))
        # Conservation: cannot move more than initial budget plus
        # replenished tokens plus capped-rate allowance... the tight
        # bound is initial + replenish*duration when capped==replenish.
        upper = params.capacity_gbit + params.replenish_gbps * duration + 1e-6
        assert transferred <= upper
