"""Tests for :func:`repro.netmodel.base.drive`, the scalar integration loop."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netmodel import (
    Ar1QuantileModel,
    ConstantRateModel,
    QuantileDistribution,
    TokenBucketModel,
    TokenBucketParams,
    UniformQuantileSamplingModel,
)
from repro.netmodel.base import drive
from repro.netmodel.state import model_state_dict

_JITTER = QuantileDistribution(
    probs=(0.01, 0.25, 0.5, 0.75, 0.99), values=(7.7, 8.9, 9.4, 9.8, 10.4)
)


def integrate_transfer_loop(model, duration_s, offered_gbps, max_step_s):
    """The transfer loop ``drive`` replaced, transcribed step for step."""
    segments = []
    remaining = duration_s
    min_step = 1e-9
    while remaining > 1e-12:
        rate = min(offered_gbps, model.limit())
        step = min(remaining, model.horizon(rate), max_step_s)
        step = max(step, min_step)
        step = min(step, remaining)
        model.advance(step, rate)
        segments.append((step, rate))
        remaining -= step
    return segments


@st.composite
def token_buckets(draw):
    peak = draw(st.floats(min_value=1.0, max_value=25.0))
    capacity = draw(st.floats(min_value=1.0, max_value=2_000.0))
    params = TokenBucketParams(
        peak_gbps=peak,
        capped_gbps=draw(st.floats(min_value=0.1, max_value=1.0)) * peak,
        replenish_gbps=draw(st.floats(min_value=0.0, max_value=2.0)),
        capacity_gbit=capacity,
        initial_budget_gbit=draw(st.floats(min_value=0.0, max_value=1.0)) * capacity,
        # At least 1 Gbit, so a drained bucket cannot flap at the floor.
        resume_threshold_gbit=draw(st.floats(min_value=1.0, max_value=50.0)),
    )
    return lambda: TokenBucketModel(params)


@st.composite
def resampling_models(draw):
    interval = draw(st.floats(min_value=0.5, max_value=20.0))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    if draw(st.booleans()):
        return lambda: UniformQuantileSamplingModel(_JITTER, interval, seed)
    phi = draw(st.floats(min_value=0.0, max_value=0.95))
    return lambda: Ar1QuantileModel(_JITTER, interval, phi, seed)


model_factories = st.one_of(
    token_buckets(),
    resampling_models(),
    st.floats(min_value=0.1, max_value=40.0).map(
        lambda rate: lambda: ConstantRateModel(rate)
    ),
)

@st.composite
def runs(draw):
    """``(duration, cap)`` pairs of at most a few thousand steps."""
    if draw(st.booleans()):
        # A cap below the 1 ns floor: the floor wins.
        cap = draw(st.floats(min_value=1e-15, max_value=1e-9))
        return draw(st.floats(min_value=0.0, max_value=2e-6)), cap
    cap = draw(st.one_of(st.just(math.inf), st.floats(min_value=0.5, max_value=100.0)))
    return draw(st.floats(min_value=0.0, max_value=1_000.0)), cap


class TestDriveMatchesTransferLoop:
    @given(
        factory=model_factories,
        run=runs(),
        offered=st.floats(min_value=0.0, max_value=50.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_segments_and_state_bit_identical(self, factory, run, offered):
        duration, cap = run
        old, new = factory(), factory()
        expected = integrate_transfer_loop(old, duration, offered, cap)
        got = list(drive(new, duration, offered, 1e-9, cap))
        assert got == expected
        assert model_state_dict(new) == model_state_dict(old)


class TestDriveProtocol:
    def test_constant_link_is_one_segment(self):
        model = ConstantRateModel(4.0)
        assert list(drive(model, 10.0, 100.0, 1e-9)) == [(10.0, 4.0)]

    def test_offered_rate_below_the_ceiling_is_sent(self):
        model = ConstantRateModel(4.0)
        assert list(drive(model, 10.0, 2.5, 1e-9)) == [(10.0, 2.5)]

    def test_zero_duration_takes_no_step(self):
        assert list(drive(ConstantRateModel(4.0), 0.0, 1.0, 1e-9)) == []

    def test_send_replaces_the_cap_and_returns_none(self):
        model = ConstantRateModel(4.0)
        segments = drive(model, 10.0, 100.0, 1e-9, 1.0)
        steps = []
        for step, _rate in segments:
            steps.append(step)
            assert segments.send(2.0 * step) is None
        assert steps == [1.0, 2.0, 4.0, 3.0]

    def test_infinite_duration_runs_until_the_caller_stops(self):
        segments = drive(ConstantRateModel(4.0), math.inf, 1.0, 1e-9, 0.5)
        steps = [next(segments)[0] for _ in range(5)]
        assert steps == [0.5] * 5

    def test_floor_bounds_a_vanishing_horizon(self):
        class ZeroHorizon(ConstantRateModel):
            def horizon(self, send_rate_gbps):
                return 0.0

        steps = [step for step, _ in drive(ZeroHorizon(1.0), 1e-3, 5.0, 1e-4)]
        assert len(steps) <= 11
        assert math.fsum(steps) == pytest.approx(1e-3)

    @pytest.mark.parametrize("duration", [-1.0, math.nan])
    def test_bad_duration_rejected(self, duration):
        with pytest.raises(ValueError, match=f"duration .* got {duration}"):
            drive(ConstantRateModel(1.0), duration, 5.0, 1e-9)

    @pytest.mark.parametrize("offered", [-1.0, math.nan])
    def test_bad_offered_rate_rejected(self, offered):
        with pytest.raises(ValueError, match=f"offered rate .* got {offered}"):
            drive(ConstantRateModel(1.0), 10.0, offered, 1e-9)

    @pytest.mark.parametrize("floor", [0.0, -1e-9, math.nan])
    def test_bad_floor_rejected(self, floor):
        with pytest.raises(ValueError, match=f"step floor .* got {floor}"):
            drive(ConstantRateModel(1.0), 10.0, 5.0, floor)
