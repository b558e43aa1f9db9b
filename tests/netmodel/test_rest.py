"""Tests for idle resting: analytic token-bucket refill + bounded fallback."""

import math

import pytest

from repro.netmodel import (
    ConstantRateModel,
    TokenBucketModel,
    TokenBucketParams,
)
from repro.netmodel.base import LinkModel
from repro.simulator import Fabric
from repro.simulator.engine import rest_fabric


def depleted_bucket(replenish=1.0, capacity=600.0, threshold=50.0):
    model = TokenBucketModel(
        TokenBucketParams(
            peak_gbps=10.0,
            capped_gbps=1.0,
            replenish_gbps=replenish,
            capacity_gbit=capacity,
            initial_budget_gbit=0.0,
            resume_threshold_gbit=threshold,
        )
    )
    assert model.throttled
    return model


class TestTokenBucketRest:
    def test_analytic_refill_is_exact(self):
        model = depleted_bucket(replenish=1.0, capacity=600.0)
        model.rest(120.0)
        assert model.budget_gbit == pytest.approx(120.0, abs=1e-9)

    def test_rest_crosses_resume_threshold(self):
        model = depleted_bucket(replenish=1.0, threshold=50.0)
        model.rest(49.0)
        assert model.throttled
        model.rest(2.0)
        assert not model.throttled
        assert model.limit() == 10.0

    def test_rest_saturates_at_capacity(self):
        model = depleted_bucket(replenish=2.0, capacity=100.0)
        model.rest(1_000_000.0)
        assert model.budget_gbit == 100.0

    def test_rest_is_single_step_even_at_tiny_horizon(self):
        # Sitting just under the resume threshold the reported idle
        # horizon is microscopic; the analytic path must not sub-step.
        model = depleted_bucket(replenish=1.0, threshold=50.0)
        model.set_budget(50.0 - 1e-7)
        calls = 0
        original = model.advance

        def counting_advance(dt, rate):
            nonlocal calls
            calls += 1
            original(dt, rate)

        model.advance = counting_advance
        model.rest(3_600.0)
        assert calls == 1
        assert not model.throttled

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            depleted_bucket().rest(-1.0)


class _TinyHorizonModel(LinkModel):
    """Pathological shaper whose idle horizon is always microscopic."""

    def __init__(self):
        self.advance_calls = 0
        self.advanced_s = 0.0

    def limit(self):
        return 1.0

    def horizon(self, send_rate_gbps):
        return 1e-9

    def advance(self, dt, send_rate_gbps):
        self.advance_calls += 1
        self.advanced_s += dt

    def reset(self):
        self.advance_calls = 0
        self.advanced_s = 0.0


class TestGenericRestFallback:
    def test_bounded_step_count(self):
        model = _TinyHorizonModel()
        model.rest(3_600.0)
        assert model.advanced_s == pytest.approx(3_600.0, rel=1e-9)
        # The pre-fix behaviour was 3.6e9 microsecond steps; the floor
        # bounds the walk to ~10k.
        assert model.advance_calls <= 10_001

    def test_constant_rate_rest_is_noop(self):
        model = ConstantRateModel(10.0)
        model.rest(100.0)  # must simply terminate
        assert model.limit() == 10.0

    @pytest.mark.parametrize("duration", [-0.5, math.nan])
    def test_negative_duration_rejected(self, duration):
        with pytest.raises(ValueError, match=f"got {duration}"):
            _TinyHorizonModel().rest(duration)


class TestRestFabric:
    def test_rest_fabric_refills_and_invalidates(self):
        model = depleted_bucket(replenish=1.0, threshold=50.0)
        fabric = Fabric(
            egress_models=[model, ConstantRateModel(10.0)],
            ingress_caps_gbps=[10.0, 10.0],
        )
        flow = fabric.add_flow(0, 1, 1_000.0)
        fabric.compute_rates()
        assert flow.rate_gbps == pytest.approx(1.0)  # throttled ceiling
        rest_fabric(fabric, 120.0)
        assert model.budget_gbit == pytest.approx(120.0, abs=1e-9)
        # The ceiling changed while resting; the next horizon query must
        # recompute rates rather than reuse the stale assignment.
        fabric.horizon()
        assert flow.rate_gbps == pytest.approx(10.0)
