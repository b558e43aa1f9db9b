"""Tests for patterns, the discrete shaper, and the emulated link."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.emulator import (
    FIVE_THIRTY,
    FULL_SPEED,
    TEN_THIRTY,
    DiscreteTokenBucket,
    EmulatedLink,
    TrafficPattern,
    pattern_by_name,
    tc_script,
)
from repro.netmodel import ConstantRateModel, TokenBucketModel, TokenBucketParams
from repro.netmodel.base import drive

PARAMS = TokenBucketParams(
    peak_gbps=10.0, capped_gbps=1.0, replenish_gbps=0.95, capacity_gbit=5_400.0
)


class TestPatterns:
    def test_duty_cycles(self):
        assert FULL_SPEED.duty_cycle == 1.0
        assert TEN_THIRTY.duty_cycle == pytest.approx(0.25)
        assert FIVE_THIRTY.duty_cycle == pytest.approx(5.0 / 35.0)

    def test_phases_cover_duration(self):
        total = sum(dt for _, dt in TEN_THIRTY.phases(200.0))
        assert total == pytest.approx(200.0)

    def test_phases_start_transmitting(self):
        first = next(iter(FIVE_THIRTY.phases(100.0)))
        assert first == (True, 5.0)

    def test_full_speed_single_phase(self):
        phases = list(FULL_SPEED.phases(100.0))
        assert phases == [(True, 100.0)]

    def test_truncated_final_phase(self):
        phases = list(TEN_THIRTY.phases(15.0))
        assert phases == [(True, 10.0), (False, 5.0)]

    def test_bursts_in(self):
        assert TEN_THIRTY.bursts_in(120.0) == 3
        assert FULL_SPEED.bursts_in(1.0) == 1

    def test_lookup(self):
        assert pattern_by_name("5-30") is FIVE_THIRTY
        with pytest.raises(KeyError):
            pattern_by_name("1-2")

    def test_validation(self):
        with pytest.raises(ValueError):
            TrafficPattern(name="bad", transmit_s=0.0, rest_s=1.0)
        with pytest.raises(ValueError):
            TrafficPattern(name="bad", transmit_s=1.0, rest_s=-1.0)


class TestDiscreteShaper:
    def test_peak_then_capped(self):
        bucket = DiscreteTokenBucket(PARAMS, tick_s=1.0)
        sent = bucket.run(offered_gbps=100.0, duration_s=1_200)
        # First ticks at 10 Gbps, later ticks at 1 Gbps.
        assert sent[0] == pytest.approx(10.0)
        assert sent[-1] == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            DiscreteTokenBucket(PARAMS, tick_s=0.0)
        bucket = DiscreteTokenBucket(PARAMS)
        with pytest.raises(ValueError):
            bucket.offer(-1.0)
        with pytest.raises(ValueError):
            bucket.run(1.0, -5.0)

    @given(
        offered=st.floats(min_value=0.5, max_value=50.0),
        duration=st.floats(min_value=10.0, max_value=2_000.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_discrete_agrees_with_fluid_model(self, offered, duration):
        """The tick shaper and the fluid model are independent
        implementations of the same algorithm; totals must agree."""
        tick = 0.05
        discrete = DiscreteTokenBucket(PARAMS, tick_s=tick)
        total_discrete = sum(discrete.run(offered, duration))

        fluid = TokenBucketModel(PARAMS)
        segments = drive(fluid, duration, offered, 1e-9)
        total_fluid = sum(rate * dt for dt, rate in segments)

        assert total_discrete == pytest.approx(total_fluid, rel=0.02, abs=1.0)


class TestTcScript:
    def test_script_mentions_rates(self):
        script = tc_script(PARAMS, interface="eth1")
        assert "eth1" in script
        assert "10.0gbit" in script
        assert "1.0gbit" in script
        assert "htb" in script


class TestEmulatedLink:
    def test_constant_link_full_speed(self):
        link = EmulatedLink(ConstantRateModel(5.0), FULL_SPEED, offered_gbps=100.0)
        samples = link.run(100.0)
        assert len(samples) == 10
        assert all(s.bandwidth_gbps == pytest.approx(5.0) for s in samples)

    def test_offered_load_respected(self):
        link = EmulatedLink(ConstantRateModel(5.0), FULL_SPEED, offered_gbps=2.0)
        samples = link.run(50.0)
        assert all(s.bandwidth_gbps == pytest.approx(2.0) for s in samples)

    def test_burst_pattern_sample_per_burst(self):
        # A 5-30 pattern over 350 s has 10 bursts -> 10 samples, each
        # covering 5 transmitting seconds.
        link = EmulatedLink(ConstantRateModel(5.0), FIVE_THIRTY)
        samples = link.run(350.0)
        assert len(samples) == 10
        assert all(s.duration_s == pytest.approx(5.0) for s in samples)

    def test_token_bucket_throttling_visible(self):
        model = TokenBucketModel(PARAMS)
        link = EmulatedLink(model, FULL_SPEED)
        samples = link.run(3_600.0)
        rates = np.array([s.bandwidth_gbps for s in samples])
        assert rates[0] == pytest.approx(10.0)
        assert rates[-1] == pytest.approx(1.0, abs=0.05)
        # The drop happens near the analytic 600 s mark.
        drop_index = int(np.argmax(rates < 5.0))
        assert samples[drop_index].t_start == pytest.approx(600.0, abs=20.0)

    def test_runs_compose_without_reset(self):
        # Second run starts with a drained bucket (F4.4 carry-over).
        model = TokenBucketModel(PARAMS)
        link = EmulatedLink(model, FULL_SPEED)
        link.run(1_200.0)
        second = link.run(100.0)
        assert second[0].bandwidth_gbps == pytest.approx(1.0, abs=0.05)

    def test_figure14_shape_burst_starts_high_then_drops(self):
        # Figure 14: with a near-empty bucket, each 10 s burst starts at
        # 10 Gbps (replenished budget) and falls to 1 Gbps.
        model = TokenBucketModel(PARAMS.with_budget(0.0))
        link = EmulatedLink(model, TEN_THIRTY, report_interval_s=1.0)
        samples = link.run(400.0)
        # Look at the second burst (first starts fully drained).
        burst2 = [s for s in samples if 40.0 <= s.t_start < 50.0]
        assert burst2[0].bandwidth_gbps > 5.0
        assert burst2[-1].bandwidth_gbps == pytest.approx(1.0, abs=0.1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("offered_gbps", 0.0),
            ("offered_gbps", math.nan),
            ("report_interval_s", 0.0),
            ("report_interval_s", math.nan),
        ],
    )
    def test_validation(self, field, value):
        with pytest.raises(ValueError, match=f"got {value}"):
            EmulatedLink(ConstantRateModel(1.0), FULL_SPEED, **{field: value})

    @pytest.mark.parametrize("pattern", [FULL_SPEED, TEN_THIRTY])
    @pytest.mark.parametrize("duration", [-1.0, math.nan])
    def test_run_duration_validation(self, pattern, duration):
        link = EmulatedLink(ConstantRateModel(1.0), pattern)
        with pytest.raises(ValueError, match=f"got {duration}"):
            link.run(duration)
