"""Tests for the burstable-CPU credit bucket."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netmodel import CpuBucketParams, CpuTokenBucket
from repro.netmodel.cpu_bucket import T2_MEDIUM_LIKE


class TestParams:
    def test_burst_seconds(self):
        params = CpuBucketParams(
            baseline_fraction=0.2, initial_credits=360.0, max_credits=1_728.0
        )
        # Credits burn at 0.8 core while flat out: 360 / 0.8 = 450 s.
        assert params.burst_seconds == pytest.approx(450.0)

    def test_full_baseline_never_exhausts(self):
        params = CpuBucketParams(
            baseline_fraction=1.0, initial_credits=10.0, max_credits=10.0
        )
        assert math.isinf(params.burst_seconds)

    def test_validation(self):
        with pytest.raises(ValueError):
            CpuBucketParams(baseline_fraction=0.0, initial_credits=1.0, max_credits=1.0)
        with pytest.raises(ValueError):
            CpuBucketParams(baseline_fraction=0.2, initial_credits=-1.0, max_credits=1.0)
        with pytest.raises(ValueError):
            CpuBucketParams(baseline_fraction=0.2, initial_credits=5.0, max_credits=1.0)

    @pytest.mark.parametrize("initial, maximum", [(math.nan, 10.0), (5.0, math.nan)])
    def test_nan_credits_rejected(self, initial, maximum):
        with pytest.raises(ValueError, match="credits"):
            CpuBucketParams(
                baseline_fraction=0.2, initial_credits=initial, max_credits=maximum
            )


class TestBucket:
    def test_fresh_instance_runs_full_speed(self):
        bucket = CpuTokenBucket(T2_MEDIUM_LIKE)
        assert bucket.speed_factor() == 1.0

    def test_exhaustion_drops_to_baseline(self):
        bucket = CpuTokenBucket(T2_MEDIUM_LIKE)
        bucket.advance(T2_MEDIUM_LIKE.burst_seconds + 1.0, 1.0)
        assert bucket.throttled
        assert bucket.speed_factor() == pytest.approx(0.2)

    def test_idle_restores_credits(self):
        bucket = CpuTokenBucket(T2_MEDIUM_LIKE)
        bucket.advance(T2_MEDIUM_LIKE.burst_seconds + 1.0, 1.0)
        bucket.advance(100.0, 0.0)  # accrue at baseline 0.2 -> 20 credits
        assert not bucket.throttled
        assert bucket.credits == pytest.approx(20.0, abs=1.0)

    def test_credits_capped_at_maximum(self):
        bucket = CpuTokenBucket(T2_MEDIUM_LIKE)
        bucket.advance(1e6, 0.0)
        assert bucket.credits == T2_MEDIUM_LIKE.max_credits

    def test_run_at_full_speed_closed_form(self):
        # 600 core-seconds of work on a fresh t2-medium-like bucket:
        # 450 s burst covers 450 core-s; remaining 150 core-s at 0.2
        # cores takes 750 s -> 1200 s total.
        bucket = CpuTokenBucket(T2_MEDIUM_LIKE)
        elapsed = bucket.run_at_full_speed(600.0)
        assert elapsed == pytest.approx(1_200.0, rel=0.01)

    def test_small_work_finishes_at_full_speed(self):
        bucket = CpuTokenBucket(T2_MEDIUM_LIKE)
        assert bucket.run_at_full_speed(100.0) == pytest.approx(100.0, rel=0.01)

    def test_reset(self):
        bucket = CpuTokenBucket(T2_MEDIUM_LIKE)
        bucket.advance(1_000.0, 1.0)
        bucket.reset()
        assert bucket.credits == T2_MEDIUM_LIKE.initial_credits
        assert not bucket.throttled

    def test_validation(self):
        bucket = CpuTokenBucket(T2_MEDIUM_LIKE)
        with pytest.raises(ValueError):
            bucket.advance(-1.0, 0.5)
        with pytest.raises(ValueError):
            bucket.advance(1.0, 1.5)
        with pytest.raises(ValueError):
            bucket.horizon(2.0)
        with pytest.raises(ValueError):
            bucket.run_at_full_speed(-1.0)

    @pytest.mark.parametrize("work", [math.nan, math.inf])
    def test_nan_or_infinite_work_rejected(self, work):
        with pytest.raises(ValueError, match=f"got {work}"):
            CpuTokenBucket(T2_MEDIUM_LIKE).run_at_full_speed(work)

    def test_zero_work_takes_no_time(self):
        bucket = CpuTokenBucket(T2_MEDIUM_LIKE)
        assert bucket.run_at_full_speed(0.0) == 0.0
        assert bucket.credits == T2_MEDIUM_LIKE.initial_credits

    def test_non_convergence_names_its_state(self):
        class StuckBucket(CpuTokenBucket):
            # A horizon that never lets a step past the 1 ns floor.
            def horizon(self, usage_fraction):
                return 0.0

        with pytest.raises(RuntimeError) as info:
            StuckBucket(T2_MEDIUM_LIKE).run_at_full_speed(1.0)
        message = str(info.value)
        assert "core-s of work left" in message
        assert "credits" in message
        assert "speed factor 1.0" in message

    @given(
        baseline=st.floats(min_value=0.05, max_value=0.95),
        credits=st.floats(min_value=1.0, max_value=1_000.0),
        work=st.floats(min_value=0.1, max_value=5_000.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_elapsed_bounded_by_extremes(self, baseline, credits, work):
        """Wall-clock always sits between all-burst and all-baseline."""
        params = CpuBucketParams(
            baseline_fraction=baseline,
            initial_credits=credits,
            max_credits=credits * 2,
        )
        elapsed = CpuTokenBucket(params).run_at_full_speed(work)
        assert work - 1e-6 <= elapsed <= work / baseline + 1e-6

    @given(
        steps=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=100.0),
                st.floats(min_value=0.0, max_value=1.0),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_credits_always_in_bounds(self, steps):
        bucket = CpuTokenBucket(T2_MEDIUM_LIKE)
        for dt, usage in steps:
            bucket.advance(dt, usage)
            assert 0.0 <= bucket.credits <= T2_MEDIUM_LIKE.max_credits
