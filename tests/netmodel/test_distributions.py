"""Tests for quantile-parameterized distributions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netmodel import QuantileDistribution
from repro.trace import BoxSummary


@pytest.fixture
def dist():
    return QuantileDistribution(
        probs=(0.01, 0.25, 0.50, 0.75, 0.99),
        values=(1.0, 3.0, 5.0, 7.0, 9.0),
    )


class TestConstruction:
    def test_from_box(self):
        box = BoxSummary(p01=1, p25=3, p50=5, p75=7, p99=9, p999=9.5)
        dist = QuantileDistribution.from_box(box)
        assert dist.median == 5.0
        # from_box anchors the paper's five probabilities only (the
        # sampling inversion must not change underneath golden pins);
        # box_summary round-trips with the tail clipped to p99.
        assert dist.probs == (0.01, 0.25, 0.5, 0.75, 0.99)
        assert dist.box_summary().p999 == 9.0

    def test_from_mapping_sorts(self):
        dist = QuantileDistribution.from_mapping({0.75: 7.0, 0.25: 3.0, 0.5: 5.0})
        assert dist.probs == (0.25, 0.5, 0.75)

    def test_validation(self):
        with pytest.raises(ValueError):
            QuantileDistribution(probs=(0.5,), values=(1.0,))
        with pytest.raises(ValueError):
            QuantileDistribution(probs=(0.5, 0.4), values=(1.0, 2.0))
        with pytest.raises(ValueError):
            QuantileDistribution(probs=(0.4, 0.5), values=(2.0, 1.0))
        with pytest.raises(ValueError):
            QuantileDistribution(probs=(0.0, 0.5), values=(1.0, 2.0))
        with pytest.raises(ValueError):
            QuantileDistribution(probs=(0.4,), values=(1.0, 2.0))

    @pytest.mark.parametrize(
        "probs, values, name",
        [
            ((0.25, 0.75), (math.nan, 1.0), "values"),
            ((0.25, 0.75), (1.0, math.nan), "values"),
            ((0.25, 0.75), (1.0, math.inf), "values"),
            ((0.25, 0.75), (-math.inf, 1.0), "values"),
            ((math.nan, 0.75), (1.0, 2.0), "probabilities"),
        ],
    )
    def test_non_finite_params_rejected_by_name(self, probs, values, name):
        with pytest.raises(ValueError, match=name):
            QuantileDistribution(probs=probs, values=values)


class TestQuantiles:
    def test_interpolation(self, dist):
        assert dist.quantile(0.5) == 5.0
        assert dist.quantile(0.375) == pytest.approx(4.0)

    def test_clipping_outside_range(self, dist):
        assert dist.quantile(0.001) == 1.0
        assert dist.quantile(0.9999) == 9.0

    def test_vector_input(self, dist):
        out = dist.quantile([0.25, 0.75])
        assert out == pytest.approx([3.0, 7.0])

    def test_box_roundtrip(self, dist):
        box = dist.box_summary()
        assert box.p50 == 5.0
        assert box.p01 == 1.0
        assert box.p99 == 9.0


class TestSampling:
    def test_samples_within_support(self, dist):
        rng = np.random.default_rng(0)
        samples = dist.sample(rng, size=10_000)
        assert samples.min() >= 1.0
        assert samples.max() <= 9.0

    def test_scalar_sample(self, dist):
        rng = np.random.default_rng(0)
        value = dist.sample(rng)
        assert isinstance(value, float)

    def test_sample_median_near_declared_median(self, dist):
        rng = np.random.default_rng(1)
        samples = dist.sample(rng, size=50_000)
        assert np.median(samples) == pytest.approx(5.0, abs=0.15)

    def test_deterministic_with_seed(self, dist):
        a = dist.sample(np.random.default_rng(7), size=10)
        b = dist.sample(np.random.default_rng(7), size=10)
        assert a == pytest.approx(b)


class TestTransforms:
    def test_mean_estimate(self, dist):
        # Symmetric quantiles -> mean approx median.
        assert dist.mean_estimate() == pytest.approx(5.0, abs=0.05)

    def test_scale(self, dist):
        doubled = dist.scale(2.0)
        assert doubled.median == 10.0
        with pytest.raises(ValueError):
            dist.scale(0.0)
        with pytest.raises(ValueError, match="scale factor"):
            dist.scale(math.nan)

    @given(factor=st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=30, deadline=None)
    def test_scale_commutes_with_quantile(self, factor):
        base = QuantileDistribution(
            probs=(0.01, 0.25, 0.50, 0.75, 0.99),
            values=(1.0, 3.0, 5.0, 7.0, 9.0),
        )
        scaled = base.scale(factor)
        for p in (0.1, 0.5, 0.9):
            assert scaled.quantile(p) == pytest.approx(base.quantile(p) * factor)
