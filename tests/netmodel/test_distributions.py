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


#: Distributions for the scalar inverse CDF's bit-equality checks: the
#: fixture's, one with flat segments, one with integer knots and values
#: (from_mapping keeps them as given), a wide-range one, and one whose
#: slope overflows to inf.
_INVERSE_CDF_CASES = [
    QuantileDistribution(
        probs=(0.01, 0.25, 0.50, 0.75, 0.99), values=(1.0, 3.0, 5.0, 7.0, 9.0)
    ),
    QuantileDistribution(
        probs=(0.01, 0.2, 0.4, 0.6, 0.99), values=(0.5, 0.5, 2.0, 2.0, 2.0)
    ),
    QuantileDistribution.from_mapping({0.05: 1, 0.5: 4, 0.95: 4}),
    QuantileDistribution(
        probs=(1e-9, 0.3, 0.30000000000000004, 0.999999),
        values=(-1e300, 0.0, 1e-300, 1e300),
    ),
    QuantileDistribution(probs=(0.1, 0.9), values=(-1e308, 1e308)),
]


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.uint64)


def _interp_mismatches(dist, probabilities: np.ndarray) -> list:
    """Probabilities where the scalar quantile differs from numpy's."""
    lo, hi = dist.probs[0], dist.probs[-1]
    reference = np.interp(np.clip(probabilities, lo, hi), dist.probs, dist.values)
    scalar = [dist.quantile(p) for p in probabilities.tolist()]
    differ = _bits(scalar) != reference.view(np.uint64)
    return probabilities[differ][:10].tolist()


class TestScalarInverseCdf:
    """The pure-Python inverse CDF equals ``np.interp`` bit for bit."""

    @pytest.mark.parametrize("case", range(len(_INVERSE_CDF_CASES)))
    def test_knots_ends_and_outside(self, case):
        dist = _INVERSE_CDF_CASES[case]
        probs = np.array(dist.probs, dtype=float)
        edges = np.concatenate(
            [
                probs,
                np.nextafter(probs, 0.0),
                np.nextafter(probs, 1.0),
                [0.0, -0.0, 1.0, -3.0, 7.0, math.inf, -math.inf],
            ]
        )
        assert _interp_mismatches(dist, edges) == []

    def test_nan_maps_to_nan(self, dist):
        assert math.isnan(dist.quantile(math.nan))
        assert math.isnan(dist.quantile(np.float64("nan")))

    @pytest.mark.parametrize("case", range(len(_INVERSE_CDF_CASES)))
    def test_seeded_draws(self, case):
        dist = _INVERSE_CDF_CASES[case]
        rng = np.random.default_rng(case)
        draws = rng.uniform(dist.probs[0], dist.probs[-1], 20_000)
        assert _interp_mismatches(dist, draws) == []

    def test_scalar_sample_is_the_interp_of_the_same_uniform(self, dist):
        rng, twin = np.random.default_rng(3), np.random.default_rng(3)
        for _ in range(200):
            u = twin.uniform(dist.probs[0], dist.probs[-1])
            want = float(np.interp(u, dist.probs, dist.values))
            got = dist.sample(rng)
            assert type(got) is float and _bits(got) == _bits(want)

    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_sample_last_is_the_last_batch_draw(self, dist, k):
        rng, twin = np.random.default_rng(9), np.random.default_rng(9)
        for _ in range(50):
            got = dist.sample_last(rng, k)
            want = float(dist.sample(twin, size=k)[-1])
            assert _bits(got) == _bits(want)
        # Both generators consumed the same stream.
        assert rng.uniform() == twin.uniform()


@pytest.mark.slow
def test_million_draws_bit_equal_to_np_interp():
    rng = np.random.default_rng(20261018)
    n = 260_000
    total = 0
    for dist in _INVERSE_CDF_CASES:
        lo, hi = dist.probs[0], dist.probs[-1]
        probabilities = np.concatenate(
            [
                rng.uniform(lo, hi, n),
                # Every double in [0, 1) by bit pattern, subnormals too.
                rng.integers(0, 0x3FF0000000000000, n // 4, dtype=np.uint64).view(
                    np.float64
                ),
            ]
        )
        total += probabilities.size
        assert _interp_mismatches(dist, probabilities) == []
    assert total >= 1_000_000
