"""Tests for P² streaming quantiles against numpy's exact percentile."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs.quantiles import P2Quantile, WindowedQuantiles, quantile_key


class TestQuantileKey:
    def test_column_names(self):
        assert quantile_key(0.5) == "p50"
        assert quantile_key(0.99) == "p99"
        assert quantile_key(0.999) == "p999"


class TestP2Quantile:
    def test_rejects_degenerate_quantile(self):
        with pytest.raises(ValueError):
            P2Quantile(0.0)
        with pytest.raises(ValueError):
            P2Quantile(1.0)

    def test_empty_estimator_is_nan(self):
        assert math.isnan(P2Quantile(0.5).value())

    def test_small_samples_match_numpy_exactly(self):
        # Up to five observations the estimate is the exact linear
        # interpolation numpy.percentile uses by default.
        values = [3.0, 1.0, 4.0, 1.5, 9.0]
        for n in range(1, 6):
            est = P2Quantile(0.5)
            for v in values[:n]:
                est.add(v)
            assert est.value() == pytest.approx(
                float(np.percentile(values[:n], 50.0)), abs=1e-12
            )

    def test_median_of_uniform_stream_converges(self):
        rng = np.random.default_rng(7)
        data = rng.uniform(0.0, 100.0, size=5000)
        est = P2Quantile(0.5)
        for v in data:
            est.add(v)
        assert est.value() == pytest.approx(
            float(np.percentile(data, 50.0)), abs=2.0
        )

    def test_tail_quantile_of_heavy_tailed_stream(self):
        rng = np.random.default_rng(11)
        data = rng.lognormal(mean=1.0, sigma=1.0, size=20000)
        est = P2Quantile(0.99)
        for v in data:
            est.add(v)
        exact = float(np.percentile(data, 99.0))
        assert est.value() == pytest.approx(exact, rel=0.1)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n=st.integers(min_value=200, max_value=2000),
        p=st.sampled_from([0.25, 0.5, 0.9, 0.99]),
    )
    # Missed a fixed 0.05 tolerance by 0.0011 (2.4 standard errors).
    @example(seed=2405186, n=200, p=0.9)
    def test_estimate_tracks_numpy_for_iid_streams(self, seed, n, p):
        # The P² estimate of an iid uniform stream must sit close to the
        # exact empirical quantile, within a multiple of the sample
        # quantile's standard error sqrt(p(1-p)/n) (the density of
        # U(0,1) is 1), so the bound tightens as n grows.  Over sweeps
        # of 1500 to 20000 seeds per (n, p), n from 200 to 2000, the
        # error stayed under 3.5 standard errors for p <= 0.9 and under
        # 6 at p = 0.99, where the markers are thin.
        rng = np.random.default_rng(seed)
        data = rng.uniform(0.0, 1.0, size=n)
        est = P2Quantile(p)
        for v in data:
            est.add(v)
        exact = float(np.percentile(data, p * 100.0))
        tolerance = (5.0 if p <= 0.9 else 10.0) * math.sqrt(p * (1.0 - p) / n)
        assert abs(est.value() - exact) <= tolerance
        # The estimate is always inside the observed range.
        assert data.min() <= est.value() <= data.max()

    def test_count_tracks_observations(self):
        est = P2Quantile(0.5)
        for v in range(17):
            est.add(float(v))
        assert est.count == 17


class TestWindowedQuantiles:
    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            WindowedQuantiles(0.0)

    def test_observations_bucket_into_tumbling_windows(self):
        wq = WindowedQuantiles(10.0, quantiles=(0.5,))
        for t, v in [(0.0, 1.0), (5.0, 3.0), (10.0, 100.0), (19.9, 200.0)]:
            wq.add(t, v)
        rows = wq.rows()
        assert [row["window_start"] for row in rows] == [0.0, 10.0]
        assert rows[0]["count"] == 2.0
        assert rows[0]["p50"] == pytest.approx(2.0)
        assert rows[1]["p50"] == pytest.approx(150.0)
        assert wq.count == 4

    def test_summary_covers_the_whole_stream(self):
        wq = WindowedQuantiles(1.0)
        data = np.arange(1.0, 101.0)
        for i, v in enumerate(data):
            wq.add(float(i) * 0.5, float(v))
        summary = wq.summary()
        assert set(summary) == {"p50", "p99", "p999"}
        assert summary["p50"] == pytest.approx(
            float(np.percentile(data, 50.0)), abs=3.0
        )

    def test_empty_stream_has_no_rows_and_nan_summary(self):
        wq = WindowedQuantiles(10.0)
        assert wq.rows() == []
        assert all(math.isnan(v) for v in wq.summary().values())
