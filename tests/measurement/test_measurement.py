"""Tests for probes, capture, campaigns, and fingerprinting."""

import math

import numpy as np
import pytest

from repro.cloud import Ec2Provider, GceProvider, HpcCloudProvider
from repro.emulator import FIVE_THIRTY, FULL_SPEED
from repro.measurement import (
    BandwidthProbe,
    CampaignConfig,
    LatencyProbe,
    RetransmissionModel,
    fingerprint_link,
    identify_token_bucket,
    run_campaign,
    segments_for_gbit,
    table3_campaigns,
)
from repro.netmodel import (
    ConstantRateModel,
    Ec2LatencyModel,
    TokenBucketModel,
    TokenBucketParams,
)

PARAMS = TokenBucketParams(
    peak_gbps=10.0, capped_gbps=1.0, replenish_gbps=0.95, capacity_gbit=5_400.0
)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestCapture:
    def test_segment_count(self):
        # 1 Gbit = 125 MB -> ~86k segments of 1448 bytes.
        assert segments_for_gbit(1.0) == pytest.approx(86_326, rel=0.01)

    def test_zero_volume(self):
        assert segments_for_gbit(0.0) == 0

    def test_negative_volume_rejected(self):
        with pytest.raises(ValueError):
            segments_for_gbit(-1.0)

    def test_expected_count_scales_with_rate(self):
        low = RetransmissionModel(rate=1e-6).expected_count(100.0)
        high = RetransmissionModel(rate=0.02).expected_count(100.0)
        assert high > 1_000 * low

    def test_gce_magnitude_matches_figure9(self, rng):
        # 10 s at ~15 Gbps with ~2% loss -> hundreds of thousands of
        # retransmissions per window (Figure 9's violin).
        model = RetransmissionModel(rate=0.02)
        count = model.sample_count(150.0, rng)
        assert 150_000 < count < 350_000

    def test_dispersion_widens_distribution(self, rng):
        tight = RetransmissionModel(rate=0.02)
        wide = RetransmissionModel(rate=0.02, dispersion=5.0)
        tight_counts = [tight.sample_count(150.0, rng) for _ in range(200)]
        wide_counts = [wide.sample_count(150.0, rng) for _ in range(200)]
        assert np.std(wide_counts) > 3 * np.std(tight_counts)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetransmissionModel(rate=1.5)
        with pytest.raises(ValueError):
            RetransmissionModel(rate=0.5, dispersion=0.5)


class TestBandwidthProbe:
    def test_trace_shape(self, rng):
        probe = BandwidthProbe(ConstantRateModel(5.0), FULL_SPEED)
        trace = probe.run(100.0, rng=rng)
        assert len(trace) == 10
        assert trace.values == pytest.approx(np.full(10, 5.0))

    def test_retransmissions_attached(self, rng):
        probe = BandwidthProbe(
            ConstantRateModel(10.0),
            FULL_SPEED,
            retransmissions=RetransmissionModel(rate=0.02),
        )
        trace = probe.run(100.0, rng=rng)
        assert trace.total_retransmissions() > 0

    def test_label(self, rng):
        probe = BandwidthProbe(ConstantRateModel(1.0), FIVE_THIRTY)
        trace = probe.run(70.0, rng=rng, label="custom")
        assert trace.label == "custom"


class TestLatencyProbe:
    def test_packet_count_scales_with_bandwidth(self):
        probe = LatencyProbe(Ec2LatencyModel(), packet_bytes=9_000)
        low = probe.packets_for_stream(1.0)
        high = probe.packets_for_stream(10.0)
        assert high == pytest.approx(10 * low, rel=0.01)

    def test_max_samples_cap(self, rng):
        probe = LatencyProbe(Ec2LatencyModel(), max_samples=1_000)
        trace = probe.run(10.0, rng=rng)
        assert len(trace) == 1_000

    def test_zero_bandwidth_empty_trace(self, rng):
        probe = LatencyProbe(Ec2LatencyModel())
        trace = probe.run(0.0, rng=rng)
        assert len(trace) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            LatencyProbe(Ec2LatencyModel(), packet_bytes=0)
        with pytest.raises(ValueError):
            LatencyProbe(Ec2LatencyModel(), max_samples=0)


class TestCampaigns:
    def test_table3_has_eleven_rows(self):
        assert len(table3_campaigns()) == 11

    def test_scaled_durations_floor_at_one_hour(self):
        configs = table3_campaigns(duration_scale=1e-6)
        assert all(c.duration_s == 3_600.0 for c in configs)

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            table3_campaigns(duration_scale=0.0)

    def test_run_campaign_produces_all_patterns(self):
        config = CampaignConfig(
            provider_name="hpccloud",
            instance_name="hpccloud-8core",
            duration_s=3_600.0,
        )
        result = run_campaign(config)
        assert set(result.traces) == {"full-speed", "10-30", "5-30"}
        assert result.exhibits_variability

    def test_summary_row_fields(self):
        config = CampaignConfig(
            provider_name="google", instance_name="gce-8core", duration_s=3_600.0
        )
        row = run_campaign(config).summary_row()
        assert row["cloud"] == "google"
        assert row["qos_gbps"] == "16"
        assert row["exhibits_variability"] is True

    def test_amazon_campaign_shows_throttling(self):
        config = CampaignConfig(
            provider_name="amazon", instance_name="c5.xlarge", duration_s=3_600.0
        )
        result = run_campaign(config)
        full = result.trace("full-speed")
        assert full.values.max() > 9.0
        assert full.values.min() < 1.5


class TestFingerprinting:
    def test_identify_token_bucket_on_ec2_model(self):
        model = TokenBucketModel(PARAMS)
        estimate = identify_token_bucket(model)
        assert estimate.detected
        assert estimate.time_to_empty_s == pytest.approx(600.0, rel=0.1)
        assert estimate.high_gbps == pytest.approx(10.0, rel=0.05)
        assert estimate.low_gbps == pytest.approx(1.0, rel=0.1)
        assert estimate.replenish_gbps == pytest.approx(0.95, rel=0.3)

    def test_time_to_empty_is_seconds_at_any_probe_interval(self, rng):
        provider = Ec2Provider()
        params = provider.sample_bucket_params("c5.xlarge", rng)
        for interval in (0.5, 1.0, 2.0):
            estimate = identify_token_bucket(
                TokenBucketModel(params), probe_interval_s=interval
            )
            assert estimate.time_to_empty_s == pytest.approx(
                params.time_to_empty_s, rel=1e-9
            )

    @pytest.mark.parametrize("interval", [0.0, -1.0, math.nan])
    def test_probe_interval_validation(self, interval):
        with pytest.raises(ValueError, match="probe interval"):
            identify_token_bucket(
                TokenBucketModel(PARAMS), probe_interval_s=interval
            )

    @pytest.mark.parametrize("duration", [0.0, -1.0, math.inf, math.nan])
    def test_max_duration_validation(self, duration):
        with pytest.raises(ValueError, match="max duration"):
            identify_token_bucket(
                TokenBucketModel(PARAMS), max_duration_s=duration
            )

    @pytest.mark.parametrize("rest_s", [-1.0, math.inf, math.nan])
    def test_rest_probe_validation(self, rest_s):
        with pytest.raises(ValueError, match="rest probe"):
            identify_token_bucket(TokenBucketModel(PARAMS), rest_probe_s=rest_s)

    @pytest.mark.parametrize("probe_s", [0.0, -1.0, math.nan])
    def test_base_probe_validation(self, probe_s):
        provider = Ec2Provider()
        with pytest.raises(ValueError, match="base probe"):
            fingerprint_link(
                TokenBucketModel(PARAMS), provider.latency_model(), base_probe_s=probe_s
            )

    def test_budget_estimate(self):
        model = TokenBucketModel(PARAMS)
        estimate = identify_token_bucket(model)
        assert estimate.budget_gbit == pytest.approx(5_400.0, rel=0.2)

    def test_no_bucket_detected_on_constant_link(self):
        estimate = identify_token_bucket(
            ConstantRateModel(8.0), max_duration_s=300.0
        )
        assert not estimate.detected
        assert math.isinf(estimate.time_to_empty_s)

    def test_no_bucket_on_gce_model(self, rng):
        model = GceProvider().link_model("gce-4core", rng)
        estimate = identify_token_bucket(model, max_duration_s=900.0)
        assert not estimate.detected

    def test_fingerprint_bundle(self, rng):
        provider = Ec2Provider()
        model = provider.link_model("c5.xlarge", rng)
        fp = fingerprint_link(model, provider.latency_model(), rng=rng)
        assert fp.base_bandwidth_gbps == pytest.approx(10.0, rel=0.05)
        assert fp.base_latency_ms < 1.0
        assert fp.token_bucket.detected

    def test_fingerprint_matching(self, rng):
        provider = Ec2Provider()
        fp1 = fingerprint_link(
            provider.link_model("c5.xlarge", rng), provider.latency_model(), rng=rng
        )
        fp2 = fingerprint_link(
            provider.link_model("c5.xlarge", rng), provider.latency_model(), rng=rng
        )
        assert fp1.matches(fp2, tolerance=0.5)

    def test_fingerprint_mismatch_across_eras(self, rng):
        # The August 2019 policy change: 5 Gbps NICs break baselines.
        pre = Ec2Provider(era="pre-2019-08")
        post = Ec2Provider(era="post-2019-08", five_gbps_fraction=1.0)
        fp_pre = fingerprint_link(
            pre.link_model("c5.xlarge", rng), pre.latency_model(), rng=rng
        )
        fp_post = fingerprint_link(
            post.link_model("c5.xlarge", rng), post.latency_model(), rng=rng
        )
        assert not fp_pre.matches(fp_post, tolerance=0.10)

    def test_hpccloud_no_bucket_fingerprint(self, rng):
        provider = HpcCloudProvider()
        model = provider.link_model("hpccloud-8core", rng)
        fp = fingerprint_link(model, provider.latency_model(), rng=rng)
        assert not fp.token_bucket.detected
        assert 7.0 < fp.base_bandwidth_gbps < 11.0
