"""Tests for the fast figure reproductions (survey, traces, NIC, emulator)."""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.paper import (
    fig01,
    fig02,
    fig04,
    fig05,
    fig06,
    fig07,
    fig08,
    fig09,
    fig10,
    fig11,
    fig12,
    fig14,
    tables,
)


def result_digest(result) -> str:
    """sha256 over every number a figure result holds, in field order.

    Pins Figures 4-12 bit for bit: the emulated link and the token
    bucket probe that produce them must not drift under refactoring.
    """
    digest = hashlib.sha256()

    def feed(value) -> None:
        if dataclasses.is_dataclass(value):
            for f in dataclasses.fields(value):
                feed(getattr(value, f.name))
        elif isinstance(value, dict):
            for key in sorted(value):
                digest.update(str(key).encode())
                feed(value[key])
        elif isinstance(value, (list, tuple)):
            for item in value:
                feed(item)
        elif isinstance(value, str):
            digest.update(value.encode())
        else:
            digest.update(np.ascontiguousarray(value, dtype=np.float64).tobytes())

    feed(result)
    return digest.hexdigest()


class TestFig01:
    def test_headline_claims(self):
        result = fig01.reproduce()
        assert result.funnel.total == 1_867
        assert result.funnel.cloud_experiments == 44
        assert result.summary.pct_underspecified > 60.0
        assert all(k > 0.8 for k in result.summary.kappa.values())

    def test_rows_printable(self):
        result = fig01.reproduce()
        assert len(result.rows()) == 3
        # 7 ground-truth bins; reviewer error may drop one edge bin.
        assert 6 <= len(result.histogram_rows()) <= 7


class TestFig02:
    def test_eight_clouds_within_range(self):
        result = fig02.reproduce()
        assert len(result.boxes) == 8
        for box in result.boxes.values():
            assert 0.0 < box.p01
            assert box.p99 <= 1_000.0

    def test_rows_in_axis_order(self):
        rows = fig02.reproduce().rows()
        assert [r["cloud"] for r in rows] == list("ABCDEFGH")


class TestFig04:
    def test_hpccloud_range_and_variability(self):
        result = fig04.reproduce(duration_s=36_000.0)
        assert result_digest(result) == (
            "3854df9a51da13bd92c251c490bb7b1c8e39d3c7e816b0d3cae9b4d0fb8ef5ee"
        )
        row = result.rows()[0]
        assert 7.5 <= row["min_gbps"]
        assert row["max_gbps"] <= 10.6
        # High measurement-to-measurement variability (paper: up to 33%).
        assert row["max_consecutive_change_pct"] > 15.0


class TestFig05:
    def test_gce_pattern_ordering(self):
        result = fig05.reproduce(duration_s=36_000.0)
        assert result_digest(result) == (
            "f96a6dfe3a67c30830ac8630e3e75b2ba679f2438377ad8f4bf86633bfd389f2"
        )
        boxes = result.boxes
        # Full-speed: highest median, narrowest spread; 5-30: long tail.
        assert boxes["full-speed"].p50 > boxes["5-30"].p50
        assert boxes["full-speed"].whisker_span < boxes["5-30"].whisker_span
        assert boxes["5-30"].p01 < boxes["10-30"].p01

    def test_bandwidth_in_paper_range(self):
        result = fig05.reproduce(duration_s=36_000.0)
        assert 12.0 < result.boxes["full-speed"].p50 < 16.0


class TestFig06:
    def test_ec2_pattern_ordering_reversed(self):
        result = fig06.reproduce(duration_s=172_800.0)
        assert result_digest(result) == (
            "d2385dee0dd7eca73e08548c108be28406f85538d7654aabc982d712aa895e17"
        )
        assert result.mean("5-30") > result.mean("10-30") > result.mean("full-speed")

    def test_three_and_seven_x_slowdowns(self):
        result = fig06.reproduce(duration_s=172_800.0)
        slow = result.slowdowns()
        assert slow["ten_thirty_vs_full_speed"] == pytest.approx(3.0, rel=0.4)
        assert slow["five_thirty_vs_full_speed"] == pytest.approx(7.0, rel=0.4)

    def test_bandwidth_spans_one_to_ten(self):
        result = fig06.reproduce(duration_s=172_800.0)
        full = result.traces["full-speed"]
        assert full.values.min() < 1.5
        assert full.values.max() > 9.0


class TestFig07:
    def test_throttling_inflates_latency(self):
        result = fig07.reproduce(max_samples=30_000)
        assert result_digest(result) == (
            "b77c5c83877028aa954aace3ce6c608c026ae081205c5856c1088b59137155a0"
        )
        assert result.normal.rtt.median() < 0.5
        assert result.latency_inflation > 30.0

    def test_bandwidth_drops_when_throttled(self):
        result = fig07.reproduce(max_samples=10_000)
        assert result.normal.bandwidth.mean() > 9.0
        assert result.throttled.bandwidth.mean() < 1.5


class TestFig08:
    def test_gce_millisecond_scale(self):
        result = fig08.reproduce(max_samples=30_000)
        assert result_digest(result) == (
            "25ee7c54463fbfc323fec34ff26ede3fc78f2430bf53bb6182a45612276505cf"
        )
        row = result.rows()[0]
        assert 1.0 < row["rtt_median_ms"] < 4.0
        assert row["rtt_max_ms"] <= 10.0


class TestFig09:
    def test_gce_dominates_retransmissions(self):
        result = fig09.reproduce(duration_s=7_200.0)
        assert result_digest(result) == (
            "b8e012fb41dca4a31b926f167a44227b647fe1460958e494ff3b1a59082b5c96"
        )
        boxes = result.cloud_boxes
        assert boxes["google"].p50 > 1_000 * max(
            boxes["amazon"].p50, boxes["hpccloud"].p50, 1.0
        )

    def test_gce_counts_in_figure_range(self):
        # Figure 9's violin: bursts in the hundreds of thousands.
        result = fig09.reproduce(duration_s=7_200.0)
        assert 50_000 < result.cloud_boxes["google"].p50 < 500_000

    def test_violin_rows_cover_patterns(self):
        result = fig09.reproduce(duration_s=7_200.0)
        assert {r["pattern"] for r in result.violin_rows()} == {
            "full-speed", "10-30", "5-30"
        }


class TestFig10:
    def test_claims_hold_on_shortened_campaign(self):
        result = fig10.reproduce(duration_s=302_400.0)  # half week
        assert result_digest(result) == (
            "8ef12efb51f5cfc8de9d7ddd52d0b762b15592620b5c03d4c85d992d3ae15dbd"
        )
        assert result.ec2_totals_roughly_equal()
        assert result.gce_full_speed_dominates()


class TestFig11:
    def test_identification_with_few_tests(self):
        result = fig11.reproduce(tests_per_type=4)
        assert result_digest(result) == (
            "60dc2b3dd7577a94212bcef13f39810d574e7dd80b1f24822a0304b9d110a5cf"
        )
        assert result.monotone_in_size()
        assert result.incarnations_inconsistent()

    def test_c5_xlarge_empties_near_ten_minutes(self):
        result = fig11.reproduce(tests_per_type=4)
        summary = result.identifications["c5.xlarge"].summary()
        assert 300 < summary["empty_time_median_s"] < 1_200

    def test_validation(self):
        with pytest.raises(ValueError):
            fig11.reproduce(tests_per_type=1)


class TestFig12:
    def test_gce_latency_grows_ec2_flat(self):
        result = fig12.reproduce()
        assert result_digest(result) == (
            "42f7a3cf00bc0afae887f73ddcf1340f4fbd55d2bc79aeae2cd2b45d4b832288"
        )
        gce = {e.write_size_bytes: e for e in result.gce}
        ec2 = {e.write_size_bytes: e for e in result.ec2}
        assert gce[131_072].mean_rtt_ms > 2.5 * gce[9_000].mean_rtt_ms
        assert ec2[131_072].mean_rtt_ms == pytest.approx(
            ec2[9_000].mean_rtt_ms, rel=0.2
        )

    def test_gce_retransmissions_explode_beyond_9k(self):
        result = fig12.reproduce()
        gce = {e.write_size_bytes: e for e in result.gce}
        assert gce[9_000].retransmission_rate < 1e-3
        assert gce[131_072].retransmission_rate > 0.005

    def test_rows_cover_both_clouds(self):
        rows = fig12.reproduce().rows()
        assert {r["cloud"] for r in rows} == {"ec2", "gce"}


class TestFig14:
    def test_emulation_matches_reference(self):
        result = fig14.reproduce()
        assert result.emulation_is_high_quality(nrmse_bound=0.10)

    def test_burst_two_phase_shape(self):
        result = fig14.reproduce()
        panel = result.panels["10-30"]
        # Second burst: starts high (replenished budget), ends capped.
        burst = panel.reference.slice_time(40.0, 50.0)
        assert burst.values[0] > 5.0
        assert burst.values[-1] == pytest.approx(1.0, abs=0.1)


class TestTables:
    def test_table1_static(self):
        t = tables.table1()
        assert "NSDI" in t["venues"]
        assert "spark" in t["keywords"]

    def test_table2_funnel(self):
        t = tables.table2()
        assert t["articles_total"] == 1_867
        assert t["filtered_for_cloud"] == 44

    def test_table3_all_exhibit_variability(self):
        rows = tables.table3(duration_scale=1.0 / 336.0)
        assert len(rows) == 11
        assert all(row["exhibits_variability"] for row in rows)

    def test_table4_static(self):
        rows = tables.table4()
        assert len(rows) == 2
        assert all(row["nodes"] == 12 for row in rows)
