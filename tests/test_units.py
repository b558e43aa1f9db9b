"""Unit-conversion tests."""

import pytest

from repro import units


def test_mbps_gbps_roundtrip():
    assert units.mbps_to_gbps(1000.0) == 1.0
    assert units.gbps_to_mbps(1.0) == 1000.0
    assert units.gbps_to_mbps(units.mbps_to_gbps(123.4)) == pytest.approx(123.4)


def test_gbit_byte_conversions():
    assert units.gbit_to_tbyte(8000.0) == 1.0


def test_small_size_conversions():
    assert units.gbit_to_bytes(1.0) == pytest.approx(1.25e8)


def test_time_conversions():
    assert units.weeks(1) == 604_800.0
    assert units.days(2) == 172_800.0
    assert units.hours(3) == 10_800.0
    assert units.minutes(10) == 600.0


def test_week_is_seven_days():
    assert units.weeks(1) == units.days(7)
    assert units.days(1) == units.hours(24)
