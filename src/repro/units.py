"""Unit conventions and conversions used throughout :mod:`repro`.

The library follows a single set of conventions so that model code never
has to guess what a number means:

* **time** is measured in seconds (floats),
* **data volumes** are measured in gigabits (Gbit),
* **rates** are measured in gigabits per second (Gbps).

The paper mixes Mbps (Figure 2), Gbps (Figures 4-8), terabytes
(Figure 10) and gigabit token budgets (Figures 15-19); the helpers below
convert those presentation units to and from the internal convention.
"""

from __future__ import annotations

#: Bits per byte, spelled out so data-size conversions read naturally.
BITS_PER_BYTE = 8

#: Seconds in common presentation intervals.
SECONDS_PER_MINUTE = 60.0
SECONDS_PER_HOUR = 3_600.0
SECONDS_PER_DAY = 86_400.0
SECONDS_PER_WEEK = 604_800.0

#: The paper reports bandwidth as 10-second averages throughout Section 3.
REPORT_INTERVAL_S = 10.0


def mbps_to_gbps(mbps: float) -> float:
    """Convert megabits per second to gigabits per second."""
    return mbps / 1_000.0


def gbps_to_mbps(gbps: float) -> float:
    """Convert gigabits per second to megabits per second."""
    return gbps * 1_000.0


def gbit_to_tbyte(gbit: float) -> float:
    """Convert gigabits to terabytes (Figure 10 plots traffic in TB)."""
    return gbit / BITS_PER_BYTE / 1_000.0


def gbit_to_bytes(gbit: float) -> float:
    """Convert gigabits to bytes."""
    return gbit * 1e9 / BITS_PER_BYTE


def weeks(n: float) -> float:
    """Duration of ``n`` weeks in seconds."""
    return n * SECONDS_PER_WEEK


def days(n: float) -> float:
    """Duration of ``n`` days in seconds."""
    return n * SECONDS_PER_DAY


def hours(n: float) -> float:
    """Duration of ``n`` hours in seconds."""
    return n * SECONDS_PER_HOUR


def minutes(n: float) -> float:
    """Duration of ``n`` minutes in seconds."""
    return n * SECONDS_PER_MINUTE
