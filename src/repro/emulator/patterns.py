"""Transfer patterns: how big-data workloads access the network.

Section 3.1 measures three regimes because big-data workloads have
different network access patterns:

* ``full-speed`` — continuous transfer: long-running batch processing
  or streaming;
* ``10-30`` — transfer 10 s, rest 30 s: longer analytics queries;
* ``5-30`` — transfer 5 s, rest 30 s: short-lived analytics queries
  (TPC-H / TPC-DS style).

The choice matters enormously: GCE rewards long streams while EC2's
token bucket punishes them (Figures 5 and 6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

__all__ = [
    "TrafficPattern",
    "FULL_SPEED",
    "TEN_THIRTY",
    "FIVE_THIRTY",
    "pattern_by_name",
]


@dataclass(frozen=True)
class TrafficPattern:
    """A periodic transmit/rest duty cycle."""

    name: str
    transmit_s: float
    rest_s: float

    def __post_init__(self) -> None:
        if self.transmit_s <= 0:
            raise ValueError("transmit duration must be positive")
        if self.rest_s < 0:
            raise ValueError("rest duration cannot be negative")

    @property
    def is_continuous(self) -> bool:
        """True for patterns with no rest phase."""
        return self.rest_s == 0 or math.isinf(self.transmit_s)

    @property
    def period_s(self) -> float:
        """Length of one transmit+rest cycle."""
        return self.transmit_s + self.rest_s

    @property
    def duty_cycle(self) -> float:
        """Fraction of wall-clock time spent transmitting."""
        if self.is_continuous:
            return 1.0
        return self.transmit_s / self.period_s

    def phases(self, duration_s: float) -> Iterator[tuple[bool, float]]:
        """Yield ``(is_transmitting, phase_duration)`` covering ``duration_s``.

        The pattern always starts with a transmit phase, as the paper's
        scripts did; the final phase is truncated at the horizon.
        """
        # Written to fail on NaN, which passes ``< 0``.
        if not duration_s >= 0:
            raise ValueError(f"duration must be non-negative, got {duration_s}")
        remaining = duration_s
        if self.is_continuous:
            if remaining > 0:
                yield True, remaining
            return
        transmitting = True
        while remaining > 1e-12:
            phase = self.transmit_s if transmitting else self.rest_s
            phase = min(phase, remaining)
            if phase > 0:
                yield transmitting, phase
            remaining -= phase
            transmitting = not transmitting

    def bursts_in(self, duration_s: float) -> int:
        """Number of (possibly truncated) transmit bursts within a window."""
        if self.is_continuous:
            return 1 if duration_s > 0 else 0
        return int(math.ceil(duration_s / self.period_s))


FULL_SPEED = TrafficPattern(name="full-speed", transmit_s=math.inf, rest_s=0.0)
TEN_THIRTY = TrafficPattern(name="10-30", transmit_s=10.0, rest_s=30.0)
FIVE_THIRTY = TrafficPattern(name="5-30", transmit_s=5.0, rest_s=30.0)

_PATTERNS = {p.name: p for p in (FULL_SPEED, TEN_THIRTY, FIVE_THIRTY)}


def pattern_by_name(name: str) -> TrafficPattern:
    """Look up one of the paper's three patterns by its label."""
    try:
        return _PATTERNS[name]
    except KeyError:
        raise KeyError(
            f"unknown pattern {name!r}; expected one of {sorted(_PATTERNS)}"
        ) from None
