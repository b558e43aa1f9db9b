"""CPU token buckets: burstable-instance compute shaping.

Section 4.2 closes with a warning: "Others have shown that cloud
providers use token buckets for other resources such as CPU scheduling
[Wang et al.].  This affects cloud-based experimentation, as the state
of these token buckets is not directly visible to users."

This module models that mechanism — the credit system of AWS t2/t3
burstable instances: a VM accrues CPU credits while idle (or below its
baseline share) and spends them to run at full speed; with credits
exhausted it is capped at the baseline fraction.  The semantics mirror
the network bucket with rates measured in *fractions of a core*:

* full speed = 1.0 (the whole core),
* baseline = e.g. 0.2 for a t2.medium-class instance,
* credits accrue at the baseline rate and burn at (usage - baseline).

:class:`CpuTokenBucket` exposes a ``speed_factor`` suitable for the
cluster engine's per-node compute scaling, and the same
``horizon``/``advance`` fluid interface as the link models so
experiment runners can account hidden CPU state exactly like hidden
network state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.netmodel.base import drive

__all__ = ["CpuBucketParams", "CpuTokenBucket"]


@dataclass(frozen=True)
class CpuBucketParams:
    """Constants of one burstable-CPU credit system.

    Credits are measured in core-seconds; rates in cores.
    """

    #: Sustainable share of the core without spending credits.
    baseline_fraction: float
    #: Credit balance of a fresh instance, core-seconds.
    initial_credits: float
    #: Maximum accruable balance, core-seconds.
    max_credits: float

    def __post_init__(self) -> None:
        # Written to fail on NaN, which passes ``< 0`` and ``<= 0``.
        if not 0.0 < self.baseline_fraction <= 1.0:
            raise ValueError("baseline must be a fraction of a core in (0, 1]")
        if not self.initial_credits >= 0:
            raise ValueError(f"initial credits must be >= 0: {self.initial_credits}")
        if not self.max_credits > 0:
            raise ValueError(f"max credits must be positive, got {self.max_credits}")
        if self.initial_credits > self.max_credits:
            raise ValueError("initial credits cannot exceed the maximum")

    @property
    def burst_seconds(self) -> float:
        """Full-speed runtime a fresh instance sustains.

        Credits burn at ``1 - baseline`` while running flat out.
        """
        burn = 1.0 - self.baseline_fraction
        if burn <= 0:
            return math.inf
        return self.initial_credits / burn


#: A t2/t3.medium-class profile: 20 % baseline, ~30 minutes of burst.
T2_MEDIUM_LIKE = CpuBucketParams(
    baseline_fraction=0.2,
    initial_credits=360.0,
    max_credits=1_728.0,
)


class CpuTokenBucket:
    """Fluid CPU credit bucket with the link-model step interface."""

    def __init__(self, params: CpuBucketParams) -> None:
        self.params = params
        self._credits = params.initial_credits
        self._throttled = self._credits <= 0.0

    def reset(self) -> None:
        """Restore the fresh-instance credit balance."""
        self._credits = self.params.initial_credits
        self._throttled = self._credits <= 0.0

    @property
    def credits(self) -> float:
        """Current balance in core-seconds."""
        return self._credits

    @property
    def throttled(self) -> bool:
        """True while capped at the baseline share."""
        return self._throttled

    def speed_factor(self) -> float:
        """Current compute speed as a fraction of full speed.

        Multiply task durations by ``1 / speed_factor()`` — the knob
        the cluster engine's per-node compute scaling consumes.
        """
        return self.params.baseline_fraction if self._throttled else 1.0

    #: The ceiling :func:`~repro.netmodel.base.drive` sends under.
    limit = speed_factor

    def _net_accrual(self, usage_fraction: float) -> float:
        return self.params.baseline_fraction - usage_fraction

    def horizon(self, usage_fraction: float) -> float:
        """Seconds the current speed factor is guaranteed to persist."""
        if not 0.0 <= usage_fraction <= 1.0:
            raise ValueError("usage must be a fraction of a core")
        net = self._net_accrual(usage_fraction)
        if self._throttled:
            # Unthrottles only if usage sits below baseline (accrual).
            if net <= 0:
                return math.inf
            return max(1.0 - self._credits, 0.0) / net
        if net >= 0:
            return math.inf
        if self._credits <= 1e-9:
            return 0.0
        return self._credits / -net

    def advance(self, dt: float, usage_fraction: float) -> None:
        """Account ``dt`` seconds of CPU usage at ``usage_fraction``."""
        if not dt >= 0:
            raise ValueError(f"dt must be non-negative, got {dt}")
        if not 0.0 <= usage_fraction <= 1.0:
            raise ValueError("usage must be a fraction of a core")
        net = self._net_accrual(usage_fraction)
        self._credits = min(
            max(self._credits + net * dt, 0.0), self.params.max_credits
        )
        if self._credits <= 1e-9:
            self._credits = max(self._credits, 0.0)
            self._throttled = True
        elif self._throttled and self._credits >= 1.0:
            self._throttled = False

    def run_at_full_speed(self, work_core_s: float) -> float:
        """Wall-clock time to complete ``work_core_s`` of computation.

        Closed-form fluid solution: burst through the credit balance at
        full speed, then crawl at the baseline — exactly how a
        credit-exhausted analytics node behaves.
        """
        if not 0 <= work_core_s < math.inf:
            raise ValueError(f"work must be non-negative and finite, got {work_core_s}")
        remaining = work_core_s
        elapsed = 0.0
        # Offered load is the whole core; each step is capped at the
        # wall time that finishes the remaining work at the current speed.
        segments = drive(self, math.inf, 1.0, 1e-9, remaining / self.limit())
        steps = 0
        while remaining > 1e-12:
            if steps == 10_000:
                raise RuntimeError(
                    f"CPU bucket failed to converge in {steps} steps: "
                    f"{remaining} core-s of work left, {self._credits} credits, "
                    f"speed factor {self.speed_factor()}"
                )
            step, speed = next(segments)
            steps += 1
            remaining -= speed * step
            elapsed += step
            segments.send(remaining / self.limit())
        return elapsed
