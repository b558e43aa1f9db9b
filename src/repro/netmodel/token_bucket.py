"""The token-bucket traffic shaper Amazon EC2 applies per VM.

Section 3.3 reverse-engineers the mechanism: each VM starts with a
budget of tokens that may be spent at a high rate (10 Gbps on
c5.xlarge); after roughly ten minutes of continuous transfer the budget
empties and the VM is capped at a low rate (1 Gbps).  Tokens replenish
at ~1 Gbit/s, so transmitting at the capped rate keeps the bucket from
refilling — only *resting* the network refills it, taking several
minutes.  Figure 11 shows the constants scale with instance size and
are not even consistent across incarnations of the same type.

The model here is the exact fluid version of that algorithm, with an
optional hysteresis threshold: once empty, the bucket must refill past
``resume_threshold_gbit`` before the high rate resumes.  With a small
threshold and a replenish rate slightly above the capped rate, the
model oscillates between high and low rates in short bursts — the
behaviour of the straggler node in Figure 18.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.netmodel.base import FleetSlot, LinkModel

__all__ = ["TokenBucketParams", "TokenBucketModel"]

#: Budgets below this are treated as empty (1e-9 Gbit = 1 bit).
#: Without a floor, floating-point residue makes the drain asymptotic:
#: the analytic horizon shrinks toward zero without the state ever
#: flipping, stalling fluid simulations.
_EMPTY_EPS_GBIT = 1e-9


@dataclass(frozen=True)
class TokenBucketParams:
    """Constants of one token-bucket incarnation.

    All rates in Gbps, budget quantities in Gbit.
    """

    peak_gbps: float
    capped_gbps: float
    replenish_gbps: float
    capacity_gbit: float
    #: Budget the VM starts with; defaults to a full bucket ("fresh VM").
    initial_budget_gbit: float | None = None
    #: Budget that must accumulate after depletion before the peak rate
    #: resumes.  Small values produce the short high/low oscillations of
    #: Figure 18.
    resume_threshold_gbit: float = 1.0

    def __post_init__(self) -> None:
        # Comparisons written to fail on NaN, which passes ``<= 0``.
        for name in ("peak_gbps", "capped_gbps", "capacity_gbit"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.capped_gbps > self.peak_gbps:
            raise ValueError("capped rate cannot exceed peak rate")
        for name in (
            "replenish_gbps",
            "initial_budget_gbit",
            "resume_threshold_gbit",
        ):
            value = getattr(self, name)
            if value is not None and not value >= 0:
                raise ValueError(f"{name} cannot be negative or NaN, got {value}")

    @property
    def time_to_empty_s(self) -> float:
        """Seconds of full-speed transfer a fresh bucket sustains.

        This is the quantity on Figure 11's left axis: budget drains at
        ``peak - replenish`` while transmitting at the peak rate.
        """
        drain = self.peak_gbps - self.replenish_gbps
        if drain <= 0:
            return math.inf
        start = (
            self.capacity_gbit
            if self.initial_budget_gbit is None
            else self.initial_budget_gbit
        )
        return start / drain

    def with_budget(self, budget_gbit: float) -> "TokenBucketParams":
        """Copy of these parameters with a different starting budget."""
        return replace(self, initial_budget_gbit=budget_gbit)


class TokenBucketModel(LinkModel):
    """Fluid token bucket with peak/capped rates and hysteresis.

    State machine:

    * **high** — budget above zero (or above the resume threshold after
      a depletion): ceiling is ``peak_gbps``; budget drains at
      ``send_rate - replenish`` (and refills when idle).
    * **low** — budget depleted: ceiling is ``capped_gbps``; budget
      grows at ``replenish - send_rate`` and the high state resumes
      only once it exceeds ``resume_threshold_gbit``.

    When a :class:`~repro.netmodel.fleet.TokenBucketFleet` adopts the
    model, the ``budget``/``throttled`` state moves into the fleet's
    arrays (see :class:`~repro.netmodel.base.FleetSlot`), so scalar
    calls like :meth:`set_budget` stay consistent with batched fleet
    advances.
    """

    _budget = FleetSlot("_budget")
    #: Writes go through the fleet so its cached flip threshold stays
    #: coherent with the tier flag.
    _throttled = FleetSlot("_throttled", bool, fleet_write="_set_throttled")

    def __init__(self, params: TokenBucketParams) -> None:
        self.params = params
        self.reset()

    def reset(self) -> None:
        start = self.params.initial_budget_gbit
        if start is None:
            start = self.params.capacity_gbit
        self._budget = min(start, self.params.capacity_gbit)
        self._throttled = self._budget <= 0.0

    @property
    def budget_gbit(self) -> float:
        """Tokens currently in the bucket (Gbit)."""
        return self._budget

    @property
    def throttled(self) -> bool:
        """True while the VM is held at the capped rate."""
        return self._throttled

    def set_budget(self, budget_gbit: float) -> None:
        """Force the budget, as the paper does when resetting experiments.

        Figure 19's protocol resets the bucket to a chosen budget at the
        start of each repetition; this is the hook for that.
        """
        if budget_gbit < 0:
            raise ValueError("budget cannot be negative")
        self._budget = min(budget_gbit, self.params.capacity_gbit)
        if self._budget <= 0.0:
            self._throttled = True
        elif self._budget > self.params.resume_threshold_gbit:
            self._throttled = False

    def limit(self) -> float:
        if self._throttled:
            return self.params.capped_gbps
        return self.params.peak_gbps

    def _net_fill_rate(self, send_rate_gbps: float) -> float:
        """Budget change rate (Gbit/s) while sending at ``send_rate_gbps``."""
        return self.params.replenish_gbps - send_rate_gbps

    def horizon(self, send_rate_gbps: float) -> float:
        params = self.params
        fill = params.replenish_gbps - send_rate_gbps
        if self._throttled:
            # Ceiling changes when the budget climbs past the resume
            # threshold.
            if fill <= 0:
                return math.inf
            gap = params.resume_threshold_gbit - self._budget
            if gap <= _EMPTY_EPS_GBIT:
                return 0.0
            return gap / fill
        # High state: ceiling changes when the budget empties.
        if fill >= 0:
            return math.inf
        if self._budget <= _EMPTY_EPS_GBIT:
            return 0.0
        return self._budget / -fill

    def advance(self, dt: float, send_rate_gbps: float) -> None:
        if not dt >= 0.0:
            raise ValueError(f"dt must be non-negative, got {dt}")
        if not send_rate_gbps >= 0.0:
            raise ValueError(
                f"send rate must be non-negative, got {send_rate_gbps}"
            )
        params = self.params
        budget = self._budget + (params.replenish_gbps - send_rate_gbps) * dt
        if budget < 0.0:
            budget = 0.0
        elif budget > params.capacity_gbit:
            budget = params.capacity_gbit
        if budget <= _EMPTY_EPS_GBIT:
            budget = 0.0
        self._budget = budget
        if self._throttled:
            if budget >= params.resume_threshold_gbit - _EMPTY_EPS_GBIT:
                self._throttled = False
        elif budget <= 0.0:
            self._throttled = True

    def rest(self, duration_s: float) -> None:
        """Analytic idle refill: one closed-form step, no sub-stepping.

        With zero offered traffic the net fill rate is ``replenish``
        regardless of the throttled state, so :meth:`advance` is exact
        over the whole interval even when it spans the resume-threshold
        transition — the generic horizon-stepping fallback (which
        busy-loops when the reported horizon is tiny) is unnecessary.
        """
        self.advance(duration_s, 0.0)

    def time_to_full_s(self, from_budget: float | None = None) -> float:
        """Rest time needed to completely refill the bucket."""
        if self.params.replenish_gbps == 0:
            return math.inf
        budget = self._budget if from_budget is None else from_budget
        return (self.params.capacity_gbit - budget) / self.params.replenish_gbps

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "low" if self._throttled else "high"
        return (
            f"TokenBucketModel(budget={self._budget:.1f}/"
            f"{self.params.capacity_gbit:.0f} Gbit, state={state})"
        )
