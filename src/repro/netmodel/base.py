"""The link-model interface shared by every network model.

A :class:`LinkModel` is a stateful rate limiter: at any instant it
imposes a bandwidth ceiling (:meth:`LinkModel.limit`), and its state
evolves as traffic is sent through it (:meth:`LinkModel.advance`).  The
:meth:`LinkModel.horizon` method makes fluid-flow simulation exact: it
returns how long the current ceiling is guaranteed to persist given a
constant send rate, so callers can integrate piecewise-constant rates
without fixed-step error.  Token buckets have analytic horizons (time
until the budget empties or refills); sampling-based models bound the
horizon by their next resample instant.

This design mirrors how the paper's experiments are layered: the same
shaping behaviour must drive a raw iperf-style probe (Section 3), a
``tc``-based emulated link (Figure 14), and the per-node NICs of a
Spark cluster (Section 4).

For whole-cluster simulation, N scalar models batch into a
:class:`~repro.netmodel.fleet.LinkModelFleet` (see
:mod:`repro.netmodel.fleet`).  A model declares its mutable state as
:class:`FleetSlot` attributes; when a fleet adopts the model, each
slot's value moves into one flat fleet array and the attribute reads
and writes that array cell instead of a local field.  The scalar
methods therefore run unchanged on adopted models, and they stay the
semantic reference: every fleet operation must match N scalar calls
bit for bit.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

__all__ = [
    "LinkModel",
    "ConstantRateModel",
    "FleetSlot",
    "integrate_transfer",
    "TransferResult",
]

#: Step-count bound for the generic idle-rest fallback: a model whose
#: horizon collapses (e.g. a shaper hovering at a state boundary) must
#: not turn a rest into millions of micro-steps.
_MAX_REST_STEPS = 10_000


class FleetSlot:
    """One piece of a model's state: a local field, or a fleet array cell.

    Declared on a :class:`LinkModel` subclass as
    ``_budget = FleetSlot("_budget")``.  Until a fleet adopts the model
    the value lives in the instance field ``<attribute>_local``; after
    adoption (``model._fleet`` set) it lives at
    ``fleet.<array>[model._fleet_index]``.  ``cast`` converts array
    reads back to Python scalars and is the dtype of the fleet array.
    ``fleet_write`` names a fleet method ``(index, value)`` that
    replaces the plain array store, for fleets that cache values
    derived from the slot.
    """

    def __init__(
        self, array: str, cast: type = float, fleet_write: str | None = None
    ) -> None:
        self.array = array
        self.cast = cast
        self.fleet_write = fleet_write

    def __set_name__(self, owner: type, name: str) -> None:
        self.local = f"{name}_local"

    def __get__(self, model, owner=None):
        if model is None:
            return self
        fleet = model._fleet
        if fleet is None:
            return model.__dict__[self.local]
        return self.cast(getattr(fleet, self.array)[model._fleet_index])

    def __set__(self, model, value) -> None:
        fleet = model._fleet
        if fleet is None:
            model.__dict__[self.local] = value
        elif self.fleet_write is None:
            getattr(fleet, self.array)[model._fleet_index] = value
        else:
            getattr(fleet, self.fleet_write)(model._fleet_index, value)


class LinkModel(ABC):
    """Stateful bandwidth ceiling for one direction of one link."""

    #: The fleet that adopted this model and the model's link index in
    #: it; see :class:`FleetSlot`.
    _fleet = None
    _fleet_index = -1

    @abstractmethod
    def limit(self) -> float:
        """Current instantaneous rate ceiling in Gbps."""

    @abstractmethod
    def horizon(self, send_rate_gbps: float) -> float:
        """Seconds the current ceiling is guaranteed to hold.

        Assumes traffic flows at ``send_rate_gbps`` for the whole
        interval.  Returns ``math.inf`` when the ceiling never changes
        under that load.  Implementations may return a conservative
        (smaller) value, never a larger one.
        """

    @abstractmethod
    def advance(self, dt: float, send_rate_gbps: float) -> None:
        """Account ``dt`` seconds of traffic at ``send_rate_gbps``.

        ``send_rate_gbps`` may be 0 to model idle periods (which matter:
        token buckets refill and GCE gateways de-program idle flows).
        Callers must not advance past the current horizon, or the model
        is free to mis-account the interval.
        """

    @abstractmethod
    def reset(self) -> None:
        """Restore pristine initial state (a freshly created VM pair)."""

    def rest(self, duration_s: float) -> None:
        """Idle for ``duration_s`` seconds (no traffic offered).

        Generic fallback: integrate at the model's idle horizon, with a
        step floor of ``duration_s / 10_000`` so a shaper reporting a
        vanishing horizon (a token bucket sitting at its resume
        threshold, say) is bounded to a fixed step count rather than
        busy-looping in microsecond steps.  Models with closed-form
        idle dynamics override this (:class:`TokenBucketModel` refills
        in a single analytic step).
        """
        if not duration_s >= 0.0:
            raise ValueError(f"duration must be non-negative, got {duration_s}")
        remaining = duration_s
        min_step = duration_s / _MAX_REST_STEPS
        while remaining > 1e-9:
            step = min(remaining, max(self.horizon(0.0), min_step, 1e-6))
            self.advance(step, 0.0)
            remaining -= step


class ConstantRateModel(LinkModel):
    """A fixed-capacity link: the null model / ideal datacenter."""

    def __init__(self, rate_gbps: float) -> None:
        # Written to fail on NaN, which passes ``<= 0``.
        if not 0.0 < rate_gbps < math.inf:
            raise ValueError(f"rate_gbps must be positive and finite, got {rate_gbps}")
        self._rate = float(rate_gbps)

    def limit(self) -> float:
        return self._rate

    def horizon(self, send_rate_gbps: float) -> float:
        return math.inf

    def advance(self, dt: float, send_rate_gbps: float) -> None:
        if not dt >= 0.0:
            raise ValueError(f"dt must be non-negative, got {dt}")

    def reset(self) -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ConstantRateModel({self._rate} Gbps)"


class TransferResult:
    """Outcome of integrating a transfer through a link model."""

    __slots__ = ("transferred_gbit", "duration_s")

    def __init__(self, transferred_gbit: float, duration_s: float) -> None:
        self.transferred_gbit = transferred_gbit
        self.duration_s = duration_s

    @property
    def mean_rate_gbps(self) -> float:
        """Average achieved rate over the interval."""
        if self.duration_s == 0:
            return 0.0
        return self.transferred_gbit / self.duration_s


def integrate_transfer(
    model: LinkModel,
    duration_s: float,
    offered_gbps: float,
    max_step_s: float = math.inf,
) -> TransferResult:
    """Send at ``offered_gbps`` (or the ceiling) for ``duration_s``.

    The achieved rate at each instant is ``min(offered, model.limit())``;
    integration steps at the model's horizon so piecewise-constant
    ceilings are integrated exactly.  ``max_step_s`` additionally bounds
    each step, useful when the caller wants sub-interval samples.
    """
    if duration_s < 0:
        raise ValueError(f"duration must be non-negative, got {duration_s}")
    if offered_gbps < 0:
        raise ValueError(f"offered rate must be non-negative, got {offered_gbps}")

    remaining = duration_s
    transferred = 0.0
    # Guard against pathological zero-length horizons from buggy models.
    min_step = 1e-9
    while remaining > 1e-12:
        rate = min(offered_gbps, model.limit())
        step = min(remaining, model.horizon(rate), max_step_s)
        step = max(step, min_step)
        step = min(step, remaining)
        model.advance(step, rate)
        transferred += rate * step
        remaining -= step
    return TransferResult(transferred_gbit=transferred, duration_s=duration_s)
