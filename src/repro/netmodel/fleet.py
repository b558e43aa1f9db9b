"""Shaper fleets: batched limit/horizon/advance across a set of links.

A fluid-fabric step must ask *every* node's egress shaper for its
ceiling, its horizon under the node's aggregate send rate, and then
advance it — per step.  With scalar :class:`~repro.netmodel.base.LinkModel`
objects that is a Python-level loop of N method calls per step.  A
:class:`LinkModelFleet` replaces the loop with struct-of-arrays state
and single numpy expressions.

Each fleet has one step method, :meth:`LinkModelFleet.advance`.  Its
``dt`` is either one float (a fabric step) or one value per link (a
concatenated super-fleet stepping many independent cells at once, see
:func:`concat_fleets`); numpy broadcasting makes both forms the same
elementwise arithmetic.

Fleets *adopt* the scalar models they are built from
(:meth:`LinkModelFleet._adopt`): every
:class:`~repro.netmodel.base.FleetSlot` of the model (token budgets,
resample clocks) moves into a flat fleet array and the attribute reads
and writes through to it, so existing code that pokes an individual
model (``set_budget``, ``reset``, telemetry reads) stays correct with
zero synchronization logic.  Every batched operation performs the
exact same floating-point operations, in the same order, as N scalar
calls would, which is what lets the golden-trace test pin fleet and
scalar outputs bit-for-bit against each other.

Five implementations:

* :class:`TokenBucketFleet` — flat budget/capacity/fill/tier arrays,
  vectorized net-fill accounting and an analytic batched idle
  ``rest`` (all Amazon-style shapers);
* :class:`ConstantRateFleet` — stateless fixed capacities;
* :class:`ResamplingFleet` — vectorizes the interval clockwork of
  :class:`~repro.netmodel.stochastic.UniformQuantileSamplingModel` /
  :class:`~repro.netmodel.stochastic.Ar1QuantileModel` while keeping
  each node's per-seed RNG draw sequence bit-exact (draws batch into
  one RNG call per node via ``_draw_batch``);
* :class:`PerCoreQosFleet` — vectorizes the stream-age/idle-gap/
  interval clockwork of
  :class:`~repro.netmodel.percore.PerCoreQosModel` (the GCE model)
  with the same per-link RNG guarantees, batching warm/cold
  efficiency redraws at interval crossings;
* :class:`ScalarFleetAdapter` — wraps heterogeneous or unknown scalar
  models in the reference per-model loop, so every fabric holds *some*
  fleet and the old ``Fabric(egress_models=...)`` constructor keeps
  working unchanged.

:func:`build_fleet` picks the best implementation for a model list.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from itertools import repeat
from typing import Sequence

import numpy as np

from repro.netmodel.base import (
    _MAX_REST_STEPS,
    ConstantRateModel,
    FleetSlot,
    LinkModel,
)
from repro.netmodel.percore import PerCoreQosModel
from repro.netmodel.stochastic import (
    Ar1QuantileModel,
    UniformQuantileSamplingModel,
)
from repro.netmodel.token_bucket import TokenBucketModel, _EMPTY_EPS_GBIT

__all__ = [
    "LinkModelFleet",
    "TokenBucketFleet",
    "ConstantRateFleet",
    "ResamplingFleet",
    "PerCoreQosFleet",
    "ScalarFleetAdapter",
    "build_fleet",
    "concat_fleets",
    "decay_floor",
]


# Hot-path emptiness tests on per-link masks are written
# ``np.count_nonzero(mask)``, not ``mask.any()`` or ``mask.all()``: those
# dispatch through numpy's ``_methods._any``/``_all`` (a ufunc reduce)
# and cost 3-4x more on the few-link masks of a fabric step.


def _check_dt(dt: float | np.ndarray) -> None:
    """Reject a negative or NaN ``dt`` (one float or one per link).

    The float form stays a plain Python comparison: the serial step
    pays no numpy dispatch for it.  NaN fails ``>= 0.0``, so it is never
    counted.
    """
    if isinstance(dt, np.ndarray):
        ok = np.count_nonzero(dt >= 0.0) == dt.size
    else:
        ok = dt >= 0.0
    if not ok:
        raise ValueError(f"dt must be non-negative, got {dt}")


def _check_duration(duration_s: float) -> None:
    if not duration_s >= 0.0:
        raise ValueError(f"duration must be non-negative, got {duration_s}")


def _wrap_interval(elapsed: float, interval: float) -> tuple[float, int]:
    """Subtract whole resample intervals from ``elapsed``.

    Returns the residue and the number of boundaries crossed.  This is
    the scalar models' repeated-subtraction loop, so the residue
    carries the same float error (a division would not).
    """
    threshold = interval - 1e-12
    crossings = 0
    while elapsed >= threshold:
        elapsed -= interval
        crossings += 1
    return elapsed, crossings


def decay_floor(floor: float, dt: float) -> float:
    """A :meth:`LinkModelFleet.horizon_floor` carried across ``dt`` seconds.

    After an ``advance(dt, rates)`` that changed no ceiling, with every
    rate in ``[0, limits]``, a fleet's fresh floor is at least this
    value.  So a caller may keep one floor across many steps and
    decay it here instead of asking the fleet again.  The floor shifts
    down by ``dt`` and pays three margins against the float residue of
    the fleet's own state update.  The relative term covers residue on
    the floor's own scale, such as a token budget over its drain rate.
    The ``dt`` term covers the residue of the step itself.  The
    absolute 1e-12 s covers clock subtractions ``interval - elapsed``,
    whose residue is on the interval's scale, not the floor's (one ulp
    of an interval under an hour is below 1e-12 s).  A negative result
    proves nothing, which is harmless: horizons are never negative.
    """
    return (floor - dt) * (1.0 - 1e-12) - dt * 1e-12 - 1e-12


class LinkModelFleet(ABC):
    """Batched :class:`~repro.netmodel.base.LinkModel` over N links.

    The per-link scalar contract carries over elementwise: ``limits()``
    is N ``limit()`` calls, ``horizons(rates)`` is N ``horizon(rate)``
    calls, and so on — implementations must produce bit-identical
    values (callers rely on this to swap fleets for scalar loops under
    golden-trace pins).  ``models`` exposes the adopted scalar handles;
    reading or mutating one of them observes/updates fleet state
    directly.

    :meth:`horizon_floor` adds one fleet-level promise with no scalar
    counterpart.  It returns a number ``f >= 0`` such that:

    * ``f <= min(horizons(rates))`` for every ``rates`` with each entry
      in ``[0, limits()]`` (a sum of max-min shares may exceed its
      ceiling by a few ulps, and the floor allows for that too);
    * after ``advance(dt, rates)`` with such rates that returns
      ``None``, the fresh floor is at least ``decay_floor(f, dt)``.

    A fabric caches the floor, decays it step by step, and skips the
    ``horizons`` call whenever the floor lies beyond its next flow
    completion (see :meth:`~repro.simulator.fabric.Fabric.horizon`).
    Any state change outside :meth:`advance` (``rest``, ``reset``, a
    write through a model handle) voids a cached floor; the fabric's
    owner then calls ``invalidate_rates``.
    """

    #: Adopted scalar handles, in node order.
    models: list[LinkModel]

    #: Optional observability callback, ``hook(changed_indices,
    #: limits)``, invoked from :meth:`advance` when any link's ceiling
    #: actually changed — ``changed_indices`` is the sorted int array
    #: ``np.flatnonzero(mask)`` of the returned mask and ``limits``
    #: the fresh post-step ceilings.
    #: Class-level None: attaching a recorder costs nothing until a
    #: transition occurs, and the unhooked path stays allocation-free.
    transition_hook = None

    @property
    def n(self) -> int:
        """Number of links in the fleet."""
        return len(self.models)

    @abstractmethod
    def limits(self) -> np.ndarray:
        """Per-link rate ceilings (fresh array; callers may mutate)."""

    def limit_at(self, index: int) -> float:
        """One link's current rate ceiling, exactly ``limits()[index]``.

        The list-based water-fill reads single ceilings when only a few
        nodes send; subclasses override this with a scalar state read
        so that path skips materializing the whole fleet's limit array.
        """
        return float(self.limits()[index])

    @abstractmethod
    def horizons(self, send_rates: np.ndarray) -> np.ndarray:
        """Per-link ceiling-persistence bounds under ``send_rates``.

        The returned array may be an internal scratch buffer: read it
        before the next fleet call, and do not mutate it.
        """

    def horizon_floor(self) -> float:
        """A send-rate-independent lower bound on every link's horizon.

        See the class docstring for the contract.  The default, 0.0,
        is the trivial floor: it proves nothing, so a fabric over this
        fleet asks :meth:`horizons` on every step.
        """
        return 0.0

    @abstractmethod
    def advance(
        self, dt: float | np.ndarray, send_rates: np.ndarray
    ) -> np.ndarray | None:
        """Account ``dt`` seconds of per-link traffic.

        ``dt`` is one float, or one step length per link so that
        independent cells sharing a concatenated super-fleet (see
        :func:`concat_fleets`) each take their own event step in one
        call.  Every operation is elementwise in ``dt``, so link ``i``
        sees bit-identical arithmetic either way.  A negative or NaN
        ``dt`` raises ValueError.

        Returns ``None`` when no link's ceiling changed, else a per-link
        boolean mask of the links whose ceiling changed — the signal
        :meth:`~repro.simulator.fabric.Fabric.advance` uses to
        invalidate its rate assignment.  The mask may be an internal
        scratch buffer: consume it before the next fleet call.  The
        :attr:`transition_hook`, when set, fires with the mask's
        indices before the return.
        """

    def rest(self, duration_s: float) -> None:
        """Idle every link for ``duration_s`` (buckets refill).

        Default: each model's own scalar ``rest`` (draws still come
        from each model's own generator, through its fleet slots).
        """
        _check_duration(duration_s)
        for model in self.models:
            model.rest(duration_s)

    def reset(self) -> None:
        """Restore every link's pristine initial state."""
        for model in self.models:
            model.reset()

    def budgets(self) -> np.ndarray | None:
        """Per-link token budgets (Gbit), or None when not exposed.

        Returned array may be an internal view — treat as read-only.
        """
        return None

    def _alloc_scratch(self, n: int) -> None:
        """Allocate per-fleet scratch buffers for ``n`` links.

        Scratch is never shared: :func:`concat_fleets` calls this on
        the super-fleet so it gets buffers sized to its own link count.
        """

    def _adopt(self, models: Sequence[LinkModel], kinds: tuple[type, ...]) -> None:
        """Take over ``models``: the one adoption protocol of every fleet.

        Checks each model is exactly one of ``kinds`` and not adopted
        elsewhere, copies each :class:`~repro.netmodel.base.FleetSlot`
        of ``kinds[0]`` (the kinds share their slots) into a fleet
        array of the slot's name, then points every model at this
        fleet so its slots read and write those arrays.
        """
        models = list(models)
        for model in models:
            if type(model) not in kinds:
                raise TypeError(f"{type(self).__name__} cannot adopt {model!r}")
            if model._fleet is not None:
                raise ValueError("model already adopted by another fleet")
        self.models = models
        for klass in kinds[0].__mro__:
            for slot in vars(klass).values():
                if isinstance(slot, FleetSlot):
                    values = [slot.__get__(model) for model in models]
                    setattr(self, slot.array, np.array(values, dtype=slot.cast))
        for index, model in enumerate(models):
            model._fleet = self
            model._fleet_index = index

    def _report(self, mask: np.ndarray) -> np.ndarray:
        """Fire the transition hook for ``mask``'s links; return ``mask``."""
        hook = self.transition_hook
        if hook is not None:
            hook(np.flatnonzero(mask), self.limits())
        return mask

    def _report_indices(self, changed: list[int]) -> np.ndarray | None:
        """:meth:`_report` for a list of changed link indices."""
        if not changed:
            return None
        mask = np.zeros(self.n, dtype=bool)
        mask[changed] = True
        return self._report(mask)


class ScalarFleetAdapter(LinkModelFleet):
    """Reference fleet: per-model Python loops over arbitrary models.

    This is the compatibility (and correctness-reference) path: any mix
    of link models works, at the cost of N scalar calls per operation —
    exactly the loops :class:`~repro.simulator.fabric.Fabric` ran
    before fleets existed.
    """

    def __init__(self, models: Sequence[LinkModel]) -> None:
        self.models = list(models)

    def limits(self) -> np.ndarray:
        return np.array([m.limit() for m in self.models], dtype=float)

    def limit_at(self, index: int) -> float:
        return float(self.models[index].limit())

    def horizons(self, send_rates: np.ndarray) -> np.ndarray:
        return np.array(
            [
                m.horizon(rate)
                for m, rate in zip(self.models, send_rates.tolist())
            ],
            dtype=float,
        )

    def advance(
        self, dt: float | np.ndarray, send_rates: np.ndarray
    ) -> np.ndarray | None:
        _check_dt(dt)
        steps = dt.tolist() if isinstance(dt, np.ndarray) else repeat(dt)
        changed = []
        for index, (model, step, rate) in enumerate(
            zip(self.models, steps, send_rates.tolist())
        ):
            before = model.limit()
            model.advance(step, rate)
            if model.limit() != before:
                changed.append(index)
        return self._report_indices(changed)

    def budgets(self) -> np.ndarray | None:
        if all(hasattr(m, "budget_gbit") for m in self.models):
            return np.array([m.budget_gbit for m in self.models], dtype=float)
        return None


class TokenBucketFleet(LinkModelFleet):
    """Struct-of-arrays token buckets (possibly heterogeneous params).

    Budgets and throttled flags live in flat arrays; the vectorized
    net-fill accounting in :meth:`advance` and the analytic batched
    :meth:`rest` perform the same elementwise float operations as the
    scalar :class:`~repro.netmodel.token_bucket.TokenBucketModel`
    methods, so fleet and scalar paths are bit-exact.
    """

    def __init__(self, models: Sequence[TokenBucketModel]) -> None:
        self._adopt(models, (TokenBucketModel,))
        models = self.models
        params = [m.params for m in models]
        self._peak = np.array([p.peak_gbps for p in params], dtype=float)
        self._capped = np.array([p.capped_gbps for p in params], dtype=float)
        self._replenish = np.array(
            [p.replenish_gbps for p in params], dtype=float
        )
        self._capacity = np.array([p.capacity_gbit for p in params], dtype=float)
        self._resume = np.array(
            [p.resume_threshold_gbit for p in params], dtype=float
        )
        # Pristine state, mirroring TokenBucketModel.reset().
        starts = [
            p.capacity_gbit if p.initial_budget_gbit is None else p.initial_budget_gbit
            for p in params
        ]
        self._reset_budget = np.minimum(np.array(starts, dtype=float), self._capacity)
        self._reset_throttled = self._reset_budget <= 0.0
        # Dispatch-count economies for the per-step hot path:
        # precomputed constants and scratch buffers (arrays this small
        # are dominated by allocation and ufunc-dispatch overhead, not
        # arithmetic).
        self._resume_minus_eps = self._resume - _EMPTY_EPS_GBIT
        self._tier_differs = self._capped != self._peak
        self._alloc_scratch(len(models))
        # Tier-flip threshold per link: a high link flips when its
        # budget hits 0 (== any value at/below the empty snap, since
        # advance snaps (0, eps] to 0), a throttled link when the
        # budget reaches resume - eps.  Caching it per tier state turns
        # the flip test into one vector compare.
        self._flip_threshold = np.where(
            self._throttled, self._resume_minus_eps, _EMPTY_EPS_GBIT
        )
        # Fastest budget motion toward the flip threshold, per tier, for
        # horizon_floor: a high link drains at most at peak - replenish
        # (the peak widened by 1e-9 for sums of shares a few ulps over
        # it), a throttled link refills at most at replenish (negated,
        # as its budget sits below the threshold).  NaN marks a tier
        # that never flips; fmin skips it.
        drain = self._peak * (1.0 + 1e-9) - self._replenish
        self._floor_rate_high = np.where(drain > 0.0, drain, np.nan)
        self._floor_rate_throttled = np.where(
            self._replenish > 0.0, -self._replenish, np.nan
        )

    def _alloc_scratch(self, n: int) -> None:
        self._zeros = np.zeros(n, dtype=float)
        self._f64_scratch = np.empty(n, dtype=float)
        self._f64_scratch2 = np.empty(n, dtype=float)
        self._bool_scratch = np.empty(n, dtype=bool)
        self._bool_scratch2 = np.empty(n, dtype=bool)
        self._horizon_out = np.empty(n, dtype=float)

    def _sync_thresholds(self) -> None:
        """Recompute the cached flip thresholds from ``_throttled``.

        Writes in place: when this fleet's state arrays are slice views
        into a concatenated super-fleet (:func:`concat_fleets`), or
        vice versa, rebinding the attribute would silently decouple the
        two.
        """
        self._flip_threshold.fill(_EMPTY_EPS_GBIT)
        np.copyto(
            self._flip_threshold, self._resume_minus_eps, where=self._throttled
        )

    def _set_throttled(self, index: int, value: bool) -> None:
        """Scalar-view write path (``set_budget``/``reset`` on a model).

        Keeps the cached flip threshold coherent with the tier flag —
        every write to ``_throttled`` from outside :meth:`advance` must
        go through here.
        """
        self._throttled[index] = value
        self._flip_threshold[index] = (
            self._resume_minus_eps[index] if value else _EMPTY_EPS_GBIT
        )

    def limits(self) -> np.ndarray:
        return np.where(self._throttled, self._capped, self._peak)

    def limit_at(self, index: int) -> float:
        if self._throttled[index]:
            return float(self._capped[index])
        return float(self._peak[index])

    def horizons(self, send_rates: np.ndarray) -> np.ndarray:
        """Per-link horizons; the returned array is a reused scratch
        buffer, valid until the next fleet call."""
        fill = np.subtract(self._replenish, send_rates, out=self._f64_scratch)
        throttled = self._throttled
        out = self._horizon_out
        out.fill(math.inf)
        # Throttled links: ceiling changes when the budget climbs past
        # the resume threshold (never, if not refilling).
        thr_div = np.greater(fill, 0.0, out=self._bool_scratch)
        np.logical_and(throttled, thr_div, out=thr_div)
        if np.count_nonzero(thr_div):
            gap = np.subtract(self._resume, self._budget, out=self._f64_scratch2)
            np.divide(gap, fill, out=out, where=thr_div)
            zero = np.less_equal(gap, _EMPTY_EPS_GBIT, out=self._bool_scratch2)
            np.logical_and(thr_div, zero, out=zero)
            if np.count_nonzero(zero):
                out[zero] = 0.0
        # High links: ceiling changes when the budget empties.  For
        # booleans ``a > b`` is ``a & ~b``, saving a negation temp.
        high_div = np.less(fill, 0.0, out=self._bool_scratch)
        np.greater(high_div, throttled, out=high_div)
        if np.count_nonzero(high_div):
            np.negative(fill, out=fill)
            np.divide(self._budget, fill, out=out, where=high_div)
            zero = np.less_equal(
                self._budget, _EMPTY_EPS_GBIT, out=self._bool_scratch2
            )
            np.logical_and(high_div, zero, out=zero)
            if np.count_nonzero(zero):
                out[zero] = 0.0
        return out

    def horizon_floor(self) -> float:
        """``(budget - eps) / (peak - replenish)`` over high links and
        ``(resume - eps - budget) / replenish`` over throttled ones,
        less a 1e-9 relative margin for the division's rounding.

        The ``eps`` in each numerator (the flip threshold) keeps it
        below the horizon's own ``budget`` or ``resume - budget``.
        """
        rate = np.where(
            self._throttled, self._floor_rate_throttled, self._floor_rate_high
        )
        gap = np.subtract(self._budget, self._flip_threshold, out=self._f64_scratch)
        np.divide(gap, rate, out=gap)
        floor = float(np.fmin.reduce(gap, initial=math.inf)) * (1.0 - 1e-9)
        return floor if floor > 0.0 else 0.0

    def advance(
        self, dt: float | np.ndarray, send_rates: np.ndarray
    ) -> np.ndarray | None:
        _check_dt(dt)
        budget = self._budget
        step = np.subtract(self._replenish, send_rates, out=self._f64_scratch)
        step *= dt
        budget += step
        np.maximum(budget, 0.0, out=budget)
        np.minimum(budget, self._capacity, out=budget)
        # Snap float residue at/below eps to exactly 0 (see the scalar
        # model): multiply-by-mask is the cheapest exact formulation.
        alive = np.greater(budget, _EMPTY_EPS_GBIT, out=self._bool_scratch)
        np.multiply(budget, alive, out=budget)
        # After the snap, budgets live in {0} U (eps, capacity], so the
        # scalar tier rules (throttled: budget >= resume - eps resumes;
        # high: budget <= 0 throttles) reduce to one compare against
        # the per-tier threshold.
        flipped = np.less(budget, self._flip_threshold, out=self._bool_scratch)
        throttled = self._throttled
        np.not_equal(flipped, throttled, out=flipped)
        if not np.count_nonzero(flipped):
            return None
        np.logical_xor(throttled, flipped, out=throttled)
        self._sync_thresholds()
        # The ceiling only moves when the tier flips on a link whose
        # two tiers actually differ.
        np.logical_and(flipped, self._tier_differs, out=flipped)
        if not np.count_nonzero(flipped):
            return None
        return self._report(flipped)

    def rest(self, duration_s: float) -> None:
        # Analytic idle refill, exactly TokenBucketModel.rest: with no
        # offered traffic the net fill rate is `replenish` in both
        # tiers, so one batched advance covers the whole interval.
        _check_duration(duration_s)
        self.advance(duration_s, self._zeros)

    def reset(self) -> None:
        self._budget[:] = self._reset_budget
        self._throttled[:] = self._reset_throttled
        self._sync_thresholds()

    def budgets(self) -> np.ndarray | None:
        return self._budget


class ConstantRateFleet(LinkModelFleet):
    """Fixed-capacity links: nothing to advance, horizons are infinite."""

    def __init__(self, models: Sequence[ConstantRateModel]) -> None:
        models = list(models)
        for model in models:
            if type(model) is not ConstantRateModel:
                raise TypeError(f"not a ConstantRateModel: {model!r}")
        self.models = models
        self._rates = np.array([m.limit() for m in models], dtype=float)

    def limits(self) -> np.ndarray:
        return self._rates.copy()

    def limit_at(self, index: int) -> float:
        return float(self._rates[index])

    def horizons(self, send_rates: np.ndarray) -> np.ndarray:
        return np.full(self._rates.shape[0], math.inf)

    def horizon_floor(self) -> float:
        return math.inf

    def advance(
        self, dt: float | np.ndarray, send_rates: np.ndarray
    ) -> np.ndarray | None:
        _check_dt(dt)
        return None

    def rest(self, duration_s: float) -> None:
        _check_duration(duration_s)


class ResamplingFleet(LinkModelFleet):
    """Batched interval clockwork for periodically-resampled ceilings.

    The elapsed-time bookkeeping of N resampling models advances as one
    array operation; only links that actually cross a resample boundary
    fall back to per-link handling, where all of a link's crossed-
    boundary draws batch into a single RNG call
    (:meth:`~repro.netmodel.stochastic._ResamplingModel._draw_batch`).
    Each model keeps its own seeded generator, so per-node draw
    sequences are bit-identical to the scalar path — including the
    clockwork float residues, which replay the scalar operation order
    per crossing link.
    """

    _ADOPTABLE = (UniformQuantileSamplingModel, Ar1QuantileModel)

    def __init__(self, models: Sequence[LinkModel]) -> None:
        self._adopt(models, self._ADOPTABLE)
        self._intervals = np.array(
            [m._interval for m in self.models], dtype=float
        )
        # The scalar loop's ``interval - 1e-12`` threshold, hoisted per
        # link as in PerCoreQosFleet.
        self._intervals_eps = self._intervals - 1e-12

    def limits(self) -> np.ndarray:
        return self._current.copy()

    def limit_at(self, index: int) -> float:
        return float(self._current[index])

    def horizons(self, send_rates: np.ndarray) -> np.ndarray:
        return np.maximum(self._intervals - self._elapsed, 0.0)

    def horizon_floor(self) -> float:
        """The exact ``min(horizons)``: resample clocks ignore rates."""
        floor = float(
            np.minimum.reduce(self._intervals - self._elapsed, initial=math.inf)
        )
        return floor if floor > 0.0 else 0.0

    def advance(
        self, dt: float | np.ndarray, send_rates: np.ndarray
    ) -> np.ndarray | None:
        _check_dt(dt)
        elapsed = self._elapsed
        elapsed += dt
        crossed = elapsed >= self._intervals_eps
        if not np.count_nonzero(crossed):
            return None
        changed = []
        current = self._current
        for i in np.flatnonzero(crossed).tolist():
            e, k = _wrap_interval(float(elapsed[i]), float(self._intervals[i]))
            elapsed[i] = e
            value = self.models[i]._draw_batch(k)
            if value != current[i]:
                changed.append(i)
            current[i] = value
        return self._report_indices(changed)

    def rest(self, duration_s: float) -> None:
        # Mirrors the generic LinkModel.rest horizon-stepping loop per
        # link (the clockwork is RNG-independent, so step sizes and
        # crossing counts replicate exactly), then takes every crossed
        # boundary's draw in one batched RNG call per link.
        _check_duration(duration_s)
        min_step = duration_s / _MAX_REST_STEPS
        elapsed = self._elapsed
        current = self._current
        for i, model in enumerate(self.models):
            interval = float(self._intervals[i])
            e = float(elapsed[i])
            remaining = duration_s
            k = 0
            while remaining > 1e-9:
                step = min(remaining, max(interval - e, min_step, 1e-6))
                e, crossings = _wrap_interval(e + step, interval)
                k += crossings
                remaining -= step
            elapsed[i] = e
            if k:
                current[i] = model._draw_batch(k)


class PerCoreQosFleet(LinkModelFleet):
    """Batched stream-age/idle-gap clockwork for GCE per-core QoS links.

    The per-step bookkeeping of
    :class:`~repro.netmodel.percore.PerCoreQosModel` — is this node
    sending, did an idle gap expire, did the resample interval roll
    over — advances as a handful of array operations instead of N
    scalar method calls.  Only links that actually redraw (an idle
    resume restarting a cold stream, or interval-boundary crossings)
    fall back to per-link handling; a link's crossed-boundary draws
    batch into a single RNG call
    (:meth:`~repro.netmodel.percore.PerCoreQosModel.
    _draw_efficiency_batch`).  Each model keeps its own seeded
    generator and the clockwork float residues replay the scalar
    operation order per crossing link, so per-node state and draw
    sequences are bit-identical to the scalar path.
    """

    def __init__(self, models: Sequence[PerCoreQosModel]) -> None:
        self._adopt(models, (PerCoreQosModel,))
        models = self.models
        self._qos = np.array([m.qos_gbps for m in models], dtype=float)
        self._ramp = np.array([m.ramp_s for m in models], dtype=float)
        self._idle_reset = np.array([m.idle_reset_s for m in models], dtype=float)
        self._interval = np.array([m.interval_s for m in models], dtype=float)
        # Same threshold value the scalar while-loop computes each
        # iteration (``interval_s - 1e-12``), hoisted per link.
        self._interval_eps = self._interval - 1e-12
        self._alloc_scratch(len(models))

    def _alloc_scratch(self, n: int) -> None:
        self._f64_scratch = np.empty(n, dtype=float)
        self._bool_scratch = np.empty(n, dtype=bool)
        self._bool_scratch2 = np.empty(n, dtype=bool)

    def limits(self) -> np.ndarray:
        return self._qos * self._eff

    def limit_at(self, index: int) -> float:
        return float(self._qos[index]) * float(self._eff[index])

    def horizons(self, send_rates: np.ndarray) -> np.ndarray:
        out = np.subtract(self._interval, self._elapsed, out=self._f64_scratch)
        np.maximum(out, 0.0, out=out)
        return out

    def horizon_floor(self) -> float:
        """The exact ``min(horizons)``: resample clocks ignore rates."""
        gap = np.subtract(self._interval, self._elapsed, out=self._f64_scratch)
        floor = float(np.minimum.reduce(gap, initial=math.inf))
        return floor if floor > 0.0 else 0.0

    def advance(
        self, dt: float | np.ndarray, send_rates: np.ndarray
    ) -> np.ndarray | None:
        _check_dt(dt)
        age = self._age
        idle = self._idle
        elapsed = self._elapsed
        eff = self._eff
        sending = np.greater(send_rates, 1e-9, out=self._bool_scratch)
        # Pre-redraw ceilings of the (rare) links that redraw this
        # step, keyed by index: "changed" is the net before/after
        # comparison, exactly what ScalarFleetAdapter observes when a
        # resume redraw is later superseded by a boundary redraw.
        old_eff: dict[int, float] | None = None
        # Idle resume: a sending link whose idle gap expired restarts
        # its stream age and redraws from the (almost always cold)
        # distribution — before the age/idle update, as in the scalar.
        resume = np.greater_equal(idle, self._idle_reset, out=self._bool_scratch2)
        np.logical_and(resume, sending, out=resume)
        if np.count_nonzero(resume):
            old_eff = {}
            for i in np.flatnonzero(resume).tolist():
                age[i] = 0.0
                old_eff[i] = float(eff[i])
                eff[i] = self.models[i]._draw_efficiency()
        # Vectorized clockwork, elementwise-identical to the scalar
        # branches: sending links age and zero their idle time, idle
        # links accumulate it; the interval clock always ticks.
        np.add(age, dt, out=age, where=sending)
        notsending = np.logical_not(sending, out=self._bool_scratch2)
        np.add(idle, dt, out=idle, where=notsending)
        idle[sending] = 0.0
        elapsed += dt
        crossed = np.greater_equal(
            elapsed, self._interval_eps, out=self._bool_scratch2
        )
        if np.count_nonzero(crossed):
            if old_eff is None:
                old_eff = {}
            for i in np.flatnonzero(crossed).tolist():
                e, k = _wrap_interval(float(elapsed[i]), float(self._interval[i]))
                elapsed[i] = e
                if i not in old_eff:
                    old_eff[i] = float(eff[i])
                eff[i] = self.models[i]._draw_efficiency_batch(k)
        if old_eff is None:
            return None
        return self._report_indices(
            [i for i, before in old_eff.items() if eff[i] != before]
        )


def build_fleet(models: Sequence[LinkModel]) -> LinkModelFleet:
    """Choose the best fleet implementation for ``models``.

    Homogeneous lists of the known model *exact* types get their
    vectorized fleet (the two resampling classes may mix, since their
    clockwork is shared); anything else — mixed fleets, subclasses,
    models already adopted elsewhere — falls back to the scalar
    adapter, which is always correct.  Reference runs construct
    :class:`ScalarFleetAdapter` directly.
    """
    models = list(models)
    if not models:
        return ScalarFleetAdapter(models)
    if any(getattr(m, "_fleet", None) is not None for m in models):
        return ScalarFleetAdapter(models)
    first = type(models[0])
    if all(type(m) is first for m in models):
        if first is TokenBucketModel:
            return TokenBucketFleet(models)
        if first is ConstantRateModel:
            return ConstantRateFleet(models)
        if first is PerCoreQosModel:
            return PerCoreQosFleet(models)
    if all(type(m) in ResamplingFleet._ADOPTABLE for m in models):
        return ResamplingFleet(models)
    return ScalarFleetAdapter(models)


#: Per-class arrays that concatenate into a super-fleet and rebind on
#: the member fleets as slice views (constants and hot state alike:
#: views of constants cost nothing and keep the stitching uniform).
#: Scratch buffers are *not* shared — each fleet keeps its own, sized
#: to its own link count.
_CONCAT_SHARED: dict[type, tuple[str, ...]] = {
    TokenBucketFleet: (
        "_peak",
        "_capped",
        "_replenish",
        "_capacity",
        "_resume",
        "_reset_budget",
        "_reset_throttled",
        "_resume_minus_eps",
        "_tier_differs",
        "_budget",
        "_throttled",
        "_flip_threshold",
        "_floor_rate_high",
        "_floor_rate_throttled",
    ),
    ConstantRateFleet: ("_rates",),
    ResamplingFleet: ("_intervals", "_intervals_eps", "_elapsed", "_current"),
    PerCoreQosFleet: (
        "_qos",
        "_ramp",
        "_idle_reset",
        "_interval",
        "_interval_eps",
        "_age",
        "_idle",
        "_elapsed",
        "_eff",
    ),
}


def concat_fleets(fleets: Sequence[LinkModelFleet]) -> LinkModelFleet:
    """Stitch same-class fleets into one super-fleet over shared state.

    The returned fleet's state arrays are the member fleets' arrays
    concatenated in order, and each member fleet's array attributes are
    *rebound to slice views* of the concatenation — after this call the
    member fleets and the super-fleet read and write the same memory.
    One ``horizons``/``advance`` call on the super-fleet then
    covers every member link while scalar model handles, per-member
    ``limits()``/``budgets()`` reads, and member-level ``reset`` keep
    working unchanged (all fleet mutators write in place).

    This is the multistream runner's core trick: N independent
    simulation cells, each with its own few-link fleet, pay one numpy
    dispatch per batched operation instead of N.  Per-link arithmetic
    is unchanged — ``advance`` takes a per-link ``dt`` so each cell
    still steps by its own event horizon, bit-identically to its
    standalone float-``dt`` ``advance``.

    All fleets must be the same concrete class (heterogeneous batches
    would need per-class dispatch — group cells first).  Transition
    hooks are unsupported: batched runs reject recorders.
    """
    fleets = list(fleets)
    if not fleets:
        raise ValueError("concat_fleets needs at least one fleet")
    cls = type(fleets[0])
    for fleet in fleets:
        if type(fleet) is not cls:
            raise ValueError(
                "all fleets in a batch must share one class; got "
                f"{cls.__name__} and {type(fleet).__name__}"
            )
        if fleet.transition_hook is not None:
            raise ValueError(
                "fleets with transition hooks (recorders) cannot batch"
            )
    models = [m for fleet in fleets for m in fleet.models]
    if cls is ScalarFleetAdapter:
        # No arrays to stitch: the models themselves hold the state,
        # and a fresh adapter over the concatenated list shares them.
        return ScalarFleetAdapter(models)
    if cls not in _CONCAT_SHARED:
        raise ValueError(f"cannot concatenate fleets of class {cls.__name__}")
    super_fleet = object.__new__(cls)
    super_fleet.models = models
    for name in _CONCAT_SHARED[cls]:
        parts = [getattr(fleet, name) for fleet in fleets]
        merged = np.concatenate(parts)
        setattr(super_fleet, name, merged)
        lo = 0
        for fleet, part in zip(fleets, parts):
            hi = lo + part.shape[0]
            setattr(fleet, name, merged[lo:hi])
            lo = hi
    super_fleet._alloc_scratch(len(models))
    return super_fleet
