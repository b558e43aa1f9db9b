"""The shaper-floor contract of every fleet class.

:meth:`~repro.netmodel.fleet.LinkModelFleet.horizon_floor` promises a
lower bound on every link's horizon that holds for any send rates in
``[0, limits]``, and that sinks by no more than
:func:`~repro.netmodel.fleet.decay_floor` across an advance that
changes no ceiling.  The fabric skips the fleet's ``horizons`` call on
that promise alone, so these tests drive random step sequences through
each fleet class and check both halves at every step.  The slow-marked
sweeps (``pytest -m slow tests/netmodel/test_fleet_floor.py``) run the
same checks on many more sequences.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netmodel import (
    Ar1QuantileModel,
    ConstantRateModel,
    PerCoreQosModel,
    QuantileDistribution,
    TokenBucketModel,
    TokenBucketParams,
    UniformQuantileSamplingModel,
)
from repro.netmodel.fleet import (
    ConstantRateFleet,
    PerCoreQosFleet,
    ResamplingFleet,
    ScalarFleetAdapter,
    TokenBucketFleet,
    decay_floor,
)

_DIST = QuantileDistribution(
    probs=(0.01, 0.25, 0.5, 0.75, 0.99),
    values=(0.4, 2.0, 4.5, 7.0, 9.6),
)

#: Small buckets that flip tiers within a few steps, an oscillating one,
#: one that never drains (replenish at peak), one that never refills,
#: and one whose two tiers are equal (it flips without a ceiling change).
_TB_PARAMS = [
    TokenBucketParams(10.0, 1.0, 0.95, 60.0),
    TokenBucketParams(10.0, 1.0, 1.05, 40.0, resume_threshold_gbit=1.0),
    TokenBucketParams(5.0, 0.5, 0.45, 8.0, initial_budget_gbit=2.0),
    TokenBucketParams(10.0, 1.0, 0.95, 60.0, initial_budget_gbit=0.0),
    TokenBucketParams(10.0, 1.0, 10.0, 30.0, initial_budget_gbit=5.0),
    TokenBucketParams(10.0, 1.0, 0.0, 30.0, resume_threshold_gbit=3.0),
    TokenBucketParams(4.0, 4.0, 1.0, 12.0, resume_threshold_gbit=2.0),
]


def _token_bucket():
    return TokenBucketFleet([TokenBucketModel(p) for p in _TB_PARAMS])


def _resampling():
    return ResamplingFleet(
        [
            UniformQuantileSamplingModel(_DIST, interval_s=5.0, seed=11),
            UniformQuantileSamplingModel(_DIST, interval_s=0.37, seed=12),
            Ar1QuantileModel(_DIST, interval_s=10.0, phi=0.7, seed=13),
            Ar1QuantileModel(_DIST, interval_s=2.5, phi=0.3, seed=14),
        ]
    )


def _per_core():
    return PerCoreQosFleet(
        [
            PerCoreQosModel(cores=4, seed=21),
            PerCoreQosModel(cores=8, ramp_s=0.0, seed=22),
            PerCoreQosModel(cores=2, idle_reset_s=3.0, interval_s=0.8, seed=23),
            PerCoreQosModel(cores=1, ramp_s=10.0, interval_s=7.3, seed=24),
        ]
    )


def _constant():
    return ConstantRateFleet([ConstantRateModel(r) for r in (10.0, 2.5, 40.0)])


def _adapter():
    return ScalarFleetAdapter(
        [TokenBucketModel(_TB_PARAMS[0]), ConstantRateModel(10.0)]
    )


FLEETS = {
    "token_bucket": _token_bucket,
    "resampling": _resampling,
    "per_core": _per_core,
    "constant": _constant,
    "adapter": _adapter,
}

# (dt, send fraction of each ceiling, per-link pattern seed).  Tiny
# steps matter: the decay margins must absorb residue when dt is ~0.
_STEPS = st.lists(
    st.tuples(
        st.one_of(
            st.floats(min_value=0.0, max_value=1e-6),
            st.floats(min_value=0.0, max_value=30.0),
        ),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=2**16),
    ),
    min_size=1,
    max_size=30,
)


def _send_rates(limits: np.ndarray, fraction: float, seed: int) -> list:
    """Rate vectors in ``[0, limits]``: idle, full, a few ulps over the
    ceiling (sums of max-min shares), and random mixes."""
    rng = np.random.default_rng(seed)
    over = np.nextafter(np.nextafter(limits, math.inf), math.inf)
    return [
        np.zeros_like(limits),
        limits.copy(),
        over,
        limits * fraction,
        limits * rng.uniform(0.0, 1.0, limits.shape[0]),
        np.where(rng.uniform(size=limits.shape[0]) < 0.5, 0.0, limits),
    ]


def _check_floor_contract(fleet, steps) -> None:
    for dt, fraction, seed in steps:
        limits = fleet.limits()
        floor = fleet.horizon_floor()
        assert floor >= 0.0
        candidates = _send_rates(limits, fraction, seed)
        for rates in candidates:
            with np.errstate(over="ignore"):  # ulps over a level bucket
                horizons = fleet.horizons(rates)
            assert floor <= float(horizons.min()), (floor, rates, horizons)
        send = candidates[3 + seed % 3]
        if fleet.advance(dt, send) is None:
            fresh = fleet.horizon_floor()
            assert fresh >= decay_floor(floor, dt), (floor, dt, fresh)


@pytest.mark.parametrize("kind", sorted(FLEETS))
@settings(max_examples=40, deadline=None)
@given(steps=_STEPS)
def test_floor_bounds_horizons_and_decays_within_margin(kind, steps):
    _check_floor_contract(FLEETS[kind](), steps)


@pytest.mark.slow
@pytest.mark.parametrize("kind", sorted(FLEETS))
@settings(max_examples=2000, deadline=None)
@given(steps=_STEPS)
def test_floor_contract_wide_sweep(kind, steps):
    _check_floor_contract(FLEETS[kind](), steps)


def test_clock_floors_are_the_exact_minimum_horizon():
    # Resample clocks ignore send rates, so their floor loses nothing.
    for fleet in (_resampling(), _per_core()):
        fleet.advance(1.3, np.zeros(fleet.n))
        assert fleet.horizon_floor() == min(fleet.horizons(np.zeros(fleet.n)))


def test_token_bucket_floor_is_the_peak_drain_time():
    params = TokenBucketParams(10.0, 1.0, 1.0, 90.0)
    fleet = TokenBucketFleet([TokenBucketModel(params)])
    exact = fleet.horizons(np.array([10.0]))[0]
    floor = fleet.horizon_floor()
    assert floor < exact
    assert floor == pytest.approx(exact, rel=1e-8)


def test_floors_without_a_transition():
    assert _constant().horizon_floor() == math.inf
    # The adapter's trivial floor proves nothing.
    assert _adapter().horizon_floor() == 0.0
    # A bucket refilled as fast as its peak drains it only under rates
    # a few ulps over the peak, and then over years.
    level = TokenBucketFleet(
        [TokenBucketModel(TokenBucketParams(10.0, 1.0, 10.0, 30.0))]
    )
    assert level.horizon_floor() > 1e9
    never = TokenBucketFleet(
        [TokenBucketModel(TokenBucketParams(10.0, 1.0, 11.0, 30.0))]
    )
    assert never.horizon_floor() == math.inf
