"""Fleet-vs-scalar identity: the contract the fabric rework rests on.

Every :class:`~repro.netmodel.fleet.LinkModelFleet` implementation
must produce *bit-identical* results to driving the same scalar models
through the same operation sequence — limits, horizons, advances,
rests, budgets, and (for resampling models) every subsequent RNG draw.
The hypothesis tests drive random dt/rate sequences through a fleet
and an independent scalar twin set and compare exactly (``==``, no
tolerances).
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
    LinkModelFleet,
    PerCoreQosFleet,
    ResamplingFleet,
    ScalarFleetAdapter,
    TokenBucketFleet,
    _CONCAT_SHARED,
    build_fleet,
)

_DIST = QuantileDistribution(
    probs=(0.01, 0.25, 0.5, 0.75, 0.99),
    values=(0.4, 2.0, 4.5, 7.0, 9.6),
)

#: Heterogeneous token-bucket incarnations (Figure 11: constants vary
#: across instances), including an oscillating one.
_TB_PARAMS = [
    TokenBucketParams(10.0, 1.0, 0.95, 600.0),
    TokenBucketParams(10.0, 1.0, 1.05, 40.0, resume_threshold_gbit=1.0),
    TokenBucketParams(5.0, 0.5, 0.45, 80.0, initial_budget_gbit=2.0),
    TokenBucketParams(10.0, 1.0, 0.95, 600.0, initial_budget_gbit=0.0),
]


def _tb_pair():
    """(fleet over fresh models, independent scalar twins)."""
    fleet_models = [TokenBucketModel(p) for p in _TB_PARAMS]
    scalars = [TokenBucketModel(p) for p in _TB_PARAMS]
    return TokenBucketFleet(fleet_models), scalars


def _resampling_pair():
    """Mixed Uniform/AR(1) fleet with per-node seeds, plus twins."""

    def build():
        return [
            UniformQuantileSamplingModel(_DIST, interval_s=5.0, seed=11),
            UniformQuantileSamplingModel(_DIST, interval_s=3.7, seed=12),
            Ar1QuantileModel(_DIST, interval_s=10.0, phi=0.7, seed=13),
            Ar1QuantileModel(_DIST, interval_s=2.5, phi=0.3, seed=14),
        ]

    return ResamplingFleet(build()), build()


def _assert_state_equal(fleet: LinkModelFleet, scalars) -> None:
    assert fleet.limits().tolist() == [m.limit() for m in scalars]
    budgets = fleet.budgets()
    if budgets is not None:
        assert budgets.tolist() == [m.budget_gbit for m in scalars]


# Operation sequences: (op, value) with op in advance/rest/horizon.
_OPS = st.lists(
    st.tuples(
        st.sampled_from(["advance", "rest", "horizon"]),
        st.floats(min_value=0.0, max_value=400.0),
        st.floats(min_value=0.0, max_value=12.0),
    ),
    min_size=1,
    max_size=30,
)


class TestTokenBucketFleetIdentity:
    @settings(max_examples=60, deadline=None)
    @given(ops=_OPS)
    def test_random_sequences_bit_exact(self, ops):
        fleet, scalars = _tb_pair()
        n = fleet.n
        for op, a, b in ops:
            if op == "advance":
                rates = np.array([b * ((i % 3) + 1) / 2 for i in range(n)])
                fleet.advance(a, rates)
                for model, rate in zip(scalars, rates.tolist()):
                    model.advance(a, rate)
            elif op == "rest":
                fleet.rest(a)
                for model in scalars:
                    model.rest(a)
            else:
                rates = np.array([b] * n)
                got = fleet.horizons(rates).tolist()
                want = [m.horizon(b) for m in scalars]
                assert got == want
            _assert_state_equal(fleet, scalars)
            assert fleet._throttled.tolist() == [m.throttled for m in scalars]

    def test_scalar_views_read_and_write_through(self):
        fleet, scalars = _tb_pair()
        rates = np.array([10.0, 10.0, 5.0, 10.0])
        fleet.advance(30.0, rates)
        for model, rate in zip(scalars, rates.tolist()):
            model.advance(30.0, rate)
        # Adopted handles observe fleet state...
        for adopted, twin in zip(fleet.models, scalars):
            assert adopted.budget_gbit == twin.budget_gbit
            assert adopted.throttled == twin.throttled
            assert adopted.limit() == twin.limit()
        # ...and writes through a handle (set_budget / scalar advance)
        # update the fleet arrays coherently.
        fleet.models[0].set_budget(3.25)
        assert fleet.budgets()[0] == 3.25
        fleet.models[1].advance(1.0, 0.0)
        scalars[1].advance(1.0, 0.0)
        assert fleet.budgets()[1] == scalars[1].budget_gbit

    def test_set_budget_keeps_flip_threshold_coherent(self):
        # Deplete node 0, then force its budget above the resume
        # threshold through the scalar view: the next advance must not
        # spuriously re-throttle (regression guard for the cached
        # threshold).
        fleet, scalars = _tb_pair()
        zeros = np.zeros(fleet.n)
        drain = np.array([10.0, 0.0, 0.0, 0.0])
        fleet.advance(100.0, drain)
        for model, rate in zip(scalars, drain.tolist()):
            model.advance(100.0, rate)
        assert fleet.models[0].throttled == scalars[0].throttled
        fleet.models[0].set_budget(500.0)
        scalars[0].set_budget(500.0)
        fleet.advance(0.5, zeros)
        for model in scalars:
            model.advance(0.5, 0.0)
        assert fleet.models[0].throttled == scalars[0].throttled
        _assert_state_equal(fleet, scalars)

    def test_reset_restores_pristine_state(self):
        fleet, scalars = _tb_pair()
        fleet.advance(200.0, np.full(fleet.n, 10.0))
        fleet.reset()
        for model in scalars:
            model.advance(200.0, 10.0)
            model.reset()
        _assert_state_equal(fleet, scalars)
        assert fleet._throttled.tolist() == [m.throttled for m in scalars]


class TestConstantRateFleetIdentity:
    def test_matches_scalar(self):
        rates = [10.0, 25.0, 1.5]
        fleet = ConstantRateFleet([ConstantRateModel(r) for r in rates])
        scalars = [ConstantRateModel(r) for r in rates]
        _assert_state_equal(fleet, scalars)
        send = np.array([3.0, 0.0, 9.0])
        assert fleet.horizons(send).tolist() == [
            m.horizon(s) for m, s in zip(scalars, send.tolist())
        ]
        assert fleet.advance(5.0, send) is None
        fleet.rest(10.0)
        fleet.reset()
        _assert_state_equal(fleet, scalars)
        assert fleet.budgets() is None


class TestResamplingFleetIdentity:
    @settings(max_examples=40, deadline=None)
    @given(
        dts=st.lists(
            st.floats(min_value=0.0, max_value=60.0), min_size=1, max_size=25
        )
    )
    def test_advance_sequences_bit_exact(self, dts):
        fleet, scalars = _resampling_pair()
        zeros = np.zeros(fleet.n)
        for dt in dts:
            fleet.advance(dt, zeros)
            for model in scalars:
                model.advance(dt, 0.0)
            assert fleet.limits().tolist() == [m.limit() for m in scalars]
            assert fleet.horizons(zeros).tolist() == [
                m.horizon(0.0) for m in scalars
            ]
        # The RNG streams stayed aligned: the *next* draws agree too.
        fleet.advance(1000.0, zeros)
        for model in scalars:
            model.advance(1000.0, 0.0)
        assert fleet.limits().tolist() == [m.limit() for m in scalars]

    @settings(max_examples=40, deadline=None)
    @given(
        rests=st.lists(
            st.floats(min_value=0.0, max_value=200.0), min_size=1, max_size=8
        )
    )
    def test_rest_matches_scalar_reference_loop(self, rests):
        # Fleet rest batches every crossed boundary's draw into one RNG
        # call per node; the scalar generic rest steps one draw at a
        # time.  Clockwork residues, ceilings, and RNG states must all
        # come out identical.
        fleet, scalars = _resampling_pair()
        zeros = np.zeros(fleet.n)
        for duration in rests:
            fleet.rest(duration)
            for model in scalars:
                model.rest(duration)
            assert fleet.limits().tolist() == [m.limit() for m in scalars]
            assert fleet._elapsed.tolist() == [
                m._elapsed_in_interval for m in scalars
            ]
        fleet.advance(500.0, zeros)
        for model in scalars:
            model.advance(500.0, 0.0)
        assert fleet.limits().tolist() == [m.limit() for m in scalars]

    def test_draw_batch_matches_scalar_draw_sequence(self):
        for make in (
            lambda seed: UniformQuantileSamplingModel(_DIST, seed=seed),
            lambda seed: Ar1QuantileModel(_DIST, seed=seed),
        ):
            batched, stepped = make(99), make(99)
            for k in (1, 3, 7):
                got = batched._draw_batch(k)
                want = None
                for _ in range(k):
                    want = stepped._draw()
                assert got == want

    def test_reset_restores_seeded_sequence(self):
        fleet, scalars = _resampling_pair()
        fleet.advance(123.0, np.zeros(fleet.n))
        fleet.reset()
        assert fleet.limits().tolist() == [m.limit() for m in scalars]


def _percore_pair():
    """Heterogeneous per-core QoS fleet plus independent scalar twins.

    Covers the clockwork corners: an always-warm link (``ramp_s=0``),
    a short idle-reset, a sub-second resample interval, and distinct
    per-node seeds so RNG-stream divergence is detectable.
    """

    def build():
        return [
            PerCoreQosModel(cores=4, seed=21),
            PerCoreQosModel(cores=8, ramp_s=0.0, seed=22),
            PerCoreQosModel(cores=2, idle_reset_s=3.0, interval_s=0.8, seed=23),
            PerCoreQosModel(cores=1, ramp_s=10.0, interval_s=7.3, seed=24),
        ]

    return PerCoreQosFleet(build()), build()


class TestPerCoreQosFleetIdentity:
    # dt spans idle-reset (15 s default) and interval (2.5 s default)
    # boundaries; the rate slot toggles sending per link, so sequences
    # hit idle-gap resumes, ramp crossings, and multi-interval steps.
    @settings(max_examples=60, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=40.0),
                st.integers(min_value=0, max_value=15),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_random_sequences_bit_exact(self, ops):
        fleet, scalars = _percore_pair()
        n = fleet.n
        for dt, pattern in ops:
            rates = np.array(
                [3.0 if (pattern >> i) & 1 else 0.0 for i in range(n)]
            )
            fleet_changed = fleet.advance(dt, rates)
            scalar_changed = False
            for model, rate in zip(scalars, rates.tolist()):
                before = model.limit()
                model.advance(dt, rate)
                scalar_changed = scalar_changed or model.limit() != before
            assert (fleet_changed is not None) == scalar_changed
            assert fleet.limits().tolist() == [m.limit() for m in scalars]
            assert fleet.horizons(rates).tolist() == [
                m.horizon(r) for m, r in zip(scalars, rates.tolist())
            ]
            assert fleet._age.tolist() == [m._stream_age for m in scalars]
            assert fleet._idle.tolist() == [m._idle_time for m in scalars]
            assert fleet._elapsed.tolist() == [
                m._elapsed_in_interval for m in scalars
            ]
        # The RNG streams stayed aligned: future draws agree too.
        fleet.advance(100.0, np.full(n, 2.0))
        for model in scalars:
            model.advance(100.0, 2.0)
        assert fleet.limits().tolist() == [m.limit() for m in scalars]

    def test_idle_resume_redraws_cold_tail(self):
        # A resumed-after-idle link must redraw (cold unless ramp is
        # zero) in the same RNG position as the scalar model.
        fleet, scalars = _percore_pair()
        n = fleet.n
        send = np.full(n, 5.0)
        idle = np.zeros(n)
        for dt, rates in ((1.0, send), (20.0, idle), (0.5, send)):
            fleet.advance(dt, rates)
            for model, rate in zip(scalars, rates.tolist()):
                model.advance(dt, rate)
        assert fleet.limits().tolist() == [m.limit() for m in scalars]
        assert [m.is_warm for m in fleet.models] == [
            m.is_warm for m in scalars
        ]

    @settings(max_examples=20, deadline=None)
    @given(
        rests=st.lists(
            st.floats(min_value=0.0, max_value=60.0), min_size=1, max_size=5
        )
    )
    def test_rest_matches_scalar_reference_loop(self, rests):
        fleet, scalars = _percore_pair()
        for duration in rests:
            fleet.rest(duration)
            for model in scalars:
                model.rest(duration)
            assert fleet.limits().tolist() == [m.limit() for m in scalars]
            assert fleet._elapsed.tolist() == [
                m._elapsed_in_interval for m in scalars
            ]

    def test_scalar_views_read_and_write_through(self):
        fleet, scalars = _percore_pair()
        rates = np.full(fleet.n, 4.0)
        fleet.advance(6.0, rates)
        for model in scalars:
            model.advance(6.0, 4.0)
        for adopted, twin in zip(fleet.models, scalars):
            assert adopted.limit() == twin.limit()
            assert adopted._stream_age == twin._stream_age
            assert adopted._elapsed_in_interval == twin._elapsed_in_interval
        # Scalar advance through an adopted handle updates fleet state.
        fleet.models[0].advance(1.0, 0.0)
        scalars[0].advance(1.0, 0.0)
        assert fleet._idle[0] == scalars[0]._idle_time

    def test_reset_restores_seeded_sequence(self):
        fleet, scalars = _percore_pair()
        fleet.advance(37.0, np.full(fleet.n, 1.0))
        fleet.reset()
        assert fleet.limits().tolist() == [m.limit() for m in scalars]
        assert fleet.budgets() is None

    def test_transition_hook_reports_net_changes(self):
        fleet, _ = _percore_pair()
        events = []
        fleet.transition_hook = lambda idx, limits: events.append(
            (idx.tolist(), limits.tolist())
        )
        # Cross several interval boundaries: every link redraws.
        changed = fleet.advance(30.0, np.full(fleet.n, 2.0))
        if changed is not None:
            [(indices, limits)] = events
            assert indices == np.flatnonzero(changed).tolist()
            assert limits == fleet.limits().tolist()
        else:
            assert not events


class TestBuildFleet:
    def test_homogeneous_lists_get_vectorized_fleets(self):
        tb = [TokenBucketModel(p) for p in _TB_PARAMS]
        assert isinstance(build_fleet(tb), TokenBucketFleet)
        cr = [ConstantRateModel(10.0) for _ in range(3)]
        assert isinstance(build_fleet(cr), ConstantRateFleet)
        rs = [
            UniformQuantileSamplingModel(_DIST, seed=1),
            Ar1QuantileModel(_DIST, seed=2),
        ]
        assert isinstance(build_fleet(rs), ResamplingFleet)
        pc = [PerCoreQosModel(cores=4, seed=s) for s in range(3)]
        assert isinstance(build_fleet(pc), PerCoreQosFleet)

    def test_mixed_or_adopted_models_fall_back_to_adapter(self):
        mixed = [TokenBucketModel(_TB_PARAMS[0]), ConstantRateModel(10.0)]
        assert isinstance(build_fleet(mixed), ScalarFleetAdapter)
        adopted = [TokenBucketModel(p) for p in _TB_PARAMS]
        TokenBucketFleet(adopted)
        assert isinstance(build_fleet(adopted), ScalarFleetAdapter)
        assert isinstance(build_fleet([]), ScalarFleetAdapter)

    def test_double_adoption_raises(self):
        models = [TokenBucketModel(p) for p in _TB_PARAMS]
        TokenBucketFleet(models)
        with pytest.raises(ValueError):
            TokenBucketFleet(models)

    def test_adapter_budgets_mirror_hasattr_contract(self):
        adapter = ScalarFleetAdapter(
            [TokenBucketModel(_TB_PARAMS[0]), ConstantRateModel(10.0)]
        )
        assert adapter.budgets() is None
        tb_only = ScalarFleetAdapter([TokenBucketModel(_TB_PARAMS[0])])
        assert tb_only.budgets() is not None

    def test_negative_dt_rejected_everywhere(self):
        # Negative and NaN steps, in the float and the per-link form,
        # must raise before any state moves (NaN would otherwise poison
        # budgets and clocks silently).
        for fleet in (
            TokenBucketFleet([TokenBucketModel(_TB_PARAMS[0]) for _ in range(2)]),
            ConstantRateFleet([ConstantRateModel(1.0) for _ in range(2)]),
            ResamplingFleet(
                [UniformQuantileSamplingModel(_DIST, seed=s) for s in range(2)]
            ),
            PerCoreQosFleet([PerCoreQosModel(cores=2, seed=s) for s in range(2)]),
            ScalarFleetAdapter([TokenBucketModel(_TB_PARAMS[0]) for _ in range(2)]),
        ):
            before = [fleet.limits().tolist(), fleet.horizons(np.zeros(2)).tolist()]
            for bad in (
                -1.0,
                math.nan,
                np.array([-1.0, 1.0]),
                np.array([math.nan, 1.0]),
                np.array([1.0, math.nan]),
            ):
                with pytest.raises(ValueError):
                    fleet.advance(bad, np.ones(2))
            for bad in (-1.0, math.nan):
                with pytest.raises(ValueError):
                    fleet.rest(bad)
            after = [fleet.limits().tolist(), fleet.horizons(np.zeros(2)).tolist()]
            assert after == before
            budgets = fleet.budgets()
            if budgets is not None:
                assert not np.isnan(budgets).any()
        for model in (
            TokenBucketModel(_TB_PARAMS[0]),
            ConstantRateModel(1.0),
            UniformQuantileSamplingModel(_DIST, seed=0),
            Ar1QuantileModel(_DIST, seed=0),
            PerCoreQosModel(cores=2, seed=0),
        ):
            for bad in (-1.0, math.nan):
                with pytest.raises(ValueError):
                    model.advance(bad, 1.0)
                with pytest.raises(ValueError):
                    model.rest(bad)


@pytest.mark.parametrize(
    "make",
    [
        lambda: _tb_pair()[0],
        lambda: ConstantRateFleet([ConstantRateModel(r) for r in (1.0, 5.0, 9.0)]),
        lambda: _resampling_pair()[0],
        lambda: _percore_pair()[0],
    ],
    ids=["token_bucket", "constant_rate", "resampling", "percore"],
)
def test_concat_shares_every_per_link_array(make):
    # A per-link array left out of _CONCAT_SHARED (and not scratch)
    # would stay private to a member fleet after concat_fleets, so the
    # super-fleet would step a stale copy of it.
    fleet = make()
    cls = type(fleet)
    scratch = object.__new__(cls)
    scratch._alloc_scratch(fleet.n)
    per_link = {
        name
        for name, value in vars(fleet).items()
        if isinstance(value, np.ndarray) and value.shape[:1] == (fleet.n,)
    }
    assert per_link - set(vars(scratch)) == set(_CONCAT_SHARED[cls])


class TestAdapterIdentity:
    @settings(max_examples=30, deadline=None)
    @given(ops=_OPS)
    def test_adapter_equals_direct_scalar_calls(self, ops):
        fleet = ScalarFleetAdapter([TokenBucketModel(p) for p in _TB_PARAMS])
        scalars = [TokenBucketModel(p) for p in _TB_PARAMS]
        for op, a, b in ops:
            rates = np.full(fleet.n, b)
            if op == "advance":
                fleet.advance(a, rates)
                for model in scalars:
                    model.advance(a, b)
            elif op == "rest":
                fleet.rest(a)
                for model in scalars:
                    model.rest(a)
            else:
                assert fleet.horizons(rates).tolist() == [
                    m.horizon(b) for m in scalars
                ]
            _assert_state_equal(fleet, scalars)
