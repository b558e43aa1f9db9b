"""Differential check of the shaper-floor skip in ``Fabric.horizon``.

On the serial path, :meth:`~repro.simulator.fabric.Fabric.horizon`
skips the fleet's ``horizons`` call while the cached shaper floor lies
beyond the next flow completion.  That must never move the answer: at
every step of every run here, ``horizon()`` must equal, bit for bit,
``horizon(fleet.horizons(egress).tolist())``, which always asks the
fleet.  The runs cover every fleet class, a heterogeneous fabric, a
fabric reused after ``rest_fabric``, shaper state restored into a new
fabric (the warm-chain path), and hand-built fabrics where a flow
completes half a microsecond after a shaper transition.  A floor
inflated by 1e-6 s must fail the check.
"""

import math

import numpy as np
import pytest

from repro.cloud.providers import default_providers
from repro.netmodel import (
    ConstantRateModel,
    TokenBucketModel,
    TokenBucketParams,
    UniformQuantileSamplingModel,
)
from repro.netmodel import fleet as fleet_module
from repro.netmodel.distributions import QuantileDistribution
from repro.netmodel.state import model_from_state, model_state_dict
from repro.scenarios.generate import job_stream, poisson_arrivals
from repro.serving.scenario import ServingConfig, prepare_serving
from repro.simulator import Cluster, Fabric, NodeSpec, SparkEngine
from repro.simulator.engine import rest_fabric

_FLEET_CLASSES = (
    fleet_module.TokenBucketFleet,
    fleet_module.ResamplingFleet,
    fleet_module.PerCoreQosFleet,
    fleet_module.ConstantRateFleet,
    fleet_module.ScalarFleetAdapter,
)

#: Small buckets (the golden trace's) so a short stream flips tiers.
_BUCKET = TokenBucketParams(
    peak_gbps=10.0,
    capped_gbps=1.0,
    replenish_gbps=0.95,
    capacity_gbit=400.0,
    resume_threshold_gbit=40.0,
)


@pytest.fixture
def checked(monkeypatch):
    """Check every serial ``horizon()`` against the fleet-asking form.

    Yields a dict counting checked steps and the steps that skipped
    the fleet's ``horizons`` call.
    """
    stats = {"steps": 0, "skips": 0, "fleet_calls": 0}
    for cls in _FLEET_CLASSES:
        original_horizons = cls.horizons

        def counting(self, send_rates, _original=original_horizons):
            stats["fleet_calls"] += 1
            return _original(self, send_rates)

        monkeypatch.setattr(cls, "horizons", counting)
    original = Fabric.horizon

    def horizon(self, shaper_bounds=None):
        if shaper_bounds is not None:
            return original(self, shaper_bounds)
        calls = stats["fleet_calls"]
        got = original(self)
        if stats["fleet_calls"] == calls:
            stats["skips"] += 1
        want = original(self, self.fleet.horizons(self._egress_raw()).tolist())
        assert got.hex() == want.hex(), (
            f"floor skip moved the horizon: {got!r} != {want!r} at step "
            f"{stats['steps']}"
        )
        stats["steps"] += 1
        return got

    monkeypatch.setattr(Fabric, "horizon", horizon)
    return stats


def _stream(rng, n_nodes, n_jobs=4, data_scale=0.15):
    times = poisson_arrivals(rng, rate_per_min=6.0, n_jobs=n_jobs)
    return job_stream(rng, times, n_nodes=n_nodes, slots=4, data_scale=data_scale)


def _run(factory, n_nodes=6, seed=3, fabric=None, n_jobs=4):
    rng = np.random.default_rng(seed)
    cluster = Cluster(
        n_nodes=n_nodes, node_spec=NodeSpec(slots=4), link_model_factory=factory
    )
    fabric = cluster.build_fabric() if fabric is None else fabric
    engine = SparkEngine(cluster, rng=rng)
    engine.run_stream(_stream(rng, n_nodes, n_jobs), scheduler="fair", fabric=fabric)
    return fabric


def _provider_factory(provider, instance, seed=5):
    rng = np.random.default_rng(seed)
    model = default_providers()[provider].link_model
    return lambda node: model(instance, rng)


class TestStreamsMatchTheFleetAskingHorizon:
    def test_token_buckets(self, checked):
        fabric = _run(lambda node: TokenBucketModel(_BUCKET), n_jobs=6)
        assert type(fabric.fleet) is fleet_module.TokenBucketFleet
        assert checked["skips"] > checked["steps"] // 2

    def test_amazon_incarnations(self, checked):
        _run(_provider_factory("amazon", "c5.large"))
        assert checked["skips"] > 0

    def test_resampling(self, checked):
        fabric = _run(_provider_factory("hpccloud", "hpccloud-8core"))
        assert type(fabric.fleet) is fleet_module.ResamplingFleet
        assert checked["skips"] > 0

    def test_per_core(self, checked):
        fabric = _run(_provider_factory("google", "gce-4core"))
        assert type(fabric.fleet) is fleet_module.PerCoreQosFleet
        assert checked["skips"] > 0

    def test_constant_rate(self, checked):
        fabric = _run(lambda node: ConstantRateModel(10.0))
        assert type(fabric.fleet) is fleet_module.ConstantRateFleet
        assert checked["skips"] > 0

    def test_heterogeneous_never_skips(self, checked):
        fabric = _run(
            lambda node: TokenBucketModel(_BUCKET)
            if node % 2
            else ConstantRateModel(10.0)
        )
        assert type(fabric.fleet) is fleet_module.ScalarFleetAdapter
        assert checked["steps"] > 0 and checked["skips"] == 0

    def test_serving(self, checked):
        config = ServingConfig(seed=2, rate_rps=40.0, duration_s=8.0)
        prepare_serving(config).state.execute()
        assert checked["skips"] > 0

    def test_reuse_after_rest(self, checked):
        fabric = _run(lambda node: TokenBucketModel(_BUCKET), n_jobs=6)
        rest_fabric(fabric, 30.0)
        _run(lambda node: None, fabric=fabric, seed=4, n_jobs=6)
        assert checked["skips"] > 0

    def test_restored_shaper_state(self, checked):
        fabric = _run(_provider_factory("hpccloud", "hpccloud-8core"))
        states = [model_state_dict(m) for m in fabric.egress_models]
        restored = [model_from_state(state) for state in states]
        _run(restored.__getitem__, seed=4)
        fabric = _run(lambda node: TokenBucketModel(_BUCKET), n_jobs=6)
        restored = [model_from_state(model_state_dict(m)) for m in fabric.egress_models]
        _run(restored.__getitem__, seed=5, n_jobs=6)
        assert checked["skips"] > 0


def _drive(fabric: Fabric, max_steps: int = 200) -> None:
    """Step a hand-built fabric through the serial path until it drains."""
    for _ in range(max_steps):
        if not fabric.flows:
            return
        dt = fabric.horizon()
        assert math.isfinite(dt)
        fabric.advance(dt)
    raise AssertionError("fabric did not drain")


def _near_miss_token_bucket() -> None:
    # The bucket empties at t = 1 s (9 Gbit at a net 9 Gbit/s); the
    # flow would complete half a microsecond later at the peak rate.
    params = TokenBucketParams(10.0, 1.0, 1.0, 100.0, initial_budget_gbit=9.0)
    fabric = Fabric([TokenBucketModel(params), TokenBucketModel(_BUCKET)], [10.0] * 2)
    fabric.add_flow(0, 1, 10.0 * (1.0 + 5e-7))
    _drive(fabric)


def _near_miss_resampling() -> None:
    # The ceiling is redrawn at t = 1 s; the flow would complete half
    # a microsecond later at the first draw's rate.
    dist = QuantileDistribution(probs=(0.01, 0.99), values=(4.0, 6.0))
    models = [
        UniformQuantileSamplingModel(dist, interval_s=1.0, seed=s) for s in (1, 2)
    ]
    fabric = Fabric(models, [10.0] * 2)
    rate = models[0].limit()
    fabric.add_flow(0, 1, rate * (1.0 + 5e-7))
    _drive(fabric)


@pytest.mark.parametrize("case", [_near_miss_token_bucket, _near_miss_resampling])
def test_flow_completing_just_after_a_transition(checked, case):
    case()
    assert checked["steps"] >= 2


@pytest.mark.parametrize("case", [_near_miss_token_bucket, _near_miss_resampling])
def test_inflated_floor_fails_the_check(checked, monkeypatch, case):
    # A floor 1e-6 s too high lets the flow's completion pass for the
    # bound although the shaper transition comes first.
    for cls in _FLEET_CLASSES:
        original = cls.horizon_floor

        def inflated(self, _original=original):
            return _original(self) + 1e-6

        monkeypatch.setattr(cls, "horizon_floor", inflated)
    with pytest.raises(AssertionError, match="floor skip moved the horizon"):
        case()


def test_hand_set_rate_retires_the_floor(checked):
    # A rate set by hand may exceed its link's ceiling, where the floor
    # proves nothing; the next horizon must ask the fleet.
    params = TokenBucketParams(10.0, 1.0, 1.0, 100.0)
    fabric = Fabric([TokenBucketModel(params) for _ in range(2)], [50.0] * 2)
    flow = fabric.add_flow(0, 1, 1000.0)
    fabric.horizon()
    flow.rate_gbps = 40.0
    calls = checked["fleet_calls"]
    fabric.horizon()
    # Two calls: the checked horizon, then the fixture's reference.
    assert checked["fleet_calls"] == calls + 2
