"""Equivalence contract for batched stream cells.

``repro.simulator.core.run_cores`` over N stream states must reproduce
N serial ``run_stream`` calls *bit for bit* — same job runtimes, same stage
windows, same telemetry floats, same step counts — for every
scheduler, every fleet class, and mixed-completion batches where cells
finish at very different times.  These tests pin that contract, plus
the ``concat_fleets`` view-aliasing semantics the runner is built on.
"""

import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netmodel import (
    Ar1QuantileModel,
    ConstantRateModel,
    QuantileDistribution,
    TokenBucketModel,
    TokenBucketParams,
)
from repro.netmodel.base import FleetSlot
from repro.netmodel.fleet import (
    ConstantRateFleet,
    PerCoreQosFleet,
    ResamplingFleet,
    ScalarFleetAdapter,
    TokenBucketFleet,
    build_fleet,
    concat_fleets,
)
from repro.netmodel.percore import PerCoreQosModel
from repro.netmodel.stochastic import UniformQuantileSamplingModel
from repro.scenarios.generate import job_stream, poisson_arrivals
from repro.simulator import Cluster, NodeSpec, SparkEngine
from repro.simulator.core import run_cores

_BUCKET = TokenBucketParams(
    peak_gbps=10.0,
    capped_gbps=1.0,
    replenish_gbps=0.95,
    capacity_gbit=60.0,
    resume_threshold_gbit=10.0,
)


def _make_cell(seed, scheduler, n_nodes=5, n_jobs=4, model_factory=None):
    """One small stream cell; fresh RNG state per call, keyed by seed."""
    if model_factory is None:
        model_factory = lambda node: TokenBucketModel(_BUCKET)
    rng = np.random.default_rng(seed)
    cluster = Cluster(
        n_nodes=n_nodes,
        node_spec=NodeSpec(slots=4),
        link_model_factory=model_factory,
    )
    times = poisson_arrivals(rng, rate_per_min=3.0, n_jobs=n_jobs)
    stream = job_stream(
        rng, times, n_nodes=n_nodes, slots=4, data_scale=0.15
    )
    if scheduler == "edf":
        stream = [
            (t, job, t + 400.0 + 100.0 * i)
            for i, (t, job) in enumerate(stream)
        ]
    engine = SparkEngine(cluster, rng=rng, sample_interval_s=5.0)
    return engine, stream


def _snapshot(result):
    """Full-fidelity projection of a StreamResult for == comparison."""
    return {
        "scheduler": result.scheduler,
        "makespan": result.makespan_s,
        "n_steps": result.n_steps,
        "runtimes": [r.runtime_s for r in result.job_results],
        "finishes": [r.finish_s for r in result.job_results],
        "windows": [
            sorted(r.stage_windows.items()) for r in result.job_results
        ],
        "tasks": [r.tasks_per_node.tolist() for r in result.job_results],
        "sample_times": result.sample_times.tolist(),
        "egress": result.egress_rates.tolist(),
        "budgets": None if result.budgets is None else result.budgets.tolist(),
    }


def _batched(cells):
    """Run ``(engine, stream, scheduler)`` cells in one ``run_cores`` call."""
    return run_cores(
        [
            engine.stream_state(stream, scheduler=scheduler)
            for engine, stream, scheduler in cells
        ]
    )


class TestRunCoresEquivalence:
    @pytest.mark.parametrize(
        "scheduler", ["fifo", "fair", "srpt", "edf", "preempt"]
    )
    def test_matches_serial_per_scheduler(self, scheduler):
        seeds = [101, 202, 303]
        serial = [
            _snapshot(
                _make_cell(seed, scheduler)[0].run_stream(
                    _make_cell(seed, scheduler)[1], scheduler=scheduler
                )
            )
            for seed in seeds
        ]
        tasks = []
        for seed in seeds:
            engine, stream = _make_cell(seed, scheduler)
            tasks.append((engine, stream, scheduler))
        batched = [_snapshot(r) for r in _batched(tasks)]
        assert batched == serial

    def test_mixed_schedulers_in_one_batch(self):
        schedulers = ["fifo", "fair", "srpt", "edf", "preempt"]
        serial = []
        for i, sched in enumerate(schedulers):
            engine, stream = _make_cell(500 + i, sched)
            serial.append(_snapshot(engine.run_stream(stream, scheduler=sched)))
        tasks = []
        for i, sched in enumerate(schedulers):
            engine, stream = _make_cell(500 + i, sched)
            tasks.append((engine, stream, sched))
        assert [_snapshot(r) for r in _batched(tasks)] == serial

    def test_uneven_cell_lifetimes(self):
        # One tiny 1-job cell drains long before a 6-job cell: the
        # finished cell must ride along as a no-op without perturbing
        # the survivor.
        specs = [(1, 900), (6, 901), (2, 902)]
        serial = []
        for n_jobs, seed in specs:
            engine, stream = _make_cell(seed, "fair", n_jobs=n_jobs)
            serial.append(_snapshot(engine.run_stream(stream, scheduler="fair")))
        tasks = []
        for n_jobs, seed in specs:
            engine, stream = _make_cell(seed, "fair", n_jobs=n_jobs)
            tasks.append((engine, stream, "fair"))
        assert [_snapshot(r) for r in _batched(tasks)] == serial

    def test_heterogeneous_node_counts(self):
        serial = []
        for n_nodes, seed in [(3, 71), (6, 72), (4, 73)]:
            engine, stream = _make_cell(seed, "fifo", n_nodes=n_nodes)
            serial.append(_snapshot(engine.run_stream(stream, scheduler="fifo")))
        tasks = []
        for n_nodes, seed in [(3, 71), (6, 72), (4, 73)]:
            engine, stream = _make_cell(seed, "fifo", n_nodes=n_nodes)
            tasks.append((engine, stream, "fifo"))
        assert [_snapshot(r) for r in _batched(tasks)] == serial

    def test_percore_fleet_cells(self):
        factory = lambda node: PerCoreQosModel(cores=4, seed=9000 + node)
        serial = []
        for seed in (31, 32):
            engine, stream = _make_cell(seed, "fair", model_factory=factory)
            serial.append(_snapshot(engine.run_stream(stream, scheduler="fair")))
        tasks = []
        for seed in (31, 32):
            engine, stream = _make_cell(seed, "fair", model_factory=factory)
            tasks.append((engine, stream, "fair"))
        assert [_snapshot(r) for r in _batched(tasks)] == serial

    def test_mixed_fleet_classes_rejected(self):
        t1 = (*_make_cell(1, "fifo"), "fifo")
        t2 = (
            *_make_cell(2, "fifo", model_factory=lambda n: ConstantRateModel(8.0)),
            "fifo",
        )
        with pytest.raises(ValueError, match="one class"):
            _batched([t1, t2])

    def test_recorders_rejected(self):
        from repro.obs import ObsRecorder

        states = []
        for seed in (1, 2):
            engine, stream = _make_cell(seed, "fifo")
            states.append(
                engine.stream_state(stream, recorder=ObsRecorder())
            )
        with pytest.raises(ValueError, match="recorders"):
            run_cores(states)

    def test_empty_batch(self):
        assert run_cores([]) == []

    def test_single_cell_batch(self):
        engine, stream = _make_cell(55, "fair")
        serial = _snapshot(engine.run_stream(stream, scheduler="fair"))
        engine, stream = _make_cell(55, "fair")
        [result] = _batched([(engine, stream, "fair")])
        assert _snapshot(result) == serial

    def test_validation_matches_run_stream(self):
        engine, stream = _make_cell(1, "fifo")
        with pytest.raises(ValueError, match="unknown scheduler"):
            engine.stream_state(stream, scheduler="nope")
        with pytest.raises(ValueError, match="at least one job"):
            engine.stream_state([])


_QOS_DIST = QuantileDistribution(probs=(0.01, 0.5, 0.99), values=(4.0, 8.0, 10.0))


def _bucket_model(m, j):
    return TokenBucketModel(
        (
            _BUCKET,
            TokenBucketParams(10.0, 1.0, 1.05, 20.0, resume_threshold_gbit=1.0),
            # Equal tiers: the bucket flips, the ceiling never moves.
            TokenBucketParams(5.0, 5.0, 0.5, 30.0, initial_budget_gbit=2.0),
        )[(m + j) % 3]
    )


def _resampling_model(m, j):
    if j % 2:
        return Ar1QuantileModel(_QOS_DIST, interval_s=2.5, phi=0.5, seed=10 * m + j)
    return UniformQuantileSamplingModel(
        _QOS_DIST, interval_s=3.0 + m, seed=10 * m + j
    )


def _percore_model(m, j):
    return PerCoreQosModel(
        cores=1 + j,
        ramp_s=2.0,
        idle_reset_s=3.0 + j,
        interval_s=1.5 + 0.7 * j,
        seed=10 * m + j,
    )


#: Per fleet class: link j of member m.  The adapter gets a mixed list.
_MEMBER_MODELS = {
    TokenBucketFleet: _bucket_model,
    ConstantRateFleet: lambda m, j: ConstantRateModel(5.0 + m + j),
    ResamplingFleet: _resampling_model,
    PerCoreQosFleet: _percore_model,
    ScalarFleetAdapter: lambda m, j: (
        _bucket_model, _percore_model, _resampling_model
    )[j % 3](m, j),
}


def _member_fleet(cls, m, size):
    return cls([_MEMBER_MODELS[cls](m, j) for j in range(size)])


def _fleet_state(fleet):
    """Every state slot of every link, read through the model handles."""
    return [
        (
            model.limit(),
            [
                getattr(model, name)
                for klass in type(model).__mro__
                for name, slot in vars(klass).items()
                if isinstance(slot, FleetSlot)
            ],
        )
        for model in fleet.models
    ]


def _round_strategy(n_members, n_links):
    """One lockstep round: a dt per member and a send rate per link."""
    return st.tuples(
        st.lists(
            st.one_of(st.just(0.0), st.floats(0.0, 40.0)),
            min_size=n_members,
            max_size=n_members,
        ),
        st.lists(
            st.sampled_from([0.0, 0.5, 3.0, 12.0]),
            min_size=n_links,
            max_size=n_links,
        ),
    )


class TestConcatFleets:
    def _bucket_fleet(self, n, seed=0):
        return build_fleet([TokenBucketModel(_BUCKET) for _ in range(n)])

    def test_views_alias_super_arrays(self):
        fleets = [self._bucket_fleet(3), self._bucket_fleet(2)]
        sup = concat_fleets(fleets)
        assert isinstance(sup, TokenBucketFleet)
        assert sup.n == 5
        # Writes through the super-fleet surface in the members...
        sup._budget[0] = 12.5
        assert fleets[0]._budget[0] == 12.5
        # ...and scalar-model writes surface in the super-fleet.
        fleets[1].models[1].set_budget(0.0)
        assert sup._budget[4] == 0.0
        assert bool(sup._throttled[4])
        # _sync_thresholds stays in place (aliasing survives a flip).
        fleets[1]._sync_thresholds()
        assert np.shares_memory(fleets[1]._flip_threshold, sup._flip_threshold)

    @pytest.mark.parametrize("cls", _MEMBER_MODELS, ids=lambda cls: cls.__name__)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_per_link_advance_matches_member_advance(self, cls, data):
        # Differential check of the per-link ``dt`` form: a super-fleet
        # over 2-3 members, stepped with one ``dt`` per member, must
        # leave every member exactly where twin fleets stepped with
        # their own float ``dt`` end up, and report the same changed
        # links.  A hooked standalone copy of member 0, stepped with a
        # per-link array, must report the mask's indices to its hook.
        sizes = data.draw(st.lists(st.integers(1, 3), min_size=2, max_size=3))
        members = [_member_fleet(cls, m, size) for m, size in enumerate(sizes)]
        twins = [_member_fleet(cls, m, size) for m, size in enumerate(sizes)]
        hooked = _member_fleet(cls, 0, sizes[0])
        events = []
        hooked.transition_hook = lambda idx, limits: events.append(
            (idx.tolist(), limits.tolist())
        )
        sup = concat_fleets(members)
        bounds = np.cumsum([0] + sizes).tolist()
        rounds = data.draw(
            st.lists(_round_strategy(len(sizes), sum(sizes)), max_size=12)
        )
        # A final long idle step checks the RNG streams stayed aligned.
        rounds.append(([1000.0] * len(sizes), [0.0] * sum(sizes)))
        for dts, sends in rounds:
            sends = np.array(sends)
            mask = sup.advance(np.repeat(dts, sizes), sends)
            for m, twin in enumerate(twins):
                lo, hi = bounds[m], bounds[m + 1]
                before = twin.limits()
                twin_mask = twin.advance(dts[m], sends[lo:hi])
                moved = (twin.limits() != before).tolist()
                got = [False] * (hi - lo) if mask is None else mask[lo:hi].tolist()
                assert got == moved
                assert moved == (
                    [False] * (hi - lo) if twin_mask is None else twin_mask.tolist()
                )
                assert _fleet_state(members[m]) == _fleet_state(twin)
            events.clear()
            hooked_mask = hooked.advance(np.full(sizes[0], dts[0]), sends[: sizes[0]])
            assert _fleet_state(hooked) == _fleet_state(twins[0])
            if hooked_mask is None:
                assert events == []
            else:
                assert events == [
                    (np.flatnonzero(hooked_mask).tolist(), hooked.limits().tolist())
                ]

    def test_mixed_classes_rejected(self):
        bucket = self._bucket_fleet(2)
        const = build_fleet([ConstantRateModel(5.0) for _ in range(2)])
        with pytest.raises(ValueError, match="one class"):
            concat_fleets([bucket, const])

    def test_hooked_fleet_rejected(self):
        fleet = self._bucket_fleet(2)
        fleet.transition_hook = lambda idx, limits: None
        with pytest.raises(ValueError, match="hook"):
            concat_fleets([fleet])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            concat_fleets([])

    def test_percore_fleet_concat_is_percore(self):
        def fleet(seed):
            return build_fleet(
                [PerCoreQosModel(cores=4, seed=seed + i) for i in range(2)]
            )

        sup = concat_fleets([fleet(0), fleet(5)])
        assert isinstance(sup, PerCoreQosFleet)
        assert sup.n == 4
        assert math.isfinite(float(sup.limits().sum()))


class TestCampaignBatchExecutor:
    def test_batched_campaign_matches_serial(self, tmp_path):
        from repro.scenarios.orchestrate import (
            ScenarioCampaign,
            batch_executor,
            scenario_matrix,
        )

        configs = scenario_matrix(
            providers=("amazon", "google"),
            arrival_rates=(2.0,),
            schedulers=("fifo", "fair"),
            n_jobs=3,
            n_nodes=4,
            seed=11,
        )
        serial = ScenarioCampaign(configs).run()
        batched = ScenarioCampaign(
            configs, executor=batch_executor(batch_size=3)
        ).run()
        assert serial.results.keys() == batched.results.keys()
        for sid, a in serial.results.items():
            b = batched.results[sid]
            assert a.aggregate_row() == b.aggregate_row()
            assert a.runtimes.tolist() == b.runtimes.tolist()
            assert a.fabric_state == b.fabric_state
            assert a.n_steps == b.n_steps

    def test_batched_campaign_with_chains(self):
        from repro.scenarios.orchestrate import (
            ScenarioCampaign,
            ScenarioConfig,
            batch_executor,
            chain_scenarios,
        )

        base = ScenarioConfig(n_nodes=4, n_jobs=2, seed=3)
        configs = chain_scenarios(base, 3) + [
            ScenarioConfig(n_nodes=4, n_jobs=2, seed=99)
        ]
        serial = ScenarioCampaign(configs).run()
        batched = ScenarioCampaign(
            configs, executor=batch_executor(batch_size=4)
        ).run()
        assert serial.results.keys() == batched.results.keys()
        for sid, a in serial.results.items():
            b = batched.results[sid]
            assert a.aggregate_row() == b.aggregate_row()
            assert a.fabric_state == b.fabric_state
