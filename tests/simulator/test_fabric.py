"""Tests for the max-min fair fluid fabric."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netmodel import ConstantRateModel, TokenBucketModel, TokenBucketParams
from repro.simulator import Fabric


def constant_fabric(n=4, egress=10.0, ingress=10.0):
    return Fabric(
        egress_models=[ConstantRateModel(egress) for _ in range(n)],
        ingress_caps_gbps=[ingress] * n,
    )


class TestFlowManagement:
    def test_add_and_remove(self):
        fabric = constant_fabric()
        flow = fabric.add_flow(0, 1, 100.0)
        assert len(fabric.flows) == 1
        fabric.remove_flow(flow)
        assert len(fabric.flows) == 0

    def test_loopback_rejected(self):
        with pytest.raises(ValueError):
            constant_fabric().add_flow(1, 1, 10.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            constant_fabric(n=2).add_flow(0, 5, 10.0)

    def test_zero_volume_rejected(self):
        with pytest.raises(ValueError, match="flow volume"):
            constant_fabric().add_flow(0, 1, 0.0)

    @pytest.mark.parametrize("volume", [-1.0, math.nan, math.inf])
    def test_non_finite_or_negative_volume_rejected(self, volume):
        with pytest.raises(ValueError, match="flow volume"):
            constant_fabric().add_flow(0, 1, volume)

    @pytest.mark.parametrize("cap", [0.0, -1.0, math.nan, math.inf])
    def test_bad_ingress_cap_rejected(self, cap):
        # An inf cap once let an inf-egress flow freeze at rate 0 with
        # an infinite horizon, which surfaced later as a "deadlock".
        with pytest.raises(ValueError, match="ingress_caps_gbps"):
            Fabric([ConstantRateModel(1.0)] * 2, [1.0, cap])

    @pytest.mark.parametrize("rate", [0.0, -1.0, math.nan, math.inf])
    def test_bad_constant_egress_rate_rejected(self, rate):
        # A NaN link once passed ``rate <= 0`` and the water-fill then
        # ignored it, giving its flow the ingress cap.
        with pytest.raises(ValueError, match="rate_gbps"):
            ConstantRateModel(rate)

    def test_mismatched_construction(self):
        with pytest.raises(ValueError):
            Fabric([ConstantRateModel(1.0)], [1.0, 2.0])


class TestFairness:
    def test_single_flow_gets_bottleneck(self):
        fabric = constant_fabric(egress=10.0, ingress=5.0)
        flow = fabric.add_flow(0, 1, 100.0)
        fabric.compute_rates()
        assert flow.rate_gbps == pytest.approx(5.0)

    def test_two_flows_share_egress(self):
        fabric = constant_fabric(egress=10.0, ingress=100.0)
        a = fabric.add_flow(0, 1, 100.0)
        b = fabric.add_flow(0, 2, 100.0)
        fabric.compute_rates()
        assert a.rate_gbps == pytest.approx(5.0)
        assert b.rate_gbps == pytest.approx(5.0)

    def test_max_min_unlocks_spare_capacity(self):
        # Flow 0->1 shares egress with 0->2; 2->1 shares ingress with
        # 0->1.  Classic water-filling: the constrained pair gets 5,
        # and no resource is overcommitted.
        fabric = constant_fabric(egress=10.0, ingress=10.0)
        a = fabric.add_flow(0, 1, 100.0)
        b = fabric.add_flow(0, 2, 100.0)
        c = fabric.add_flow(2, 1, 100.0)
        fabric.compute_rates()
        assert a.rate_gbps + b.rate_gbps <= 10.0 + 1e-9
        assert a.rate_gbps + c.rate_gbps <= 10.0 + 1e-9
        assert min(a.rate_gbps, b.rate_gbps, c.rate_gbps) == pytest.approx(5.0)

    def test_all_to_all_symmetric(self):
        n = 4
        fabric = constant_fabric(n=n)
        flows = [
            fabric.add_flow(s, d, 50.0)
            for s in range(n)
            for d in range(n)
            if s != d
        ]
        fabric.compute_rates()
        rates = {round(f.rate_gbps, 6) for f in flows}
        assert len(rates) == 1  # perfect symmetry
        assert fabric.node_egress_rates()[0] == pytest.approx(10.0)

    @given(
        n_flows=st.integers(min_value=1, max_value=30),
        seed=st.integers(min_value=0, max_value=1_000),
    )
    @settings(max_examples=50, deadline=None)
    def test_no_resource_overcommitted_and_work_conserving(self, n_flows, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        n = 5
        fabric = constant_fabric(n=n, egress=10.0, ingress=8.0)
        for _ in range(n_flows):
            src, dst = rng.choice(n, size=2, replace=False)
            fabric.add_flow(int(src), int(dst), float(rng.uniform(1, 100)))
        fabric.compute_rates()
        egress = fabric.node_egress_rates()
        ingress = [0.0] * n
        for flow in fabric.flows.values():
            ingress[flow.dst] += flow.rate_gbps
            assert flow.rate_gbps > 0  # work conservation per flow
        for node in range(n):
            assert egress[node] <= 10.0 + 1e-6
            assert ingress[node] <= 8.0 + 1e-6


class TestAdvance:
    def test_flow_completes_exactly_at_horizon(self):
        fabric = constant_fabric()
        fabric.add_flow(0, 1, 50.0)
        fabric.compute_rates()
        horizon = fabric.horizon()
        assert horizon == pytest.approx(5.0)
        completed = fabric.advance(horizon)
        assert len(completed) == 1
        assert len(fabric.flows) == 0

    def test_partial_advance(self):
        fabric = constant_fabric()
        flow = fabric.add_flow(0, 1, 50.0)
        fabric.compute_rates()
        completed = fabric.advance(2.0)
        assert completed == []
        assert flow.remaining_gbit == pytest.approx(30.0)

    def test_token_bucket_throttling_respected(self):
        params = TokenBucketParams(
            peak_gbps=10.0, capped_gbps=1.0, replenish_gbps=1.0,
            capacity_gbit=50.0,
        )
        fabric = Fabric(
            egress_models=[TokenBucketModel(params), ConstantRateModel(10.0)],
            ingress_caps_gbps=[10.0, 10.0],
        )
        fabric.add_flow(0, 1, 500.0)
        fabric.compute_rates()
        # Horizon stops at the bucket transition (50/(10-1) s).
        assert fabric.horizon() == pytest.approx(50.0 / 9.0)
        fabric.advance(fabric.horizon())
        fabric.compute_rates()
        flow = next(iter(fabric.flows.values()))
        assert flow.rate_gbps == pytest.approx(1.0)

    def test_idle_nodes_models_still_advance(self):
        # Buckets refill during pure-compute phases.
        params = TokenBucketParams(
            peak_gbps=10.0, capped_gbps=1.0, replenish_gbps=1.0,
            capacity_gbit=100.0, initial_budget_gbit=0.0,
        )
        model = TokenBucketModel(params)
        fabric = Fabric(
            egress_models=[model, ConstantRateModel(10.0)],
            ingress_caps_gbps=[10.0, 10.0],
        )
        fabric.advance(30.0)
        assert model.budget_gbit == pytest.approx(30.0)

    def test_negative_dt_rejected(self):
        with pytest.raises(ValueError, match="dt"):
            constant_fabric().advance(-1.0)

    def test_nan_dt_rejected(self):
        fabric = constant_fabric()
        flow = fabric.add_flow(0, 1, 10.0)
        with pytest.raises(ValueError, match="dt"):
            fabric.advance(math.nan)
        assert flow.remaining_gbit == 10.0

    def test_empty_fabric_horizon_infinite(self):
        assert math.isinf(constant_fabric().horizon())

    def test_advance_invalidates_on_shaper_transition_without_completion(self):
        # The bucket empties mid-transfer: no flow completes, but the
        # egress ceiling drops 10 -> 1.  The next horizon query must
        # water-fill against the capped rate, not the stale assignment.
        params = TokenBucketParams(
            peak_gbps=10.0, capped_gbps=1.0, replenish_gbps=1.0,
            capacity_gbit=50.0,
        )
        fabric = Fabric(
            egress_models=[TokenBucketModel(params), ConstantRateModel(10.0)],
            ingress_caps_gbps=[10.0, 10.0],
        )
        flow = fabric.add_flow(0, 1, 500.0)
        fabric.compute_rates()
        assert flow.rate_gbps == pytest.approx(10.0)
        completed = fabric.advance(fabric.horizon())
        assert completed == []  # tier transition, not a completion
        fabric.horizon()  # lazily recomputes because the ceiling moved
        assert flow.rate_gbps == pytest.approx(1.0)

    def test_completed_flows_keep_terminal_state(self):
        fabric = constant_fabric()
        flow = fabric.add_flow(0, 1, 50.0)
        fabric.compute_rates()
        (completed,) = fabric.advance(fabric.horizon())
        assert completed is flow
        assert flow.flow_id not in fabric.flows
        assert flow.remaining_gbit <= 1e-9
        assert flow.rate_gbps == pytest.approx(10.0)
        # The detached handle is insulated from later fabric activity.
        other = fabric.add_flow(0, 2, 30.0)
        fabric.compute_rates()
        assert flow.rate_gbps == pytest.approx(10.0)
        assert other.rate_gbps == pytest.approx(10.0)


class TestArrayStateManagement:
    def test_grows_past_initial_capacity(self):
        n = 6
        fabric = constant_fabric(n=n, egress=10.0, ingress=10.0)
        flows = [
            fabric.add_flow(i % n, (i + 1 + i // n) % n, 5.0)
            for i in range(0, 500)
            if i % n != (i + 1 + i // n) % n
        ]
        fabric.compute_rates()
        assert len(fabric.flows) == len(flows)
        assert all(f.rate_gbps > 0 for f in flows)
        egress = fabric.node_egress_rates()
        assert all(rate <= 10.0 + 1e-6 for rate in egress)

    def test_remove_middle_flow_keeps_handles_consistent(self):
        fabric = constant_fabric()
        a = fabric.add_flow(0, 1, 10.0)
        b = fabric.add_flow(0, 2, 20.0)
        c = fabric.add_flow(0, 3, 30.0)
        fabric.remove_flow(b)
        assert set(fabric.flows) == {a.flow_id, c.flow_id}
        fabric.compute_rates()
        assert a.rate_gbps == pytest.approx(5.0)
        assert c.rate_gbps == pytest.approx(5.0)
        assert c.remaining_gbit == pytest.approx(30.0)
        # Removed handle froze its last-known state.
        assert b.remaining_gbit == pytest.approx(20.0)

    def test_remove_foreign_or_detached_handle_is_noop(self):
        fabric = constant_fabric()
        mine = fabric.add_flow(0, 1, 10.0)
        # A different fabric's handle shares flow_id 0 with `mine`;
        # removing it must not evict this fabric's flow.
        other_fabric = constant_fabric()
        foreign = other_fabric.add_flow(0, 2, 5.0)
        assert foreign.flow_id == mine.flow_id
        fabric.remove_flow(foreign)
        assert mine.flow_id in fabric.flows
        # Removing an already-removed handle stays a no-op, and the
        # fabric still advances cleanly afterwards.
        fabric.remove_flow(mine)
        fabric.remove_flow(mine)
        assert fabric.flows == {}
        fabric.add_flow(0, 3, 50.0)
        fabric.compute_rates()
        assert len(fabric.advance(fabric.horizon())) == 1

    def test_stale_rates_after_external_mutation_need_invalidate(self):
        # Mutating a shaper behind the fabric's back requires an
        # explicit invalidate_rates(); compute_rates() alone is a no-op
        # while the assignment is still marked valid.
        params = TokenBucketParams(
            peak_gbps=10.0, capped_gbps=1.0, replenish_gbps=1.0,
            capacity_gbit=50.0,
        )
        model = TokenBucketModel(params)
        fabric = Fabric(
            egress_models=[model, ConstantRateModel(10.0)],
            ingress_caps_gbps=[10.0, 10.0],
        )
        flow = fabric.add_flow(0, 1, 500.0)
        fabric.compute_rates()
        assert flow.rate_gbps == pytest.approx(10.0)
        model.set_budget(0.0)
        fabric.invalidate_rates()
        fabric.compute_rates()
        assert flow.rate_gbps == pytest.approx(1.0)


    def test_hand_set_rate_drains_the_shaper_at_the_new_rate(self):
        # Setting a flow's rate must drop the cached per-node egress, or
        # the next advance drains the bucket at the old rate.
        params = TokenBucketParams(
            peak_gbps=10.0, capped_gbps=1.0, replenish_gbps=1.0,
            capacity_gbit=500.0,
        )
        model = TokenBucketModel(params)
        fabric = Fabric(
            egress_models=[model, TokenBucketModel(params)],
            ingress_caps_gbps=[10.0, 10.0],
        )
        flow = fabric.add_flow(0, 1, 1000.0)
        fabric.compute_rates()
        assert fabric.node_egress_rates().tolist() == [10.0, 0.0]
        flow.rate_gbps = 2.0
        assert fabric.node_egress_rates().tolist() == [2.0, 0.0]
        fabric.advance(10.0)
        assert model.budget_gbit == 500.0 - (2.0 - 1.0) * 10.0
        assert flow.remaining_gbit == 1000.0 - 2.0 * 10.0


class TestEventHorizonCoalescing:
    """Near-tied shaper horizons must resolve as one event."""

    @staticmethod
    def _near_tie_fabric(coalesce_eps=None):
        # Two identical buckets whose budgets differ by a residue just
        # above the bucket's empty-snap epsilon: without coalescing
        # their depletion horizons land a ~1e-10 relative step apart
        # and fragment the simulation into a sub-nanosecond follow-up.
        params = TokenBucketParams(
            peak_gbps=10.0, capped_gbps=1.0, replenish_gbps=0.95,
            capacity_gbit=100.0,
        )
        models = [TokenBucketModel(params) for _ in range(2)]
        kwargs = {} if coalesce_eps is None else {"coalesce_eps": coalesce_eps}
        fabric = Fabric(models, [10.0, 10.0], **kwargs)
        models[0].set_budget(50.0)
        models[1].set_budget(50.0 + 5e-9)
        fabric.add_flow(0, 1, 1e9)
        fabric.add_flow(1, 0, 1e9)
        fabric.invalidate_rates()
        return fabric, models

    def test_near_ties_transition_in_one_step(self):
        fabric, models = self._near_tie_fabric()
        fabric.compute_rates()
        dt = fabric.horizon()
        # The coalesced bound covers the *later* of the two horizons...
        assert dt == max(m.horizon(10.0) for m in models)
        fabric.advance(dt)
        # ...so both buckets deplete in the same event step.
        assert [m.throttled for m in models] == [True, True]

    def test_disabled_coalescing_fragments_steps(self):
        fabric, models = self._near_tie_fabric(coalesce_eps=0.0)
        fabric.compute_rates()
        dt = fabric.horizon()
        assert dt == min(m.horizon(10.0) for m in models)
        fabric.advance(dt)
        assert [m.throttled for m in models] == [True, False]
        fabric.compute_rates()
        follow_up = fabric.horizon()
        assert 0.0 <= follow_up < 1e-9  # the fragment coalescing removes
        fabric.advance(follow_up)
        assert [m.throttled for m in models] == [True, True]

    def test_flow_bound_far_below_shapers_is_untouched(self):
        params = TokenBucketParams(
            peak_gbps=10.0, capped_gbps=1.0, replenish_gbps=0.95,
            capacity_gbit=1000.0,
        )
        fabric = Fabric(
            [TokenBucketModel(params) for _ in range(2)], [10.0, 10.0]
        )
        flow = fabric.add_flow(0, 1, 5.0)  # completes long before depletion
        fabric.compute_rates()
        assert fabric.horizon() == pytest.approx(flow.completion_time())

    def test_negative_coalesce_eps_rejected(self):
        with pytest.raises(ValueError, match="coalesce_eps"):
            Fabric([ConstantRateModel(10.0)], [10.0], coalesce_eps=-1e-9)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_non_finite_coalesce_eps_rejected(self, eps):
        with pytest.raises(ValueError, match="coalesce_eps"):
            Fabric([ConstantRateModel(10.0)], [10.0], coalesce_eps=eps)
