"""Identity tests for the fabric's array-based reference kernels.

The ``repro.simulator._kernels`` functions are the fabric's hot loops
re-expressed over numpy arrays with CSR adjacency.  The contract is
bit-exactness: each ``*_py`` function must reproduce the fabric's own
list loops and numpy sweeps to the last bit.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.netmodel import ConstantRateModel
from repro.simulator import Fabric
from repro.simulator import _kernels
from repro.simulator.fabric import _COMPLETE_EPS_GBIT, _SWEEP_CUTOVER


def _random_instance(seed, n_flows, n_nodes=7):
    rng = np.random.default_rng(seed)
    flows = []
    for _ in range(n_flows):
        src, dst = rng.choice(n_nodes, size=2, replace=False)
        flows.append((int(src), int(dst), float(rng.uniform(1, 100))))
    egress = [float(v) for v in rng.uniform(1.0, 12.0, size=n_nodes)]
    ingress = [float(v) for v in rng.uniform(1.0, 12.0, size=n_nodes)]
    return flows, egress, ingress


def _assert_node_lists(fab):
    # Each node's out- and in-list hold exactly the insertion-ordered
    # indices of the flows leaving and entering it.
    n = fab._n
    src, dst = fab._src[:n].tolist(), fab._dst[:n].tolist()
    for node in range(fab.n_nodes):
        assert [f._index for f in fab._out_flows[node]] == [
            i for i in range(n) if src[i] == node
        ]
        assert [f._index for f in fab._in_flows[node]] == [
            i for i in range(n) if dst[i] == node
        ]
    # The kept rank keys: 2 * (first flow id), plus 1 for ingress, for
    # exactly the non-empty resources; and the count of sending nodes.
    handles = fab._handles
    kept = {}
    for node in range(fab.n_nodes):
        leaving = [i for i in range(n) if src[i] == node]
        if leaving:
            kept[2 * handles[leaving[0]].flow_id] = node
        entering = [i for i in range(n) if dst[i] == node]
        if entering:
            kept[2 * handles[entering[0]].flow_id + 1] = fab.n_nodes + node
    assert fab._rank == kept
    assert fab._n_senders == len(set(src))


def _flow_rows(fab):
    n = fab._n
    return list(
        zip(
            fab._src[:n].tolist(),
            fab._dst[:n].tolist(),
            fab._remaining[:n].tolist(),
            fab._rate[:n].tolist(),
        )
    )


def _assert_compacted(fab, handles, before, dropped):
    # ``handles`` held rows ``before`` in order; after dropping the
    # positions in ``dropped`` the survivors sit at 0, 1, ... unchanged.
    kept = [k for k in range(len(before)) if k not in dropped]
    assert _flow_rows(fab) == [before[k] for k in kept]
    assert [handles[k]._index for k in kept] == list(range(fab._n))


class TestWaterfillKernel:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_flows=st.integers(min_value=1, max_value=120),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_fabric_reference_paths(self, seed, n_flows):
        flows, egress, ingress = _random_instance(seed, n_flows)
        # Run the kernel source directly on the same inputs.
        n = len(flows)
        src = np.array([f[0] for f in flows], dtype=np.intp)
        dst = np.array([f[1] for f in flows], dtype=np.intp)
        rate = np.zeros(n)
        _kernels.waterfill_py(
            src, dst, np.array(egress), np.array(ingress), rate
        )
        fab = Fabric(
            egress_models=[ConstantRateModel(e) for e in egress],
            ingress_caps_gbps=ingress,
        )
        for f in flows:
            fab.add_flow(*f)
        fab.compute_rates()
        assert fab._rate[:n].tolist() == rate.tolist()

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_before=st.integers(min_value=2, max_value=60),
        n_after=st.integers(min_value=0, max_value=30),
    )
    @settings(max_examples=60, deadline=None)
    # Exact ties decide the bits only rarely; these draws are known to
    # change the rates if a resource keeps the rank of a departed flow.
    @example(seed=60, n_before=20, n_after=10)
    @example(seed=143, n_before=8, n_after=4)
    def test_matches_fabric_after_churn(self, seed, n_before, n_after):
        # Ranks move only when flows leave: add, drop a seeded subset
        # that always holds the first flow of some resource, add more.
        # Flows leave one at a time (remove_flow) and together (several
        # completing in one advance).  Capacities come from a small set
        # on few nodes so exact fair-share ties, where the rank decides,
        # are common.
        flows, _, _ = _random_instance(seed, n_before + n_after, n_nodes=4)
        rng = np.random.default_rng(seed + 1)
        egress = rng.choice([1.0, 7.0, 10.0], size=4).tolist()
        ingress = rng.choice([1.0, 7.0, 10.0], size=4).tolist()
        fab = Fabric(
            egress_models=[ConstantRateModel(e) for e in egress],
            ingress_caps_gbps=ingress,
        )
        handles = [fab.add_flow(*f) for f in flows[:n_before]]
        fab.compute_rates()
        doomed = [0] + [i for i in range(1, n_before) if rng.random() < 0.5]
        rng.shuffle(doomed)
        removed, completing = doomed[::2], doomed[1::2]
        before = _flow_rows(fab)
        for i in removed:
            fab.remove_flow(handles[i])
        _assert_compacted(fab, handles, before, set(removed))
        _assert_node_lists(fab)
        for i in completing:
            handles[i].remaining_gbit = 0.0
        # advance() would refresh the rates first anyway; refreshing
        # them here lets the rows be recorded just before compaction.
        fab.compute_rates()
        live = [h for h in handles if h._index >= 0]
        before = _flow_rows(fab)
        assert len(fab.advance(0.0)) == len(completing)
        _assert_compacted(
            fab, live, before, {live.index(handles[i]) for i in completing}
        )
        _assert_node_lists(fab)
        for f in flows[n_before:]:
            fab.add_flow(*f)
        fab.compute_rates()
        n = fab._n
        rate = np.zeros(n)
        _kernels.waterfill_py(
            fab._src[:n], fab._dst[:n], np.array(egress), np.array(ingress), rate
        )
        assert fab._rate[:n].tolist() == rate.tolist()
        _assert_node_lists(fab)

    def test_rank_keys_follow_emptied_and_refilled_nodes(self):
        fab = Fabric(
            egress_models=[ConstantRateModel(5.0) for _ in range(3)],
            ingress_caps_gbps=[5.0] * 3,
        )
        first = [fab.add_flow(0, 1, 10.0), fab.add_flow(0, 2, 10.0)]
        _assert_node_lists(fab)
        for flow in first:
            flow.remaining_gbit = 0.0
        assert len(fab.advance(0.0)) == 2
        assert fab._rank == {} and fab._n_senders == 0
        fab.add_flow(2, 0, 10.0)
        fab.add_flow(1, 0, 10.0)
        _assert_node_lists(fab)
        assert fab._rank == {4: 2, 5: 3, 6: 1}

    def test_exhausted_resources_freeze_at_zero(self):
        # Three flows out of node 0 with zero egress: all frozen at 0.
        src = np.zeros(3, dtype=np.intp)
        dst = np.array([1, 2, 3], dtype=np.intp)
        rate = np.full(3, -1.0)
        _kernels.waterfill_py(
            src, dst, np.array([0.0, 5.0, 5.0, 5.0]), np.full(4, 5.0), rate
        )
        assert rate.tolist() == [0.0, 0.0, 0.0]


class TestFlowMinBoundKernel:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_matches_horizon_scan(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        remaining = rng.uniform(-1.0, 50.0, size=n)
        rate = rng.uniform(0.0, 5.0, size=n)
        rate[rng.random(n) < 0.3] = 0.0
        # Scalar reference: the fabric's horizon() classification.
        expected = np.inf
        for rem, r in zip(remaining.tolist(), rate.tolist()):
            if rem <= 0.0:
                completion = 0.0
            elif r <= 0.0:
                continue
            else:
                completion = rem / r
            expected = min(expected, completion)
        assert _kernels.flow_min_bound_py(remaining, rate) == expected

    def test_empty_is_unbounded(self):
        assert _kernels.flow_min_bound_py(np.empty(0), np.empty(0)) == np.inf


class TestAdvanceFlowsKernel:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_matches_numpy_advance(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        remaining = rng.uniform(0.0, 10.0, size=n)
        rate = rng.uniform(0.0, 5.0, size=n)
        dt = float(rng.uniform(0.0, 3.0))
        eps = 1e-9
        expected = remaining - rate * dt
        expected_done = np.flatnonzero(expected <= eps)
        got = remaining.copy()
        scratch = np.empty(n, dtype=np.int64)
        count = _kernels.advance_flows_py(got, rate, dt, eps, scratch)
        assert got.tolist() == expected.tolist()
        assert scratch[:count].tolist() == expected_done.tolist()


class TestFlowSweeps:
    """``horizon``/``advance`` on both sides of the sweep cutover.

    At or below ``_SWEEP_CUTOVER`` live flows the list leg loops over
    the flows; above it, numpy ufuncs sweep the flow arrays.  Both must
    equal the kernel sources bit for bit, including zero-rate flows,
    volumes set to zero or below through a handle, and completions
    that land in the same step.
    """

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_flows=st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=60, deadline=None)
    @example(seed=1, n_flows=_SWEEP_CUTOVER)
    @example(seed=2, n_flows=_SWEEP_CUTOVER + 1)
    def test_matches_kernel_sources(self, seed, n_flows):
        flows, egress, ingress = _random_instance(seed, n_flows, n_nodes=24)
        fab = Fabric(
            egress_models=[ConstantRateModel(e) for e in egress],
            ingress_caps_gbps=ingress,
        )
        handles = [fab.add_flow(*f) for f in flows]
        fab.compute_rates()
        rng = np.random.default_rng(seed + 1)
        tied = rng.uniform(0.5, 5.0)
        # In a third of the draws some volumes drop to zero or below,
        # which bounds the step at zero.
        drained = 0.33 if rng.random() < 0.3 else 0.3
        for handle, u in zip(handles, rng.random(n_flows)):
            if u < 0.1:
                # -0.0 is stalled too: dividing by it must not bind.
                handle.rate_gbps = float(rng.choice([0.0, -0.0]))
            elif u < 0.3:
                # These complete in the same step as the earliest flow.
                handle.remaining_gbit = handle.rate_gbps * tied
            elif u < drained:
                handle.remaining_gbit = float(rng.choice([0.0, -1.0]))
        n = fab._n
        remaining = fab._remaining[:n].copy()
        rate = fab._rate[:n].copy()
        bound = fab.horizon()
        assert bound == _kernels.flow_min_bound_py(remaining, rate)
        dt = bound if bound < np.inf else 1.0
        scratch = np.empty(n, dtype=np.int64)
        count = _kernels.advance_flows_py(
            remaining, rate, dt, _COMPLETE_EPS_GBIT, scratch
        )
        completed = fab.advance(dt)
        assert completed == [handles[i] for i in scratch[:count]]
        assert [h.remaining_gbit for h in handles] == remaining.tolist()
        assert fab._n == n - count


class TestHorizonSkipPath:
    def test_skip_path_matches_full_scan(self):
        # After a completion-free advance the cached flow bound lets
        # horizon() skip the O(flows) scan; the returned bound must be
        # identical to a freshly-scanned fabric in the same state.
        from repro.netmodel import TokenBucketModel, TokenBucketParams

        params = TokenBucketParams(
            peak_gbps=10.0,
            capped_gbps=1.0,
            replenish_gbps=0.95,
            capacity_gbit=30.0,
            resume_threshold_gbit=5.0,
        )
        fab = Fabric(
            egress_models=[TokenBucketModel(params) for _ in range(4)],
            ingress_caps_gbps=[10.0] * 4,
        )
        fab.add_flow(0, 1, 500.0)
        fab.add_flow(2, 3, 800.0)
        fab.compute_rates()
        bounds = []
        for _ in range(6):
            h = fab.horizon()
            bounds.append(h)
            # Step short of the horizon so no flow completes and (for
            # sub-horizon steps) no shaper transitions: the cache stays
            # live and subsequent horizon() calls may skip the scan.
            fab.advance(h * 0.25)
        # Replay the same trajectory with the cache disabled after
        # every advance (forcing the full scan each time).
        fab2 = Fabric(
            egress_models=[TokenBucketModel(params) for _ in range(4)],
            ingress_caps_gbps=[10.0] * 4,
        )
        fab2.add_flow(0, 1, 500.0)
        fab2.add_flow(2, 3, 800.0)
        fab2.compute_rates()
        bounds2 = []
        for _ in range(6):
            fab2._flow_bound_valid = False
            h = fab2.horizon()
            bounds2.append(h)
            fab2.advance(h * 0.25)
            fab2._flow_bound_valid = False
        assert bounds == bounds2

    def test_cache_invalidated_by_mutations(self):
        fab = Fabric(
            egress_models=[ConstantRateModel(10.0) for _ in range(3)],
            ingress_caps_gbps=[10.0] * 3,
        )
        flow = fab.add_flow(0, 1, 100.0)
        fab.compute_rates()
        fab.horizon()
        assert fab._flow_bound_valid
        flow.remaining_gbit = 1.0
        assert not fab._flow_bound_valid
        # The refreshed scan sees the shrunken flow.
        assert fab.horizon() == 1.0 / flow.rate_gbps
        fab.add_flow(1, 2, 50.0)
        assert not fab._flow_bound_valid
        fab.compute_rates()
        fab.horizon()
        assert fab._flow_bound_valid
        fab.invalidate_rates()
        assert not fab._flow_bound_valid
