"""Tests of the benchmark's own machinery: tracing, restoration, sensitivity."""

from __future__ import annotations

import gc
import statistics
import time
import types

import pytest

import calibrate
import layers
import workloads
from calibrate import untimed
from tracing import LayerTracer

SMALL_DAG = dict(n_jobs=6, n_nodes=8, arrival_rate_per_min=30.0)
SMALL_CAMPAIGN = dict(providers=("amazon",), schedulers=("fifo", "fair"),
                      arrival_rates=(1.0, 2.0, 4.0))
#: About 90 concurrent flows, so water-fill mostly takes its vectorized path.
SHORT_DAG = dict(n_jobs=2, n_nodes=16, data_scale=1.0)


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(workloads, "DAG_CLUSTERS", 1)
    monkeypatch.setattr(workloads, "DAG_STREAM", {**workloads.DAG_STREAM, **SMALL_DAG})
    monkeypatch.setattr(workloads, "CAMPAIGN", {**workloads.CAMPAIGN, **SMALL_CAMPAIGN})


def traced_pass(workload, run_id=1, clock=time.perf_counter):
    tracer = LayerTracer(clock=clock)
    layers.install(tracer)
    try:
        done, wall = tracer.region(workload.run_pass, run_id)
    finally:
        tracer.remove()
    return tracer, done, wall


class FakeClock:
    """A clock that only moves when the toy layers say so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def spend(self, seconds):
        self.now += seconds


def toy_layers(clock):
    owner = types.SimpleNamespace()

    def leaf():
        clock.spend(1.0)

    def middle():
        clock.spend(2.0)
        owner.leaf()
        owner.leaf()

    def top():
        owner.middle()
        clock.spend(0.5)

    owner.leaf, owner.middle, owner.top = leaf, middle, top
    return owner


def test_self_times_and_unattributed_sum_to_the_wall():
    clock = FakeClock()
    owner = toy_layers(clock)
    tracer = LayerTracer(clock=clock)
    for attr in ("leaf", "middle", "top"):
        tracer.wrap(owner, attr, f"toy.{attr}")

    def run():
        clock.spend(0.25)  # root work no wrapper covers
        owner.top()

    _, wall = tracer.region(run, run_id=1)
    tracer.remove()
    assert wall == 4.75
    assert tracer.self_s("toy.leaf") == 2.0 and tracer.calls("toy.leaf") == 2
    assert tracer.self_s("toy.middle") == 2.0
    assert tracer.self_s("toy.top") == 0.5
    assert tracer.counts["trace.unattributed_s"] == 0.25
    assert tracer.attributed_s() + tracer.counts["trace.unattributed_s"] == wall
    parents = {span[1]: span[4] for span in tracer.spans}
    ids = {span[1]: span[0] for span in tracer.spans}
    assert parents["toy.leaf"] == ids["toy.middle"]
    assert parents["toy.middle"] == ids["toy.top"]
    assert parents["toy.top"] == 0


def test_self_time_accounting_on_a_real_pass(tmp_path, small):
    tracer, _, wall = traced_pass(workloads.DagStream(0, tmp_path, untimed))
    attributed = tracer.attributed_s() + tracer.counts["trace.unattributed_s"]
    assert attributed == pytest.approx(wall, rel=1e-9)
    assert tracer.calls("fabric.compute_rates") > 0
    assert 0.0 <= tracer.counts["trace.unattributed_s"] / wall < 0.05


def test_wrappers_are_restored_even_when_a_pass_raises(tmp_path, small):
    from repro.simulator.core import EventCore
    from repro.simulator.fabric import Fabric

    originals = (Fabric.compute_rates, EventCore.step_prologue)
    tracer = LayerTracer()
    layers.install(tracer)
    assert Fabric.compute_rates is not originals[0]

    def boom():
        raise RuntimeError("pass failed")

    with pytest.raises(RuntimeError):
        try:
            tracer.region(boom, run_id=1)
        finally:
            tracer.remove()
    assert (Fabric.compute_rates, EventCore.step_prologue) == originals
    assert tracer.leftovers() == []
    assert not hasattr(Fabric.compute_rates, "__wrapped__")


def test_traced_outputs_equal_untraced_outputs(tmp_path, small):
    workload = workloads.CampaignSharded(0, tmp_path, untimed)
    untraced = workload.run_pass()
    _, traced, _ = traced_pass(workload)
    assert traced.outputs == untraced.outputs
    assert not traced.problems


def slowed_compute_rates(monkeypatch, factor=0.10):
    """Make every Fabric.compute_rates call use ``factor`` more CPU time."""
    from repro.simulator.fabric import Fabric

    original = Fabric.compute_rates

    def compute_rates(self):
        t0 = time.thread_time()
        result = original(self)
        until = time.thread_time() + factor * (time.thread_time() - t0)
        while time.thread_time() < until:
            pass
        return result

    monkeypatch.setattr(Fabric, "compute_rates", compute_rates)


def fastest_calls_s(tracers, name):
    """Seconds of ``name``'s calls, each at its fastest over repeated passes.

    Every pass makes the same calls in the same order, and contention
    only ever slows a call, so the fastest repeat of each call is the
    steadiest estimate of its cost.  The passes are timed in CPU time,
    which other processes on the machine barely move.
    """
    durations = [
        [t1 - t0 for _, span, t0, t1, _, _ in tracer.spans if span == name]
        for tracer in tracers
    ]
    return sum(map(min, zip(*durations)))


def same_start(workload):
    """A pass traced in CPU time from an empty collector generation.

    Where a collection starts depends on every allocation before it;
    collecting first makes collections land in the same calls each pass.
    """
    gc.collect()
    return traced_pass(workload, clock=time.thread_time)[0]


def test_injected_waterfill_slowdown_is_caught_at_layer_level(
    tmp_path, monkeypatch
):
    factor = 0.10
    monkeypatch.setattr(workloads, "DAG_CLUSTERS", 1)
    monkeypatch.setattr(workloads, "DAG_STREAM", {**workloads.DAG_STREAM, **SHORT_DAG})
    monkeypatch.setattr(workloads, "CAMPAIGN", {**workloads.CAMPAIGN, **SMALL_CAMPAIGN})
    dag = workloads.DagStream(0, tmp_path / "dag", untimed)
    campaign = workloads.CampaignSharded(0, tmp_path / "campaign", untimed)
    dag_tracers = {"base": [], "slow": []}
    campaign_tracers = {"base": [], "slow": []}
    for _ in range(7):
        for leg in ("base", "slow"):
            with monkeypatch.context() as patch:
                if leg == "slow":
                    slowed_compute_rates(patch, factor)
                dag_tracers[leg].append(same_start(dag))
                tracer = same_start(campaign)
                assert tracer.calls("store.put") == len(campaign.cells)
                campaign_tracers[leg].append(tracer)

    def rise(tracers, name):
        return fastest_calls_s(tracers["slow"], name) / fastest_calls_s(
            tracers["base"], name
        ) - 1.0

    # Water-fill's self time rises by about the injected factor ...
    assert factor / 2 < rise(dag_tracers, "fabric.compute_rates") < factor * 2
    # ... and store.put on campaign_sharded, which never calls it, stays flat.
    assert abs(rise(campaign_tracers, "store.put")) < 0.25


def test_kernel_time_ignores_the_programs_heap():
    """With a large live object graph, no collection starts inside the
    kernel, the kernel does not bring the program's next collection
    forward, and its time stays the same."""
    collections = []

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    def kernel_median():
        return statistics.median(calibrate.kernel_s() for _ in range(30))

    bare = [kernel_median()]
    graph = [[(i, str(i)) for i in range(100)] for _ in range(3_000)]
    loaded = [kernel_median()]
    previous = gc.get_threshold()
    gc.callbacks.append(count)
    gc.set_threshold(1, 1, 1)  # any tracked allocation would collect
    try:
        for _ in range(3):
            before = len(collections)
            calibrate.kernel_s()
            assert len(collections) == before
    finally:
        gc.callbacks.remove(count)
        gc.set_threshold(*previous)
    for _ in range(3):
        allocations = gc.get_count()
        calibrate.kernel_s()
        assert gc.get_count() == allocations
    del graph
    bare.append(kernel_median())
    assert min(loaded) / min(bare) == pytest.approx(1.0, abs=0.25)
