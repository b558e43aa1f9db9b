"""Golden-trace equivalence contract for the fluid-fabric engine.

The fixture in ``fixtures/golden_trace.json`` pins the complete output
of a fixed seeded multi-job stream — stage windows, runtimes, task
placement, and the full telemetry arrays — as produced by the
pre-refactor (dict/set water-filling) engine.  Any reimplementation of
the fabric or engine hot path must reproduce these values *exactly*:
the same max-min allocation, the same tie-breaking, and the same RNG
draw order, down to the last bit of every float.

Regenerate (only when the simulation semantics intentionally change,
with a PR note explaining why):

    PYTHONPATH=src python tests/simulator/test_golden_trace.py --regen
"""

import json
import math
from pathlib import Path

import numpy as np

from repro.netmodel import ScalarFleetAdapter, TokenBucketModel, TokenBucketParams
from repro.netmodel.fleet import TokenBucketFleet
from repro.simulator import Cluster, Fabric, NodeSpec, SparkEngine
from repro.scenarios.generate import job_stream, poisson_arrivals

FIXTURE = Path(__file__).parent / "fixtures" / "golden_trace.json"

_BUCKET = TokenBucketParams(
    peak_gbps=10.0,
    capped_gbps=1.0,
    replenish_gbps=0.95,
    capacity_gbit=400.0,
    resume_threshold_gbit=40.0,
)


def _run_reference_stream(fleet_mode: str = "auto", recorder=None):
    """A 6-node, 6-job mixed stream with shaper tier transitions.

    ``fleet_mode`` selects the shaper path: ``"auto"`` lets the fabric
    build the vectorized :class:`TokenBucketFleet` (the default for a
    homogeneous shaper list), ``"scalar"`` forces the per-model
    :class:`ScalarFleetAdapter` reference loop.  Both must reproduce
    the pinned fixture bit for bit — as must either path with an
    observability ``recorder`` attached.
    """
    rng = np.random.default_rng(20260727)
    cluster = Cluster(
        n_nodes=6,
        node_spec=NodeSpec(slots=4),
        link_model_factory=lambda node: TokenBucketModel(_BUCKET),
    )
    fabric = None
    if fleet_mode == "scalar":
        models = [TokenBucketModel(_BUCKET) for _ in range(6)]
        fabric = Fabric(
            ScalarFleetAdapter(models),
            [cluster.node_spec.ingress_gbps] * 6,
        )
    times = poisson_arrivals(rng, rate_per_min=3.0, n_jobs=6)
    stream = job_stream(rng, times, n_nodes=6, slots=4, data_scale=0.15)
    engine = SparkEngine(cluster, rng=rng, sample_interval_s=5.0)
    return engine.run_stream(
        stream, scheduler="fair", fabric=fabric, recorder=recorder
    )


def _snapshot(result) -> dict:
    """Plain-JSON projection of a StreamResult (floats round-trip)."""
    jobs = []
    for job in result.job_results:
        jobs.append(
            {
                "name": job.job_name,
                "submit_s": float(job.submit_s),
                "finish_s": float(job.finish_s),
                "runtime_s": float(job.runtime_s),
                "stage_windows": {
                    name: [float(start), float(end)]
                    for name, (start, end) in sorted(job.stage_windows.items())
                },
                "tasks_per_node": [float(v) for v in job.tasks_per_node],
            }
        )
    assert result.budgets is not None
    return {
        "scheduler": result.scheduler,
        "makespan_s": float(result.makespan_s),
        "jobs": jobs,
        "sample_times": [float(v) for v in result.sample_times],
        "egress_rates": [[float(v) for v in row] for row in result.egress_rates],
        "budgets": [[float(v) for v in row] for row in result.budgets],
    }


def test_golden_trace_matches_pre_refactor_engine():
    snapshot = _snapshot(_run_reference_stream())
    pinned = json.loads(FIXTURE.read_text())
    # Compare piecewise for debuggable failures before the full check.
    assert snapshot["makespan_s"] == pinned["makespan_s"]
    assert [j["runtime_s"] for j in snapshot["jobs"]] == [
        j["runtime_s"] for j in pinned["jobs"]
    ]
    for got, want in zip(snapshot["jobs"], pinned["jobs"]):
        assert got["stage_windows"] == want["stage_windows"], got["name"]
    assert snapshot["sample_times"] == pinned["sample_times"]
    assert snapshot["egress_rates"] == pinned["egress_rates"]
    assert snapshot["budgets"] == pinned["budgets"]
    assert snapshot == pinned


def test_golden_trace_matches_through_scalar_adapter_path():
    """The per-model reference loop reproduces the same pinned trace."""
    snapshot = _snapshot(_run_reference_stream(fleet_mode="scalar"))
    pinned = json.loads(FIXTURE.read_text())
    assert snapshot == pinned


def test_golden_trace_unchanged_with_recorder_attached():
    """Full observability (metrics + scrapes + spans) observes only.

    The recorder hooks sit on the engine's hottest paths; this is the
    contract that they never perturb the simulation: the pinned trace
    must survive bit for bit with everything enabled, on both the
    vectorized and the scalar shaper path.
    """
    from repro.obs import ObsRecorder

    pinned = json.loads(FIXTURE.read_text())
    for mode in ("auto", "scalar"):
        recorder = ObsRecorder(scrape_interval_s=5.0, window_s=60.0)
        snapshot = _snapshot(_run_reference_stream(mode, recorder=recorder))
        assert snapshot == pinned, mode
        # And the recorder actually observed the run.
        assert recorder.task_latency.count > 0
        assert len(recorder.tracer.spans("job")) == 6
        assert recorder.series()["active_flows"].times.size > 0


def test_reference_stream_uses_vectorized_fleet_by_default():
    """Guards the comparison above: "auto" really is the fleet path."""
    cluster = Cluster(
        n_nodes=6,
        node_spec=NodeSpec(slots=4),
        link_model_factory=lambda node: TokenBucketModel(_BUCKET),
    )
    assert isinstance(cluster.build_fabric().fleet, TokenBucketFleet)


def test_snapshot_is_finite_and_consistent():
    """The reference stream itself stays sane (guards fixture regen)."""
    snapshot = _snapshot(_run_reference_stream())
    assert all(math.isfinite(j["runtime_s"]) for j in snapshot["jobs"])
    assert snapshot["makespan_s"] >= max(j["finish_s"] for j in snapshot["jobs"]) - 1e-9
    assert len(snapshot["sample_times"]) == len(snapshot["egress_rates"][0])


if __name__ == "__main__":
    import sys

    if "--regen" not in sys.argv:
        raise SystemExit("pass --regen to overwrite the pinned fixture")
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(
        json.dumps(_snapshot(_run_reference_stream()), indent=1) + "\n"
    )
    print(f"wrote {FIXTURE}")
