"""Per-job telemetry is a read-only window of the stream's telemetry.

A stream result records its samples once.  Each job's ``sample_times``,
``egress_rates`` and ``budgets`` are basic slices of the stream arrays
covering ``[submit_s, finish_s]``, and no result telemetry array is
writeable, so no caller can write through one job's window into
another's.
"""

import numpy as np
import pytest

from repro.cloud.providers import default_providers
from repro.simulator import Cluster, NodeSpec, SparkEngine
from repro.workloads.hibench import build_terasort
from tests.serving.test_serving_state import open_loop
from tests.simulator.test_multijob import bucket_cluster, shuffle_job


def multi_job_stream(n_jobs=5, seed=3):
    rng = np.random.default_rng(seed)
    submits = np.cumsum(rng.exponential(4.0, size=n_jobs)) - 2.0
    arrivals = [
        (
            max(0.0, float(t)),
            shuffle_job(f"job{i}", shuffle=100.0 + 40.0 * (i % 3), tasks=12, cov=0.2),
        )
        for i, t in enumerate(submits)
    ]
    engine = SparkEngine(bucket_cluster(400.0), rng=np.random.default_rng(seed))
    return engine.run_stream(arrivals, scheduler="fair")


def late_lone_job():
    """A c5.large terasort on 4 nodes, the stream's only job, at t=30 s."""
    rng = np.random.default_rng(0)
    provider = default_providers()["amazon"]
    models = [provider.link_model("c5.large", rng) for _ in range(4)]
    cluster = Cluster(
        n_nodes=4, node_spec=NodeSpec(slots=4), link_model_factory=models.__getitem__
    )
    job = build_terasort(n_nodes=4, slots=4, data_scale=0.05)
    return SparkEngine(cluster, rng=rng).run_stream([(30.0, job)])


@pytest.fixture(scope="module", params=["multi_job", "late_lone_job"])
def stream(request):
    return multi_job_stream() if request.param == "multi_job" else late_lone_job()


def mask_window(stream, job):
    """The reference: the job's samples picked by a boolean mask."""
    mask = (stream.sample_times >= job.submit_s - 1e-9) & (
        stream.sample_times <= job.finish_s + 1e-9
    )
    budgets = None if stream.budgets is None else stream.budgets[:, mask]
    return stream.sample_times[mask], stream.egress_rates[:, mask], budgets


def telemetry(result):
    arrays = [result.sample_times, result.egress_rates, result.budgets]
    return [arr for arr in arrays if arr is not None]


class TestWindows:
    def test_window_equals_the_boolean_mask_window(self, stream):
        assert stream.budgets is not None
        for job in stream.job_results:
            times, rates, budgets = mask_window(stream, job)
            assert job.sample_times.tolist() == times.tolist()
            assert job.egress_rates.tolist() == rates.tolist()
            assert job.budgets.tolist() == budgets.tolist()

    def test_stream_sample_times_never_decrease(self, stream):
        assert np.all(np.diff(stream.sample_times) >= 0.0)

    def test_windows_share_the_stream_arrays(self, stream):
        for job in stream.job_results:
            assert job.sample_times.size > 0
            for window, whole in zip(telemetry(job), telemetry(stream)):
                assert np.shares_memory(window, whole)

    def test_every_telemetry_array_is_read_only(self, stream):
        for result in [stream, *stream.job_results]:
            for arr in telemetry(result):
                with pytest.raises(ValueError, match="read-only"):
                    arr[..., 0] = -1.0

    def test_late_lone_job_sees_no_sample_before_its_submit(self):
        result = late_lone_job()
        (job,) = result.job_results
        assert job.submit_s == 30.0
        assert result.sample_times[0] == 0.0
        assert job.sample_times[0] >= job.submit_s - 1e-9
        assert job.sample_times.size < result.sample_times.size


def test_job_results_own_no_telemetry_bytes_as_the_stream_grows():
    for n_jobs in (4, 8, 16, 32):
        result = multi_job_stream(n_jobs=n_jobs, seed=n_jobs)
        assert len(result) == n_jobs
        owned = sum(
            arr.nbytes
            for job in result.job_results
            for arr in telemetry(job)
            if arr.flags.owndata
        )
        assert owned == 0


def test_serving_telemetry_is_read_only():
    result = open_loop(duration_s=5.0)
    assert result.sample_times.size > 0
    for arr in telemetry(result):
        with pytest.raises(ValueError, match="read-only"):
            arr[..., 0] = -1.0
