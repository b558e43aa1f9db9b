"""Tests for the job descriptions: stages and job DAGs."""

import pytest

from repro.simulator import JobSpec, StageSpec


class TestStageSpec:
    def test_network_gbit(self):
        stage = StageSpec(
            name="s", num_tasks=4, compute_s=1.0,
            shuffle_gbit=100.0, input_gbit=50.0, input_locality=0.8,
        )
        assert stage.network_gbit == pytest.approx(110.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            StageSpec(name="s", num_tasks=0, compute_s=1.0)
        with pytest.raises(ValueError):
            StageSpec(name="s", num_tasks=1, compute_s=-1.0)
        with pytest.raises(ValueError):
            StageSpec(name="s", num_tasks=1, compute_s=1.0, input_locality=1.5)
        with pytest.raises(ValueError):
            StageSpec(name="s", num_tasks=1, compute_s=1.0, shuffle_gbit=-1.0)


class TestJobSpec:
    def test_topological_order_enforced(self):
        with pytest.raises(ValueError):
            JobSpec(
                name="bad",
                stages=(
                    StageSpec(name="a", num_tasks=1, compute_s=1.0, parents=(0,)),
                ),
            )
        with pytest.raises(ValueError):
            JobSpec(
                name="bad",
                stages=(
                    StageSpec(name="a", num_tasks=1, compute_s=1.0),
                    StageSpec(name="b", num_tasks=1, compute_s=1.0, parents=(5,)),
                ),
            )

    def test_empty_job_rejected(self):
        with pytest.raises(ValueError):
            JobSpec(name="empty", stages=())

    def test_totals(self):
        job = JobSpec(
            name="j",
            stages=(
                StageSpec(name="a", num_tasks=10, compute_s=2.0),
                StageSpec(
                    name="b", num_tasks=5, compute_s=4.0,
                    shuffle_gbit=100.0, parents=(0,),
                ),
            ),
        )
        assert job.total_compute_s == pytest.approx(40.0)
        assert job.total_network_gbit == pytest.approx(100.0)
        assert job.network_intensity(10.0) == pytest.approx(10.0 / 40.0)
