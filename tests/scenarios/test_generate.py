"""Tests for randomized workload generation."""

from itertools import islice

import numpy as np
import pytest

from repro.scenarios import (
    TPCH_LIKE_QUERIES,
    RandomDagConfig,
    WorkloadMix,
    burst_arrivals,
    burst_arrivals_iter,
    job_stream,
    poisson_arrivals,
    poisson_arrivals_iter,
    random_job,
    tpch_like_job,
)


class TestRandomJob:
    def test_valid_dag(self):
        # JobSpec.__post_init__ enforces topological parent order, so
        # constructing 50 random jobs exercises DAG validity directly.
        rng = np.random.default_rng(0)
        for i in range(50):
            job = random_job(rng, name=f"j{i}")
            assert len(job.stages) >= 3
            assert job.stages[0].parents == ()
            assert job.stages[0].input_gbit > 0

    def test_every_nonroot_stage_has_parents(self):
        rng = np.random.default_rng(1)
        job = random_job(rng)
        for stage in job.stages[1:]:
            assert stage.parents
            assert stage.shuffle_gbit > 0

    def test_same_seed_same_job(self):
        j1 = random_job(np.random.default_rng(42))
        j2 = random_job(np.random.default_rng(42))
        assert j1 == j2

    def test_different_seed_different_job(self):
        j1 = random_job(np.random.default_rng(1))
        j2 = random_job(np.random.default_rng(2))
        assert j1 != j2

    def test_shuffle_volumes_are_skewed(self):
        # Lognormal skew: the population must span network-bound to
        # compute-bound, i.e. max/min shuffle ratio well over 10x.
        rng = np.random.default_rng(3)
        volumes = [
            s.shuffle_gbit
            for _ in range(40)
            for s in random_job(rng).stages
            if s.shuffle_gbit > 0
        ]
        assert max(volumes) / min(volumes) > 10.0

    def test_data_scale_scales_volumes(self):
        small = random_job(np.random.default_rng(5), data_scale=0.1)
        large = random_job(np.random.default_rng(5), data_scale=1.0)
        assert large.total_network_gbit == pytest.approx(
            10.0 * small.total_network_gbit
        )

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            RandomDagConfig(min_stages=5, max_stages=3)
        with pytest.raises(ValueError):
            RandomDagConfig(p_side_input=1.5)
        with pytest.raises(ValueError):
            random_job(np.random.default_rng(0), data_scale=0.0)


class TestTpchLike:
    def test_all_templates_build(self):
        rng = np.random.default_rng(0)
        for query in TPCH_LIKE_QUERIES:
            job = tpch_like_job(query, rng)
            assert job.name == f"tpch-q{query}"
            # Star-join templates must actually fan in somewhere.
            if query in (3, 5, 18, 21):
                assert any(len(s.parents) >= 2 for s in job.stages)

    def test_incarnations_jitter(self):
        rng = np.random.default_rng(0)
        a = tpch_like_job(5, rng)
        b = tpch_like_job(5, rng)
        assert a.total_network_gbit != b.total_network_gbit

    def test_unknown_query(self):
        with pytest.raises(KeyError):
            tpch_like_job(99, np.random.default_rng(0))


class TestArrivals:
    def test_poisson_starts_at_zero_and_is_sorted(self):
        times = poisson_arrivals(np.random.default_rng(0), 2.0, n_jobs=20)
        assert times[0] == 0.0
        assert np.all(np.diff(times) >= 0)
        assert times.size == 20

    def test_poisson_mean_gap_matches_rate(self):
        times = poisson_arrivals(np.random.default_rng(1), 6.0, n_jobs=2_000)
        assert np.diff(times).mean() == pytest.approx(10.0, rel=0.1)

    def test_burst_shape(self):
        times = burst_arrivals(
            np.random.default_rng(0), n_bursts=3, jobs_per_burst=4,
            burst_spacing_s=300.0, jitter_s=2.0,
        )
        assert times.size == 12
        assert times[0] == 0.0
        # Jobs within a burst land close together; bursts are far apart.
        gaps = np.diff(times)
        assert np.sum(gaps > 100.0) == 2

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            poisson_arrivals(rng, 0.0, n_jobs=3)
        with pytest.raises(ValueError):
            poisson_arrivals(rng, 1.0, n_jobs=0)
        with pytest.raises(ValueError):
            burst_arrivals(rng, 0, 1, 60.0)


class TestArrivalIterators:
    def test_poisson_iter_matches_eager_prefix(self):
        # Same seed, same RNG consumption order: the lazy form must
        # reproduce the eager array bit for bit up to the duration cut.
        eager = poisson_arrivals(
            np.random.default_rng(11), 2.0, n_jobs=200
        )
        lazy = list(
            islice(
                poisson_arrivals_iter(
                    np.random.default_rng(11), 2.0, duration_s=1e9
                ),
                50,
            )
        )
        assert lazy == list(eager[:50])

    def test_burst_iter_matches_eager(self):
        eager = burst_arrivals(
            np.random.default_rng(13), n_bursts=4, jobs_per_burst=3,
            burst_spacing_s=120.0,
        )
        lazy = list(
            islice(
                burst_arrivals_iter(
                    np.random.default_rng(13), jobs_per_burst=3,
                    burst_spacing_s=120.0, duration_s=1e9,
                ),
                eager.size,
            )
        )
        assert lazy == list(eager)

    def test_duration_bounds_and_start_at_zero(self):
        for times in (
            list(poisson_arrivals_iter(np.random.default_rng(0), 6.0, 300.0)),
            list(
                burst_arrivals_iter(
                    np.random.default_rng(0), 5, 60.0, 300.0
                )
            ),
        ):
            assert times[0] == 0.0
            assert all(t < 300.0 for t in times)
            assert times == sorted(times)

    def test_lazy_consumption(self):
        # Building the generator draws nothing; consuming k arrivals
        # advances the RNG by exactly k - 1 exponential draws.
        rng = np.random.default_rng(7)
        before = rng.bit_generator.state
        gen = poisson_arrivals_iter(rng, 2.0, duration_s=1e9)
        assert rng.bit_generator.state == before
        assert next(gen) == 0.0
        assert rng.bit_generator.state == before
        next(gen)
        assert rng.bit_generator.state != before

    def test_iter_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            next(poisson_arrivals_iter(rng, 0.0, 10.0))
        with pytest.raises(ValueError):
            next(poisson_arrivals_iter(rng, 1.0, 0.0))
        with pytest.raises(ValueError):
            next(burst_arrivals_iter(rng, 0, 60.0, 10.0))
        with pytest.raises(ValueError):
            next(burst_arrivals_iter(rng, 1, 60.0, 10.0, jitter_s=-1.0))


class TestJobStream:
    def test_stream_is_deterministic(self):
        def build():
            rng = np.random.default_rng(9)
            return job_stream(rng, poisson_arrivals(rng, 2.0, n_jobs=6))

        assert build() == build()

    def test_pure_mixes(self):
        rng = np.random.default_rng(0)
        times = poisson_arrivals(rng, 2.0, n_jobs=8)
        tpch_only = job_stream(
            rng, times, mix=WorkloadMix(0.0, 1.0, 0.0)
        )
        assert all(job.name.startswith("tpch-") for _, job in tpch_only)
        rand_only = job_stream(
            rng, times, mix=WorkloadMix(1.0, 0.0, 0.0)
        )
        assert all(job.name.startswith("rand-") for _, job in rand_only)

    def test_bad_mix(self):
        with pytest.raises(ValueError):
            WorkloadMix(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            WorkloadMix(-1.0, 1.0, 1.0)
