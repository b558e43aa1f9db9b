"""Tests for scenario-campaign orchestration."""

import math

import numpy as np
import pytest

from repro.measurement import TraceRepository
from repro.scenarios import (
    ScenarioCampaign,
    ScenarioConfig,
    ScenarioResult,
    run_scenario,
    scenario_matrix,
)

#: Small, fast cell used throughout: 4 nodes, 3 jobs, 5 % data scale.
FAST = dict(n_nodes=4, n_jobs=3, data_scale=0.05)


def fast_matrix(seed=7, **kwargs):
    defaults = dict(
        providers=("amazon",),
        arrival_rates=(2.0,),
        schedulers=("fifo", "fair"),
        seed=seed,
        **FAST,
    )
    defaults.update(kwargs)
    return scenario_matrix(**defaults)


class TestScenarioConfig:
    def test_id_is_content_hash(self):
        a = ScenarioConfig(seed=1)
        b = ScenarioConfig(seed=1)
        c = ScenarioConfig(seed=2)
        assert a.scenario_id == b.scenario_id
        assert a.scenario_id != c.scenario_id
        assert a.scenario_id.startswith("scn-")

    def test_int_and_float_fields_hash_equally(self):
        # json.dumps renders 1 and 1.0 differently; equal configs must
        # share one id or numerically identical sweeps miss the cache.
        a = ScenarioConfig(arrival_rate_per_min=1, data_scale=1)
        b = ScenarioConfig(arrival_rate_per_min=1.0, data_scale=1.0)
        assert a == b
        assert a.scenario_id == b.scenario_id
        ids_int = [c.scenario_id for c in fast_matrix(arrival_rates=(1,))]
        ids_float = [c.scenario_id for c in fast_matrix(arrival_rates=(1.0,))]
        assert ids_int == ids_float

    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioConfig(scheduler="lottery")
        with pytest.raises(ValueError):
            ScenarioConfig(arrival="clockwork")
        with pytest.raises(ValueError):
            ScenarioConfig(workload="webserving")
        with pytest.raises(ValueError):
            ScenarioConfig(n_jobs=0)
        with pytest.raises(ValueError):
            ScenarioConfig(arrival_rate_per_min=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("arrival_rate_per_min", math.nan),
            ("arrival_rate_per_min", math.inf),
            ("data_scale", math.nan),
            ("data_scale", math.inf),
            ("deadline_slack", math.nan),
        ],
    )
    def test_non_finite_fields_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            ScenarioConfig(**{field: value})


class TestRunScenario:
    def test_deterministic(self):
        config = ScenarioConfig(seed=7, **FAST)
        r1, r2 = run_scenario(config), run_scenario(config)
        assert np.array_equal(r1.runtimes, r2.runtimes)
        assert r1.makespan_s == r2.makespan_s
        assert r1.aggregate_row() == r2.aggregate_row()

    def test_burst_arrival_and_providers(self):
        for provider, instance in (
            ("google", "gce-4core"),
            ("hpccloud", "hpccloud-8core"),
        ):
            config = ScenarioConfig(
                provider_name=provider,
                instance_name=instance,
                arrival="burst",
                seed=3,
                **FAST,
            )
            result = run_scenario(config)
            assert result.runtimes.size == config.n_jobs
            assert (result.runtimes > 0).all()

    def test_aggregate_row_shape(self):
        row = run_scenario(ScenarioConfig(seed=7, **FAST)).aggregate_row()
        assert row["provider"] == "amazon"
        assert row["n_jobs"] == 3
        assert row["cov"] >= 0.0
        assert row["ci_widened"] is None  # too few jobs for CONFIRM

    def test_repository_roundtrip_preserves_row(self, tmp_path):
        result = run_scenario(ScenarioConfig(seed=7, **FAST))
        repo = TraceRepository(tmp_path)
        repo.store(result.config.scenario_id, result.to_campaign_result())
        reloaded = ScenarioResult.from_campaign_result(
            result.config, repo.load(result.config.scenario_id)
        )
        assert reloaded.cached
        assert reloaded.aggregate_row() == result.aggregate_row()


class TestScenarioMatrix:
    def test_cross_product_and_distinct_seeds(self):
        configs = fast_matrix(
            providers=("amazon", "google"), arrival_rates=(1.0, 4.0)
        )
        assert len(configs) == 8
        assert len({c.seed for c in configs}) == 8
        assert len({c.scenario_id for c in configs}) == 8

    def test_matrix_is_stable(self):
        ids1 = [c.scenario_id for c in fast_matrix()]
        ids2 = [c.scenario_id for c in fast_matrix()]
        assert ids1 == ids2

    def test_extending_an_axis_preserves_existing_cells(self):
        # The incremental-caching promise: adding one arrival rate must
        # not change the seeds/ids of cells that already existed, or a
        # warm repository would silently recompute most of the sweep.
        base = fast_matrix(
            providers=("amazon", "google"), arrival_rates=(1.0, 4.0)
        )
        extended = fast_matrix(
            providers=("amazon", "google"), arrival_rates=(1.0, 4.0, 8.0)
        )
        base_ids = {c.scenario_id for c in base}
        extended_ids = {c.scenario_id for c in extended}
        assert base_ids <= extended_ids
        assert len(extended_ids - base_ids) == len(extended) - len(base)


class TestScenarioCampaign:
    def test_worker_count_does_not_change_rows(self):
        configs = fast_matrix()
        serial = ScenarioCampaign(configs, workers=1).run()
        parallel = ScenarioCampaign(configs, workers=4).run()
        assert serial.aggregate_rows() == parallel.aggregate_rows()

    def test_rerun_hits_cache(self, tmp_path):
        configs = fast_matrix()
        repo = TraceRepository(tmp_path)
        first = ScenarioCampaign(configs, repository=repo, workers=1).run()
        assert len(first.computed_ids) == len(configs)
        assert first.cache_hit_fraction == 0.0
        second = ScenarioCampaign(configs, repository=repo, workers=1).run()
        assert len(second.cached_ids) == len(configs)
        assert second.computed_ids == ()
        assert second.cache_hit_fraction == 1.0
        assert second.aggregate_rows() == first.aggregate_rows()

    def test_partial_cache_only_runs_new_cells(self, tmp_path):
        repo = TraceRepository(tmp_path)
        base = fast_matrix()
        ScenarioCampaign(base, repository=repo, workers=1).run()
        extended = base + fast_matrix(schedulers=("fifo",), seed=99)
        outcome = ScenarioCampaign(extended, repository=repo, workers=1).run()
        assert len(outcome.cached_ids) == len(base)
        assert len(outcome.computed_ids) == 1

    def test_completed_cells_survive_a_failing_cell(self, tmp_path, monkeypatch):
        # One diverging cell must not discard the cells computed before
        # it — they are stored as they arrive, so the re-run after a
        # fix only recomputes the broken cell.
        # The fault sits in ``prepare_scenario``, which both the serial
        # cell function and the batched form call.
        from repro.scenarios import orchestrate

        configs = fast_matrix()
        poison = configs[-1].scenario_id
        real = orchestrate.prepare_scenario

        def failing(config, upstream=None):
            if config.scenario_id == poison:
                raise RuntimeError("stream did not converge")
            return real(config, upstream=upstream)

        monkeypatch.setattr(orchestrate, "prepare_scenario", failing)
        repo = TraceRepository(tmp_path)
        with pytest.raises(RuntimeError):
            ScenarioCampaign(configs, repository=repo, workers=1).run()
        for config in configs[:-1]:
            assert config.scenario_id in repo
        assert poison not in repo

    def _persist(self, repo, config, result):
        from repro.runtime.worker import persist_result
        from repro.scenarios import SCENARIO_CODEC

        persist_result(
            repo.artifacts, config.scenario_id, SCENARIO_CODEC.encode, result
        )

    def test_persist_skips_already_stored_cell(self, tmp_path):
        # A cell stored after the run's manifest snapshot (e.g. by an
        # interrupted earlier sweep) must not crash the current one.
        configs = fast_matrix()
        repo = TraceRepository(tmp_path)
        result = run_scenario(configs[0])
        repo.store(result.config.scenario_id, result.to_campaign_result())
        # Must be a silent no-op, not a ValueError.
        self._persist(repo, configs[0], result)
        assert result.config.scenario_id in repo

    def test_persist_reraises_genuine_persistence_failure(self, tmp_path):
        repo = TraceRepository(tmp_path)
        configs = fast_matrix()
        result = run_scenario(configs[0])
        broken = ScenarioResult(
            config=result.config,
            submits=result.submits,
            runtimes=result.runtimes[:-1],  # misaligned with submits
            makespan_s=result.makespan_s,
        )
        with pytest.raises(ValueError):
            self._persist(repo, configs[0], broken)

    def test_corrupted_cache_raises_repository_error(self, tmp_path):
        # Deleting a cached cell's trace file behind the manifest must
        # surface as the repository's corruption error (as it did
        # before the runtime refactor), not a raw store exception.
        from repro.measurement import RepositoryCorruptionError

        configs = fast_matrix()
        repo = TraceRepository(tmp_path)
        ScenarioCampaign(configs, repository=repo, workers=1).run()
        victim = configs[0].scenario_id
        (repo.root / victim / "runtimes.json").unlink()
        with pytest.raises(RepositoryCorruptionError, match=victim):
            ScenarioCampaign(configs, repository=repo, workers=1).run()

    def test_warm_rerun_names_the_key_and_the_missing_path(self, tmp_path):
        from repro.measurement import RepositoryCorruptionError

        configs = fast_matrix()
        repo = TraceRepository(tmp_path)
        ScenarioCampaign(configs, repository=repo).run()
        victim = configs[-1].scenario_id
        path = repo.root / victim / "slowdowns.json"
        path.unlink()
        with pytest.raises(RepositoryCorruptionError) as info:
            ScenarioCampaign(configs, repository=repo).run()
        assert repr(victim) in str(info.value)
        assert f"{path} is missing" in str(info.value)
        # A directory where the document was must raise, not read.
        path.mkdir()
        with pytest.raises(RepositoryCorruptionError, match=victim):
            ScenarioCampaign(configs, repository=repo).run()

    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioCampaign([])
        config = ScenarioConfig(seed=7, **FAST)
        with pytest.raises(ValueError):
            ScenarioCampaign([config, config])
        with pytest.raises(ValueError):
            ScenarioCampaign([config], workers=0)
