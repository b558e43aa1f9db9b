"""Scenario-layer tests for deadline synthesis and warm-fabric chains."""

from dataclasses import replace

import numpy as np
import pytest

from repro.measurement import TraceRepository
from repro.scenarios import (
    ScenarioCampaign,
    ScenarioConfig,
    chain_scenarios,
    run_scenario,
    scenario_matrix,
    synthesize_deadlines,
)
from repro.scenarios.generate import job_stream, poisson_arrivals
from repro.serving import ServingConfig, chain_serving, run_serving

FAST = dict(n_nodes=4, n_jobs=3, data_scale=0.05)

#: Per cell kind: a chain head, its runner and chain builder, and a
#: provider the head did not run.
CHAIN_KINDS = {
    "dag": (
        ScenarioConfig(seed=5, **FAST),
        run_scenario,
        chain_scenarios,
        dict(provider_name="google", instance_name="gce-4core"),
    ),
    "serving": (
        ServingConfig(
            provider_name="hpccloud",
            instance_name="hpccloud-8core",
            n_nodes=4,
            rate_rps=10.0,
            duration_s=10.0,
            slo_window_s=5.0,
            seed=11,
        ),
        run_serving,
        chain_serving,
        dict(provider_name="fixed", instance_name="fixed-9gbps"),
    ),
}


class TestDeadlineSynthesis:
    def test_deadlines_are_feasible_and_seeded(self):
        rng = np.random.default_rng(3)
        times = poisson_arrivals(rng, rate_per_min=2.0, n_jobs=5)
        stream = job_stream(rng, times, n_nodes=4, data_scale=0.05)
        d1 = synthesize_deadlines(
            np.random.default_rng(9), stream, n_nodes=4, slots=4
        )
        d2 = synthesize_deadlines(
            np.random.default_rng(9), stream, n_nodes=4, slots=4
        )
        assert [entry[2] for entry in d1] == [entry[2] for entry in d2]
        for t, job, deadline in d1:
            assert deadline > t  # always after submission
        # A different seed draws different slack.
        d3 = synthesize_deadlines(
            np.random.default_rng(10), stream, n_nodes=4, slots=4
        )
        assert [e[2] for e in d3] != [e[2] for e in d1]

    def test_validation(self):
        with pytest.raises(ValueError):
            synthesize_deadlines(np.random.default_rng(0), [], 0, 4)
        with pytest.raises(ValueError):
            synthesize_deadlines(
                np.random.default_rng(0), [], 4, 4, mean_slack=0.0
            )

    def test_deadline_slack_does_not_perturb_the_workload(self):
        # Deadlines draw from a derived generator: under a scheduler
        # that ignores them, runtimes must match the no-deadline cell
        # exactly (the whole point of the separate RNG).
        plain = run_scenario(ScenarioConfig(seed=7, scheduler="fair", **FAST))
        deadlined = run_scenario(
            ScenarioConfig(seed=7, scheduler="fair", deadline_slack=1.0, **FAST)
        )
        assert np.array_equal(plain.runtimes, deadlined.runtimes)
        assert plain.deadlines is None
        assert deadlined.deadlines is not None
        assert deadlined.deadline_miss_rate() is not None

    def test_row_reports_miss_rate_and_slowdown(self):
        result = run_scenario(
            ScenarioConfig(seed=7, scheduler="edf", deadline_slack=0.5, **FAST)
        )
        row = result.aggregate_row()
        assert 0.0 <= row["miss_rate"] <= 1.0
        assert row["mean_slowdown"] >= 1.0
        plain_row = run_scenario(
            ScenarioConfig(seed=7, scheduler="fair", **FAST)
        ).aggregate_row()
        assert plain_row["miss_rate"] is None
        assert plain_row["mean_slowdown"] >= 1.0

    def test_cached_row_matches_computed_row(self, tmp_path):
        config = ScenarioConfig(
            seed=7, scheduler="edf", deadline_slack=0.5, **FAST
        )
        repo = TraceRepository(tmp_path)
        first = ScenarioCampaign([config], repository=repo).run()
        second = ScenarioCampaign([config], repository=repo).run()
        assert second.cached_ids == (config.scenario_id,)
        assert second.aggregate_rows() == first.aggregate_rows()


class TestScenarioConfigCompat:
    def test_new_default_fields_preserve_old_ids(self):
        # deadline_slack=0 / predecessor=None must hash exactly like a
        # config from before the fields existed, or every warm
        # repository would go cold.  The id is pinned from the PR 4 era.
        config = ScenarioConfig(seed=1)
        assert config.scenario_id == ScenarioConfig(seed=1, deadline_slack=0.0).scenario_id
        import hashlib, json
        legacy_payload = {
            "provider_name": "amazon",
            "instance_name": "c5.xlarge",
            "n_nodes": 8,
            "slots": 4,
            "n_jobs": 4,
            "arrival_rate_per_min": 2.0,
            "arrival": "poisson",
            "scheduler": "fifo",
            "workload": "mixed",
            "data_scale": 1.0,
            "seed": 1,
        }
        legacy = "scn-" + hashlib.sha256(
            json.dumps(legacy_payload, sort_keys=True).encode()
        ).hexdigest()[:16]
        assert config.scenario_id == legacy

    def test_non_default_fields_change_the_id(self):
        base = ScenarioConfig(seed=1)
        assert ScenarioConfig(seed=1, deadline_slack=0.5).scenario_id != base.scenario_id
        chained = ScenarioConfig(seed=1, predecessor=base.scenario_id)
        assert chained.scenario_id != base.scenario_id

    def test_new_schedulers_accepted(self):
        for scheduler in ("preempt", "srpt", "edf"):
            config = ScenarioConfig(seed=1, scheduler=scheduler, **FAST)
            assert config.scenario_id.startswith("scn-")

    def test_predecessor_validation(self):
        with pytest.raises(ValueError, match="predecessor"):
            ScenarioConfig(seed=1, predecessor="not-a-scenario")


class TestWarmFabricChains:
    def test_chain_ids_stable_and_prefix_preserving(self):
        base = ScenarioConfig(seed=5, **FAST)
        chain3 = chain_scenarios(base, 3)
        chain5 = chain_scenarios(base, 5)
        assert [c.scenario_id for c in chain5[:3]] == [
            c.scenario_id for c in chain3
        ]
        assert len({c.scenario_id for c in chain5}) == 5

    def test_matrix_chain_length_expands_cells(self):
        configs = scenario_matrix(
            providers=("amazon",),
            arrival_rates=(2.0,),
            schedulers=("fifo",),
            seed=3,
            chain_length=3,
            **FAST,
        )
        assert len(configs) == 3
        assert configs[0].predecessor is None
        assert configs[1].predecessor == configs[0].scenario_id
        assert configs[2].predecessor == configs[1].scenario_id

    def test_warm_chain_differs_from_fresh_fabric(self):
        # The carry-over must be observable: the same workload run on
        # the predecessor's depleted buckets cannot be byte-identical
        # to a fresh-VM run of the same config minus the predecessor.
        base = ScenarioConfig(
            seed=5, n_nodes=4, n_jobs=2, data_scale=4.0, scheduler="fifo"
        )
        head, tail = chain_scenarios(base, 2)
        upstream = run_scenario(head)
        # The head left real carry-over behind: budgets below capacity.
        assert any(
            s["budget_gbit"] < s["params"]["capacity_gbit"] - 1.0
            for s in upstream.fabric_state
        )
        warm = run_scenario(tail, upstream=upstream)
        fresh = run_scenario(
            ScenarioConfig(
                seed=tail.seed,
                n_nodes=4,
                n_jobs=2,
                data_scale=4.0,
                scheduler="fifo",
            )
        )
        assert not np.array_equal(warm.runtimes, fresh.runtimes)
        # And the successor inherits the depleted incarnations, not
        # fresh draws: its final state descends from the head's params.
        assert [s["params"] for s in warm.fabric_state] == [
            s["params"] for s in upstream.fabric_state
        ]

    def test_chain_is_deterministic(self):
        head, tail = chain_scenarios(
            ScenarioConfig(seed=5, scheduler="srpt", **FAST), 2
        )
        r1 = run_scenario(tail, upstream=run_scenario(head))
        r2 = run_scenario(tail, upstream=run_scenario(head))
        assert np.array_equal(r1.runtimes, r2.runtimes)
        assert r1.fabric_state == r2.fabric_state


@pytest.fixture(scope="module", params=sorted(CHAIN_KINDS))
def chained_kind(request):
    """A chain's tail, its head's result, the runner, another provider."""
    head, run, chain, other = CHAIN_KINDS[request.param]
    _, tail = chain(head, 2)
    return tail, run(head), run, other


class TestChainedCellValidation:
    """The warm-fabric predecessor checks, for both cell kinds."""

    def test_requires_upstream(self, chained_kind):
        tail, upstream, run, _ = chained_kind
        with pytest.raises(ValueError, match="no upstream"):
            run(tail)
        with pytest.raises(ValueError, match="fabric"):
            run(tail, upstream=replace(upstream, fabric_state=None))

    def test_node_count_mismatch_rejected(self, chained_kind):
        tail, upstream, run, _ = chained_kind
        with pytest.raises(ValueError, match="nodes"):
            run(replace(tail, n_nodes=6), upstream=upstream)

    def test_provider_mismatch_rejected(self, chained_kind):
        # A chained cell labeled for another provider must not silently
        # run on the predecessor's incarnations (mislabeled rows would
        # also poison the cache under the wrong id).
        tail, upstream, run, other = chained_kind
        with pytest.raises(ValueError, match="provider incarnation"):
            run(replace(tail, **other), upstream=upstream)
