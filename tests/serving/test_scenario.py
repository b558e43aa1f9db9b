"""Tests for serving campaign cells: hashing, codec, executors, SLOs.

Ends with the PR's acceptance pin: at the seeded operating point, the
resampling HPC-cloud fabric reproducibly fails the p99 SLO while the
constant-rate fabric at the same class-median capacity passes.
"""

import dataclasses
import math

import pytest

from repro.measurement.repository import TraceRepository
from repro.runtime import BatchExecutor
from repro.serving.scenario import (
    SERVING_DEFAULT_INSTANCES,
    ServingCampaign,
    ServingConfig,
    chain_serving,
    decode_serving_result,
    encode_serving_result,
    run_serving,
    run_servings_batched,
    serving_cells,
    serving_matrix,
)

FAST = dict(n_nodes=4, rate_rps=10.0, duration_s=10.0, slo_window_s=5.0)


def cell_snapshot(result):
    return {
        "n_requests": result.n_requests,
        "n_completed": result.n_completed,
        "makespan": result.makespan_s,
        "latency": result.latency,
        "windows": result.windows,
        "slo": None if result.slo is None else result.slo.to_dict(),
        "fabric": result.fabric_state,
    }


class TestServingConfig:
    def test_id_is_stable_and_content_addressed(self):
        a = ServingConfig(seed=1, **FAST)
        b = ServingConfig(seed=1, **FAST)
        assert a.serving_id == b.serving_id
        assert a.serving_id.startswith("srv-")
        assert a.serving_id != ServingConfig(seed=2, **FAST).serving_id

    def test_predecessor_none_hashes_like_legacy(self):
        # Fresh cells hash without the predecessor key, so adding the
        # chaining feature never invalidated existing caches.
        fresh = ServingConfig(seed=1, **FAST)
        chained = dataclasses.replace(
            fresh, predecessor=fresh.serving_id
        )
        assert chained.serving_id != fresh.serving_id

    def test_validation(self):
        with pytest.raises(ValueError, match="arrival"):
            ServingConfig(arrival="nope")
        with pytest.raises(ValueError, match="topology"):
            ServingConfig(topology="ring")
        with pytest.raises(ValueError, match="n_nodes"):
            ServingConfig(n_nodes=1)
        with pytest.raises(ValueError, match="load"):
            ServingConfig(rate_rps=0.0, users=0)
        with pytest.raises(ValueError, match="predecessor"):
            ServingConfig(predecessor="scn-123")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("rate_rps", math.nan),
            ("rate_rps", math.inf),
            ("duration_s", math.nan),
            ("duration_s", math.inf),
            ("think_s", math.nan),
            ("payload_scale", math.nan),
            ("payload_scale", math.inf),
            ("slo_p50_ms", math.nan),
            ("slo_p99_ms", math.nan),
            ("slo_p999_ms", math.nan),
            ("slo_window_s", math.nan),
            ("slo_window_s", math.inf),
        ],
    )
    def test_non_finite_fields_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            ServingConfig(**{field: value})

    def test_infinite_slo_target_and_think_time_allowed(self):
        ServingConfig(slo_p99_ms=math.inf, think_s=math.inf)

    def test_slo_policy_disabled_when_all_targets_zero(self):
        config = ServingConfig(
            slo_p50_ms=0.0, slo_p99_ms=0.0, slo_p999_ms=0.0
        )
        assert config.slo_policy() is None
        assert ServingConfig(slo_p99_ms=250.0).slo_policy() is not None

    def test_build_topology_shapes(self):
        assert ServingConfig(topology="line", depth=4).build_topology(
        ).calls_per_request() == 4
        assert ServingConfig(
            topology="fanout", breadth=2, depth=2
        ).build_topology().calls_per_request() == 7
        assert ServingConfig().build_topology().entry == "frontend"


class TestMatrix:
    def test_matrix_covers_the_cross_product(self):
        configs = serving_matrix(
            providers=("hpccloud", "fixed"),
            arrivals=("poisson", "flash"),
            rates_rps=(10.0, 20.0),
            n_nodes=4,
            duration_s=10.0,
        )
        assert len(configs) == 8
        assert len({c.serving_id for c in configs}) == 8
        assert {c.instance_name for c in configs} == {
            SERVING_DEFAULT_INSTANCES["hpccloud"],
            SERVING_DEFAULT_INSTANCES["fixed"],
        }

    def test_axis_extension_keeps_existing_cell_seeds(self):
        # Seeds derive from axis values, not position: growing an axis
        # must never change a pre-existing cell's cache key.
        small = serving_matrix(
            providers=("hpccloud",), rates_rps=(10.0,), n_nodes=4
        )
        grown = serving_matrix(
            providers=("hpccloud", "fixed"),
            rates_rps=(10.0, 30.0),
            n_nodes=4,
        )
        grown_ids = {c.serving_id for c in grown}
        assert all(c.serving_id in grown_ids for c in small)

    def test_chained_matrix(self):
        configs = serving_matrix(
            providers=("fixed",),
            arrivals=("poisson",),
            n_nodes=4,
            chain_length=3,
        )
        assert len(configs) == 3
        assert configs[0].predecessor is None
        assert configs[1].predecessor == configs[0].serving_id
        assert configs[2].predecessor == configs[1].serving_id

    def test_chain_validation(self):
        with pytest.raises(ValueError):
            chain_serving(ServingConfig(**FAST), 0)
        with pytest.raises(ValueError):
            serving_matrix(chain_length=0)


class TestExecutionPaths:
    def test_batched_matches_serial_bit_for_bit(self):
        configs = [
            ServingConfig(provider_name="hpccloud",
                          instance_name="hpccloud-8core", seed=7, **FAST),
            ServingConfig(provider_name="hpccloud",
                          instance_name="hpccloud-8core", seed=8, **FAST),
            ServingConfig(provider_name="fixed",
                          instance_name="fixed-9gbps", seed=9, **FAST),
        ]
        serial = [cell_snapshot(run_serving(c)) for c in configs]
        batched = [
            cell_snapshot(r) for r in run_servings_batched(configs)
        ]
        assert batched == serial

    def test_chained_cells_resume_from_fabric_state(self):
        base = ServingConfig(
            provider_name="hpccloud", instance_name="hpccloud-8core",
            seed=11, **FAST,
        )
        first, second = chain_serving(base, 2)
        upstream = run_serving(first)
        chained = run_serving(second, upstream=upstream)
        assert chained.n_completed == chained.n_requests

    def test_campaign_caches_cells(self, tmp_path):
        repo = TraceRepository(tmp_path)
        configs = serving_matrix(
            providers=("fixed",),
            arrivals=("poisson",),
            rates_rps=(10.0,),
            n_nodes=4,
            duration_s=10.0,
            slo_window_s=5.0,
        )
        first = ServingCampaign(configs, repository=repo).run()
        assert all(not r.cached for r in first.results.values())
        assert first.computed_ids == tuple(sorted(first.results))
        second = ServingCampaign(configs, repository=repo).run()
        assert all(r.cached for r in second.results.values())
        assert second.cache_hit_fraction == 1.0
        assert second.aggregate_rows() == first.aggregate_rows()
        for sid, a in first.results.items():
            b = second.results[sid]
            assert a.aggregate_row() == b.aggregate_row()
            assert a.windows == b.windows
            assert a.fabric_state == b.fabric_state

    def test_batch_executor_campaign_matches_serial(self):
        configs = serving_matrix(
            providers=("fixed", "hpccloud"),
            arrivals=("poisson",),
            rates_rps=(10.0,),
            n_nodes=4,
            duration_s=10.0,
        )
        serial = ServingCampaign(configs, executor=BatchExecutor(1)).run().results
        batched = ServingCampaign(configs, executor=BatchExecutor(2)).run().results
        assert serial.keys() == batched.keys()
        for sid, a in serial.items():
            assert cell_snapshot(a) == cell_snapshot(batched[sid])

    def test_duplicate_configs_rejected(self):
        config = ServingConfig(**FAST)
        with pytest.raises(ValueError, match="duplicate"):
            ServingCampaign([config, config])


class TestCodec:
    def test_encode_decode_round_trip(self):
        config = ServingConfig(
            provider_name="fixed", instance_name="fixed-9gbps",
            seed=21, **FAST,
        )
        result = run_serving(config)
        documents, arrays = encode_serving_result(result)
        assert arrays == {}
        assert "fabric" in documents
        [cell] = serving_cells([config])
        clone = decode_serving_result(cell, documents)
        assert clone.cached
        assert clone.config == config
        assert clone.n_requests == result.n_requests
        assert clone.latency == result.latency
        assert clone.windows == result.windows
        assert clone.slo == result.slo
        assert clone.fabric_state == result.fabric_state
        assert clone.aggregate_row() == result.aggregate_row()

    def test_telemetry_stays_out_of_the_store(self):
        config = ServingConfig(
            provider_name="fixed", instance_name="fixed-9gbps",
            seed=22, **FAST,
        )
        documents, _ = encode_serving_result(run_serving(config))
        assert "n_steps" not in documents["serving"]


class TestAcceptance:
    """The PR's headline claim, pinned at the seeded operating point."""

    def leg(self, provider, instance):
        return run_serving(
            ServingConfig(
                provider_name=provider,
                instance_name=instance,
                n_nodes=4,
                topology="three_tier",
                arrival="flash",
                rate_rps=90.0,
                duration_s=60.0,
                slo_p99_ms=500.0,
                slo_window_s=10.0,
                seed=1,
            )
        )

    def test_variability_alone_breaks_the_slo(self):
        variable = self.leg("hpccloud", "hpccloud-8core")
        fixed = self.leg("fixed", "fixed-9gbps")
        # Same arrivals, same compute noise, same class-median mean
        # capacity: only the resampling fabric violates.
        assert variable.slo_violations >= 1
        assert not variable.slo.passed
        assert fixed.slo_violations == 0
        assert fixed.slo.passed
        # And the violation is *reproducible*: the same cell re-run
        # lands on identical windows and verdicts.
        again = self.leg("hpccloud", "hpccloud-8core")
        assert cell_snapshot(again) == cell_snapshot(variable)
