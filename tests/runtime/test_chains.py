"""Warm-fabric chain tests for the runtime layer.

Chained cells (``after`` set) must execute in dependency order with
the predecessor's result fed downstream, stay whole on one shard, and
remain byte-identical across serial / pool / sharded execution — the
same equivalence contract unchained matrices already pin.
"""

import json

import pytest

from repro.measurement import TraceRepository
from repro.runtime import (
    ArtifactStore,
    BatchExecutor,
    Cell,
    ProcessPoolExecutor,
    ShardExecutor,
    cell_components,
    order_cells,
    partition_cells,
    run_manifest,
)
from repro.scenarios import (
    ScenarioCampaign,
    ScenarioConfig,
    chain_scenarios,
    scenario_cells,
)

FAST = dict(n_nodes=4, n_jobs=2, data_scale=0.05)


def fast_chain(length=3, seed=5, scheduler="fair", **kwargs):
    base = ScenarioConfig(seed=seed, scheduler=scheduler, **FAST, **kwargs)
    return chain_scenarios(base, length)


class TestCellAfter:
    def test_after_changes_default_key(self):
        plain = Cell(fn="m:f", payload={"x": 1})
        chained = Cell(fn="m:f", payload={"x": 1}, after=plain.key)
        assert chained.key != plain.key
        # Unchained hashing is unchanged, so existing stores stay warm.
        assert plain.key == Cell(fn="m:f", payload={"x": 1}).key

    def test_entry_roundtrip_preserves_after(self):
        cell = Cell(fn="m:f", payload={}, key="k1", after="k0")
        again = Cell.from_entry(json.loads(json.dumps(cell.to_entry())))
        assert again.after == "k0"
        assert Cell.from_entry(Cell(fn="m:f", payload={}).to_entry()).after is None

    def test_self_chain_rejected(self):
        with pytest.raises(ValueError, match="itself"):
            Cell(fn="m:f", payload={}, key="k", after="k")

    def test_order_cells_puts_predecessors_first(self):
        a = Cell(fn="m:f", payload={"i": 0}, key="a")
        b = Cell(fn="m:f", payload={"i": 1}, key="b", after="a")
        c = Cell(fn="m:f", payload={"i": 2}, key="c", after="b")
        ordered = order_cells([c, b, a])
        assert [cell.key for cell in ordered] == ["a", "b", "c"]
        # Links to keys outside the set do not constrain the order.
        ordered = order_cells([c, b])
        assert [cell.key for cell in ordered] == ["b", "c"]

    def test_order_cells_detects_cycles(self):
        a = Cell(fn="m:f", payload={"i": 0}, key="a", after="b")
        b = Cell(fn="m:f", payload={"i": 1}, key="b", after="a")
        with pytest.raises(ValueError, match="cycle"):
            order_cells([a, b])


class TestChainPartition:
    def test_chains_stay_on_one_shard(self):
        cells = scenario_cells(fast_chain(3) + fast_chain(3, seed=77))
        for n_shards in (2, 3, 4):
            shards = partition_cells(cells, n_shards)
            for shard in shards:
                keys = {cell.key for cell in shard}
                for cell in shard:
                    if cell.after is not None:
                        assert cell.after in keys
        components = cell_components(cells)
        assert sorted(len(c) for c in components) == [3, 3]

    def test_chainless_partition_matches_historical_layout(self):
        cells = [Cell(fn="m:f", payload={"i": i}) for i in range(7)]
        ordered = sorted(cells, key=lambda cell: cell.key)
        expected = [
            [cell.key for cell in ordered[i::3]] for i in range(3)
        ]
        got = [
            [cell.key for cell in shard] for shard in partition_cells(cells, 3)
        ]
        assert got == expected


class TestChainedExecutorEquivalence:
    def test_chain_serial_pool_and_sharded_identical(self, tmp_path):
        configs = fast_chain(3) + fast_chain(2, seed=77, scheduler="preempt")

        serial_repo = TraceRepository(tmp_path / "serial")
        serial = ScenarioCampaign(
            configs, repository=serial_repo, executor=BatchExecutor(1)
        ).run()
        pool_repo = TraceRepository(tmp_path / "pool")
        pool = ScenarioCampaign(
            configs, repository=pool_repo, executor=ProcessPoolExecutor(3)
        ).run()
        shard_repo = TraceRepository(tmp_path / "shard")
        sharded = ScenarioCampaign(
            configs,
            repository=shard_repo,
            executor=ShardExecutor(2, work_dir=tmp_path / "work"),
        ).run()

        rows = serial.aggregate_rows()
        assert pool.aggregate_rows() == rows
        assert sharded.aggregate_rows() == rows
        serial_hash = serial_repo.artifacts.content_hash()
        assert pool_repo.artifacts.content_hash() == serial_hash
        assert shard_repo.artifacts.content_hash() == serial_hash

    def test_cached_predecessor_feeds_pending_successor(self, tmp_path):
        configs = fast_chain(3)
        repo = TraceRepository(tmp_path / "repo")
        ScenarioCampaign(configs, repository=repo).run()
        reference = repo.artifacts.content_hash()

        # Drop the two successors; the head stays cached.  Every
        # executor must rebuild the chain tail from the cached head.
        for executor in (
            BatchExecutor(1),
            ProcessPoolExecutor(2),
            ShardExecutor(2, work_dir=tmp_path / "work"),
        ):
            for config in configs[1:]:
                repo.artifacts.delete(config.scenario_id)
            outcome = ScenarioCampaign(
                configs, repository=repo, executor=executor
            ).run()
            assert len(outcome.cached_ids) == 1
            assert len(outcome.computed_ids) == 2
            assert repo.artifacts.content_hash() == reference

    def test_dangling_predecessor_is_clean_error(self):
        tail = fast_chain(2)[1]
        with pytest.raises(ValueError, match="chains after"):
            ScenarioCampaign([tail]).run()


class TestChainedWorkerResume:
    def test_mid_chain_crash_resumes_from_store(self, tmp_path, monkeypatch):
        from repro.scenarios import orchestrate

        configs = fast_chain(3)
        campaign = ScenarioCampaign(configs)
        (manifest,) = campaign.shard_manifests(tmp_path / "shards", 1)
        poison = configs[1].scenario_id
        real = orchestrate.run_scenario

        def crashing(config, upstream=None):
            if config.scenario_id == poison:
                raise RuntimeError("machine preempted")
            if upstream is None:
                return real(config)
            return real(config, upstream=upstream)

        monkeypatch.setattr(orchestrate, "run_scenario", crashing)
        store_root = tmp_path / "store"
        with pytest.raises(RuntimeError, match="preempted"):
            run_manifest(manifest, store_root, echo=None)
        # Only the chain head survived the crash.
        assert ArtifactStore(store_root).keys() == [configs[0].scenario_id]

        # The relaunch decodes the stored head and finishes the chain.
        monkeypatch.setattr(orchestrate, "run_scenario", real)
        summary = run_manifest(manifest, store_root, echo=None)
        assert summary["cached"] == (configs[0].scenario_id,)
        assert set(summary["computed"]) == {
            c.scenario_id for c in configs[1:]
        }
        clean = run_manifest(manifest, tmp_path / "clean", echo=None)
        assert ArtifactStore(tmp_path / "clean").content_hash() == (
            ArtifactStore(store_root).content_hash()
        )
        assert set(clean["computed"]) == {c.scenario_id for c in configs}

    def test_manifest_names_decode_and_after(self, tmp_path):
        configs = fast_chain(2)
        campaign = ScenarioCampaign(configs)
        (manifest,) = campaign.shard_manifests(tmp_path, 1)
        payload = json.loads(manifest.read_text())
        assert payload["decode"] == "repro.scenarios.orchestrate:decode_scenario_result"
        afters = [entry.get("after") for entry in payload["cells"]]
        assert afters.count(None) == 1
        assert configs[0].scenario_id in afters
