"""Executor equivalence and shard-resume tests.

The acceptance contract of the runtime layer: for a fixed seeded
scenario matrix, ``SerialExecutor``, ``ProcessPoolExecutor``, and a
two-shard ``ShardExecutor`` round trip (shard manifests -> worker ->
merge) produce byte-identical aggregate rows and identical
artifact-store content hashes — and a worker that crashes mid-shard
resumes from its store instead of recomputing finished cells.
"""

import json

import pytest

from repro.measurement import TraceRepository
from repro.runtime import (
    ArtifactStore,
    Cell,
    ProcessPoolExecutor,
    SerialExecutor,
    ShardExecutor,
    merge_stores,
    partition_cells,
    run_manifest,
    write_shard_manifests,
)
from repro.scenarios import SCENARIO_CODEC, ScenarioCampaign, scenario_matrix

#: Small, fast cells: 4 nodes, 3 jobs, 5 % data scale.
FAST = dict(n_nodes=4, n_jobs=3, data_scale=0.05)


def fast_matrix(seed=11, **kwargs):
    defaults = dict(
        providers=("amazon",),
        arrival_rates=(2.0,),
        schedulers=("fifo", "fair"),
        workloads=("mixed", "tpch"),
        seed=seed,
        **FAST,
    )
    defaults.update(kwargs)
    return scenario_matrix(**defaults)


class TestPartition:
    def test_partition_is_deterministic_and_complete(self):
        cells = [Cell(fn="m:f", payload={"i": i}) for i in range(7)]
        shards = partition_cells(cells, 3)
        assert [len(s) for s in shards] == [3, 2, 2]
        assert sorted(c.key for s in shards for c in s) == sorted(
            c.key for c in cells
        )
        # Submission order must not matter, only the cell set.
        again = partition_cells(list(reversed(cells)), 3)
        assert [[c.key for c in s] for s in again] == [
            [c.key for c in s] for s in shards
        ]

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            partition_cells([], 0)


class TestExecutorEquivalence:
    def test_serial_pool_and_sharded_runs_are_identical(self, tmp_path):
        configs = fast_matrix()
        assert len(configs) == 4

        serial_repo = TraceRepository(tmp_path / "serial")
        serial = ScenarioCampaign(
            configs, repository=serial_repo, executor=SerialExecutor()
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
        assert serial.computed_ids == pool.computed_ids == sharded.computed_ids

        # Store bytes, not just rows: the three strategies must leave
        # indistinguishable archives behind.
        serial_hash = serial_repo.artifacts.content_hash()
        assert pool_repo.artifacts.content_hash() == serial_hash
        assert shard_repo.artifacts.content_hash() == serial_hash

    def test_reused_work_dir_leaks_nothing_into_the_campaign_store(
        self, tmp_path
    ):
        # The same work_dir runs two different matrices back to back;
        # the second campaign's store must contain only the second
        # matrix's cells (byte-identical to its serial run).
        work = tmp_path / "work"
        first = fast_matrix(seed=11)
        ScenarioCampaign(
            first,
            repository=TraceRepository(tmp_path / "first"),
            executor=ShardExecutor(2, work_dir=work),
        ).run()

        second = fast_matrix(seed=99, workloads=("mixed",))
        second_repo = TraceRepository(tmp_path / "second")
        ScenarioCampaign(
            second,
            repository=second_repo,
            executor=ShardExecutor(2, work_dir=work),
        ).run()

        serial_repo = TraceRepository(tmp_path / "serial")
        ScenarioCampaign(second, repository=serial_repo).run()
        assert second_repo.artifacts.keys() == serial_repo.artifacts.keys()
        assert (
            second_repo.artifacts.content_hash()
            == serial_repo.artifacts.content_hash()
        )

    def test_sharded_store_serves_cache_hits_to_a_serial_rerun(self, tmp_path):
        configs = fast_matrix()
        shard_repo = TraceRepository(tmp_path / "shard")
        ScenarioCampaign(
            configs,
            repository=shard_repo,
            executor=ShardExecutor(2, work_dir=tmp_path / "work"),
        ).run()
        rerun = ScenarioCampaign(configs, repository=shard_repo).run()
        assert rerun.cache_hit_fraction == 1.0
        assert rerun.computed_ids == ()

    def test_manual_worker_merge_roundtrip(self, tmp_path):
        # The same round trip the CLI performs, through the library
        # entry points the CLI calls.
        configs = fast_matrix()
        campaign = ScenarioCampaign(configs)
        manifests = campaign.shard_manifests(tmp_path / "shards", n_shards=2)
        assert [m.name for m in manifests] == ["shard-0.json", "shard-1.json"]
        shard_roots = []
        for index, manifest in enumerate(manifests):
            root = tmp_path / f"shard-{index}-store"
            summary = run_manifest(manifest, root, echo=None)
            assert summary["cached"] == ()
            shard_roots.append(root)
        merged = merge_stores(shard_roots, tmp_path / "merged")
        assert len(merged["adopted"]) == len(configs)

        serial_repo = TraceRepository(tmp_path / "serial")
        ScenarioCampaign(configs, repository=serial_repo).run()
        assert merged["content_hash"] == serial_repo.artifacts.content_hash()


class TestCrashMidShardResume:
    def test_worker_resumes_after_crash(self, tmp_path, monkeypatch):
        from repro.scenarios import orchestrate

        configs = fast_matrix()
        campaign = ScenarioCampaign(configs)
        manifests = campaign.shard_manifests(tmp_path / "shards", n_shards=1)
        (manifest,) = manifests
        shard_cells = partition_cells(campaign.cells, 1)[0]
        poison = shard_cells[2].key

        real = orchestrate.run_scenario

        def crashing(config):
            if config.scenario_id == poison:
                raise RuntimeError("machine preempted")
            return real(config)

        monkeypatch.setattr(orchestrate, "run_scenario", crashing)
        store_root = tmp_path / "shard-store"
        with pytest.raises(RuntimeError, match="preempted"):
            run_manifest(manifest, store_root, echo=None)

        # The crash lost only the in-flight cell: everything computed
        # before it is durably stored and fully readable.
        store = ArtifactStore(store_root)
        assert store.keys() == sorted(c.key for c in shard_cells[:2])
        for key in store.keys():
            store.get(key)

        # Re-running the same command line resumes: stored cells are
        # skipped, only the remainder computes.
        monkeypatch.setattr(orchestrate, "run_scenario", real)
        summary = run_manifest(manifest, store_root, echo=None)
        assert set(summary["cached"]) == set(
            c.key for c in shard_cells[:2]
        )
        assert set(summary["computed"]) == set(
            c.key for c in shard_cells[2:]
        )

        # And the resumed shard is indistinguishable from a clean one.
        clean = run_manifest(manifest, tmp_path / "clean-store", echo=None)
        assert ArtifactStore(tmp_path / "clean-store").content_hash() == (
            store.content_hash()
        )
        assert set(clean["computed"]) == set(c.key for c in shard_cells)


class TestResumeAudit:
    def test_corrupt_stored_cell_is_recomputed_on_resume(self, tmp_path):
        """Resume trusts nothing: a stored key whose bytes fail the
        integrity audit is deleted and recomputed, and the resumed
        store converges to the clean hash anyway."""
        configs = fast_matrix()
        campaign = ScenarioCampaign(configs)
        (manifest,) = campaign.shard_manifests(tmp_path / "shards", 1)
        store_root = tmp_path / "shard-store"
        first = run_manifest(manifest, store_root, echo=None)
        clean_hash = ArtifactStore(store_root).content_hash()
        victim = first["computed"][0]

        # Flip bytes inside one stored document, behind the store's back.
        victim_dir = store_root / victim
        doc = sorted(victim_dir.glob("*.json"))[0]
        doc.write_text(json.dumps({"tampered": True}))

        summary = run_manifest(manifest, store_root, echo=None)
        assert summary["audit_failed"] == (victim,)
        assert victim in summary["computed"]
        assert set(summary["cached"]) == set(first["computed"]) - {victim}
        assert ArtifactStore(store_root).content_hash() == clean_hash
        assert ArtifactStore(store_root).verify().ok

    def test_pre_digest_cell_is_recomputed_on_resume(self, tmp_path):
        """A stored key whose entry predates per-document digests fails
        the audit like a corrupt one: it is recomputed, not trusted."""
        configs = fast_matrix()
        campaign = ScenarioCampaign(configs)
        (manifest,) = campaign.shard_manifests(tmp_path / "shards", 1)
        store_root = tmp_path / "shard-store"
        first = run_manifest(manifest, store_root, echo=None)
        clean_hash = ArtifactStore(store_root).content_hash()
        victim = first["computed"][0]
        manifest_path = store_root / "manifest.json"
        entries = json.loads(manifest_path.read_text())
        entries[victim].pop("sha256")
        entries[victim].pop("documents")
        manifest_path.write_text(json.dumps(entries))

        summary = run_manifest(manifest, store_root, echo=None)
        assert summary["audit_failed"] == (victim,)
        assert victim in summary["computed"]
        assert ArtifactStore(store_root).content_hash() == clean_hash
        assert ArtifactStore(store_root).verify().ok

    def test_audit_can_be_disabled(self, tmp_path):
        configs = fast_matrix()
        campaign = ScenarioCampaign(configs)
        (manifest,) = campaign.shard_manifests(tmp_path / "shards", 1)
        store_root = tmp_path / "shard-store"
        run_manifest(manifest, store_root, echo=None)
        summary = run_manifest(
            manifest, store_root, echo=None, audit_resume=False
        )
        assert summary["audit_failed"] == ()
        assert summary["computed"] == ()


class TestShardExecutorValidation:
    def test_codec_required(self):
        executor = ShardExecutor(2)
        with pytest.raises(ValueError, match="codec"):
            executor.run([Cell(fn="m:f", payload={})], lambda *a: None)

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            ShardExecutor(0)
        with pytest.raises(ValueError):
            ProcessPoolExecutor(0)


class TestShardManifests:
    def test_malformed_cell_entry_is_clean_error(self, tmp_path):
        import json

        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "schema": 1,
            "encode": "m:e",
            "cells": [{"fn": "m:f", "payload": {}}],  # no "key"
        }))
        with pytest.raises(ValueError, match="cell #0"):
            run_manifest(path, tmp_path / "store", echo=None)

    def test_manifest_names_codec_and_cells(self, tmp_path):
        configs = fast_matrix()
        campaign = ScenarioCampaign(configs)
        manifests = campaign.shard_manifests(tmp_path, n_shards=2)
        import json

        payload = json.loads(manifests[0].read_text())
        assert payload["schema"] == 1
        assert payload["encode"] == SCENARIO_CODEC.encode_ref
        assert payload["n_shards"] == 2
        keys = [entry["key"] for entry in payload["cells"]]
        assert all(key.startswith("scn-") for key in keys)
