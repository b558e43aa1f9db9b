"""Executor equivalence and shard-resume tests.

The acceptance contract of the runtime layer: for a fixed seeded
scenario matrix, ``BatchExecutor(1)``, ``ProcessPoolExecutor``, and a
two-shard ``ShardExecutor`` round trip (shard manifests -> worker ->
merge) produce byte-identical aggregate rows and identical
artifact-store content hashes — and a worker that crashes mid-shard
resumes from its store instead of recomputing finished cells.
"""

import json

import pytest

import demo_helpers

from repro.measurement import TraceRepository
from repro.runtime import (
    ArtifactStore,
    BatchExecutor,
    CampaignRunner,
    Cell,
    ProcessPoolExecutor,
    ShardExecutor,
    merge_stores,
    partition_cells,
    run_manifest,
    write_shard_manifests,
)
from repro.runtime.worker import IN_FLIGHT_NAME, read_in_flight
from repro.scenarios import SCENARIO_CODEC, ScenarioCampaign, scenario_matrix
from repro.serving import SERVING_CODEC

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


def poison_prepare(monkeypatch, poison):
    """Make building the cell keyed ``poison`` raise, on every path.

    The serial cell function and the batched form both build cells
    through ``prepare_scenario``, so the fault reaches the poisoned
    cell whether it runs alone or inside a batch.  Returns the
    unpatched function, to restore it.
    """
    from repro.scenarios import orchestrate

    real = orchestrate.prepare_scenario

    def crashing(config, upstream=None):
        if config.scenario_id == poison:
            raise RuntimeError("machine preempted")
        return real(config, upstream=upstream)

    monkeypatch.setattr(orchestrate, "prepare_scenario", crashing)
    return real


def serving_fast_cells():
    from repro.serving import chain_serving, serving_cells, serving_matrix

    configs = serving_matrix(
        providers=("hpccloud", "fixed"),
        rates_rps=(10.0,),
        n_nodes=4,
        duration_s=10.0,
        slo_window_s=5.0,
        seed=1,
    )
    return serving_cells(configs + chain_serving(configs[0], 3)[1:])


def scenario_fast_cells():
    from repro.scenarios import chain_scenarios, scenario_cells

    configs = fast_matrix(
        providers=("amazon", "google", "hpccloud"), workloads=("mixed",)
    )
    return scenario_cells(configs + chain_scenarios(configs[0], 3)[1:])


class TestCrossDriverEquivalence:
    """One process batches through ``run_cores``; a pool runs ``execute``."""

    @pytest.mark.parametrize(
        "make_cells, codec",
        [
            (scenario_fast_cells, SCENARIO_CODEC),
            (serving_fast_cells, SERVING_CODEC),
        ],
        ids=["scenario", "serving"],
    )
    def test_batched_store_equals_pooled_store(
        self, tmp_path, monkeypatch, make_cells, codec
    ):
        from repro.simulator import multistream

        (manifest,) = write_shard_manifests(
            make_cells(),
            1,
            tmp_path / "shards",
            codec.encode_ref,
            decode_ref=codec.decode_ref,
        )
        batches = []
        run_cores = multistream.run_cores

        def counting(states):
            batches.append(len(states))
            return run_cores(states)

        monkeypatch.setattr(multistream, "run_cores", counting)
        run_manifest(manifest, tmp_path / "batched", echo=None)
        monkeypatch.undo()
        # Some cells really ran in lockstep with others.
        assert batches and max(batches) >= 2
        run_manifest(manifest, tmp_path / "pooled", workers=2, echo=None)

        batched = ArtifactStore(tmp_path / "batched")
        pooled = ArtifactStore(tmp_path / "pooled")
        assert batched.keys() == pooled.keys()
        for key in batched.keys():
            for name in batched.meta(key)["documents"]:
                assert (batched.root / key / f"{name}.json").read_bytes() == (
                    pooled.root / key / f"{name}.json"
                ).read_bytes()
        assert batched.content_hash() == pooled.content_hash()


class TestCrashMidShardResume:
    def test_worker_resumes_after_crash(self, tmp_path, monkeypatch):
        from repro.scenarios import orchestrate

        configs = fast_matrix()
        campaign = ScenarioCampaign(configs)
        manifests = campaign.shard_manifests(tmp_path / "shards", n_shards=1)
        (manifest,) = manifests
        shard_cells = partition_cells(campaign.cells, 1)[0]
        poison = shard_cells[2].key

        real = poison_prepare(monkeypatch, poison)
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
        monkeypatch.setattr(orchestrate, "prepare_scenario", real)
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

    def test_poison_mid_batch_lands_the_batch_prefix(self, tmp_path, monkeypatch):
        from repro.scenarios import orchestrate

        # Six cells in batches of three; the poison is the middle cell
        # of the second batch.
        configs = fast_matrix(arrival_rates=(2.0, 4.0, 8.0), workloads=("mixed",))
        assert len(configs) == 6
        poison = configs[4].scenario_id
        real = poison_prepare(monkeypatch, poison)

        repo = TraceRepository(tmp_path / "repo")
        with pytest.raises(RuntimeError, match="preempted"):
            ScenarioCampaign(
                configs, repository=repo, executor=BatchExecutor(3)
            ).run()
        # The whole first batch and the cell before the poison in the
        # second batch are stored; nothing after the poison is.
        assert repo.artifacts.keys() == sorted(
            c.scenario_id for c in configs[:4]
        )

        monkeypatch.setattr(orchestrate, "prepare_scenario", real)
        resumed = ScenarioCampaign(
            configs, repository=repo, executor=BatchExecutor(3)
        ).run()
        assert set(resumed.computed_ids) == {c.scenario_id for c in configs[4:]}
        clean = TraceRepository(tmp_path / "clean")
        ScenarioCampaign(configs, repository=clean).run()
        assert repo.artifacts.content_hash() == clean.artifacts.content_hash()


class TestInFlightRecord:
    def test_a_batch_runs_with_its_keys_on_record(self, tmp_path, monkeypatch):
        from repro.scenarios import orchestrate

        campaign = ScenarioCampaign(fast_matrix())
        (manifest,) = campaign.shard_manifests(tmp_path / "shards", 1)
        store_root = tmp_path / "shard-store"
        seen = []
        real = orchestrate.prepare_scenario

        def watching(*args, **kwargs):
            seen.append(read_in_flight(store_root))
            return real(*args, **kwargs)

        monkeypatch.setattr(orchestrate, "prepare_scenario", watching)
        run_manifest(manifest, store_root, echo=None)
        shard_keys = [c.key for c in partition_cells(campaign.cells, 1)[0]]
        assert seen == [shard_keys] * len(shard_keys)
        assert read_in_flight(store_root) is None

    def test_a_raising_batch_leaves_no_record(self, tmp_path, monkeypatch):
        campaign = ScenarioCampaign(fast_matrix())
        (manifest,) = campaign.shard_manifests(tmp_path / "shards", 1)
        poison = partition_cells(campaign.cells, 1)[0][1].key
        poison_prepare(monkeypatch, poison)
        store_root = tmp_path / "shard-store"
        with pytest.raises(RuntimeError, match="preempted"):
            run_manifest(manifest, store_root, echo=None)
        # The error is the poison's own, so the blame needs no record.
        assert read_in_flight(store_root) is None

    def test_a_death_mid_batch_resumes_one_cell_at_a_time(
        self, tmp_path, monkeypatch
    ):
        from repro.simulator import multistream

        campaign = ScenarioCampaign(fast_matrix())
        (manifest,) = campaign.shard_manifests(tmp_path / "shards", 1)
        shard_keys = [c.key for c in partition_cells(campaign.cells, 1)[0]]
        store_root = tmp_path / "shard-store"
        store_root.mkdir()
        # What a worker killed mid-batch leaves behind.
        (store_root / IN_FLIGHT_NAME).write_text(json.dumps(shard_keys))
        calls = []
        real = multistream.run_cores

        def counting(states, *args, **kwargs):
            calls.append(len(states))
            return real(states, *args, **kwargs)

        monkeypatch.setattr(multistream, "run_cores", counting)
        summary = run_manifest(manifest, store_root, echo=None)
        assert calls == []
        assert set(summary["computed"]) == set(shard_keys)
        assert read_in_flight(store_root) is None
        run_manifest(manifest, tmp_path / "clean", echo=None)
        assert ArtifactStore(store_root).content_hash() == (
            ArtifactStore(tmp_path / "clean").content_hash()
        )
        assert calls


def toy(value, after=None):
    return Cell(fn="demo_helpers:toy_cell", payload={"value": value}, after=after)


@pytest.fixture
def toy_batches():
    demo_helpers.TOY_BATCHES.clear()
    yield demo_helpers.TOY_BATCHES
    demo_helpers.TOY_BATCHES.clear()


def run_toys(executor, cells, **kwargs):
    """Run ``cells``; return the emitted ``(key, result)`` pairs in order."""
    emitted = []
    executor.run(
        cells, lambda cell, result, _: emitted.append((cell.key, result)), **kwargs
    )
    return emitted


class TestBatchExecutor:
    def test_is_the_single_process_default(self):
        cells = [toy(1), toy(2)]
        assert type(CampaignRunner(cells).executor) is BatchExecutor
        assert type(ScenarioCampaign(fast_matrix()).runner.executor) is (
            BatchExecutor
        )

    def test_batches_runs_of_cells_in_submission_order(self, toy_batches):
        cells = [toy(v) for v in (5, 1, 4, 2, 3)]
        emitted = run_toys(BatchExecutor(2), cells)
        assert emitted == [(c.key, c.payload["value"] * 10) for c in cells]
        # The trailing one-cell batch runs through the cell function.
        assert toy_batches == [[5, 1], [4, 2]]

    def test_chains_and_cells_without_a_batched_form_run_alone(
        self, toy_batches
    ):
        head = toy(1)
        plain = Cell(fn="repro.runtime.chaos:demo_cell", payload={"seed": 1})
        cells = [
            toy(2), toy(3), head, toy(4, after=head.key), toy(5), plain,
            toy(6), toy(7),
        ]
        emitted = run_toys(BatchExecutor(), cells)
        assert [key for key, _ in emitted] == [c.key for c in cells]
        assert emitted[3][1] == 40 + 10
        assert toy_batches == [[2, 3], [6, 7]]

    def test_revocation_is_checked_before_each_batch(self, toy_batches):
        cells = [toy(v) for v in range(4)]
        revoked = set()
        skipped = []

        def emit(cell, result, stored):
            if cell is cells[1]:
                revoked.add(cells[3].key)

        BatchExecutor(2).run(
            cells,
            emit,
            skip=lambda cell: cell.key in revoked,
            on_skip=skipped.append,
        )
        assert skipped == [cells[3]]
        assert toy_batches == [[0, 1]]

    def test_a_failing_batch_reruns_one_cell_at_a_time(self, toy_batches):
        cells = [toy(v) for v in (1, 2, -3, 4)]
        emitted = []
        with pytest.raises(RuntimeError, match="toy cell -3 is poisoned"):
            BatchExecutor().run(
                cells, lambda cell, result, _: emitted.append(cell.key)
            )
        # The cells before the poison land; the error is the poison's.
        assert emitted == [cells[0].key, cells[1].key]
        assert toy_batches == [[1, 2, -3, 4]]

    def test_an_injected_fault_lands_the_cells_before_it(
        self, tmp_path, toy_batches, chaos_env
    ):
        from repro.runtime.chaos import ChaosPoisonError

        cells = [toy(v) for v in (1, 2, 3, 4)]
        config = tmp_path / "chaos.json"
        config.write_text(
            json.dumps({"schema": 1, "poison_keys": [cells[2].key]})
        )
        chaos_env(config)
        emitted = []
        with pytest.raises(ChaosPoisonError):
            BatchExecutor().run(
                cells, lambda cell, result, _: emitted.append(cell.key)
            )
        # They land one at a time, as a serial run would land them.
        assert emitted == [cells[0].key, cells[1].key]
        assert toy_batches == []

    def test_a_diverging_batched_form_warns_and_keeps_serial_results(
        self, toy_batches
    ):
        cells = [
            Cell(fn="demo_helpers:toy_cell", payload={"value": v, "diverge": True})
            for v in (1, 2)
        ]
        with pytest.warns(RuntimeWarning, match="toy batch diverged"):
            emitted = run_toys(BatchExecutor(), cells)
        assert emitted == [(cells[0].key, 10), (cells[1].key, 20)]
        assert toy_batches == [[1, 2]]

    def test_in_flight_hears_each_lockstep_batch(self, toy_batches):
        cells = [toy(v) for v in range(5)]
        heard = []
        run_toys(BatchExecutor(2), cells, in_flight=heard.append)
        keys = [c.key for c in cells]
        # The trailing one-cell batch is not in lockstep with anything.
        assert [list(k) for k in heard] == [keys[:2], [], keys[2:4], []]

    def test_a_failing_batch_is_out_of_flight_before_its_serial_rerun(
        self, toy_batches
    ):
        cells = [toy(v) for v in (1, -2, 3)]
        heard = []
        with pytest.raises(RuntimeError, match="toy cell -2 is poisoned"):
            run_toys(BatchExecutor(), cells, in_flight=heard.append)
        assert [list(k) for k in heard] == [[c.key for c in cells], []]

    def test_batch_provenance_splits_the_wall_evenly(self):
        cells = [toy(v) for v in (1, 2, 3)]
        records = {}
        run_toys(BatchExecutor(), cells, on_provenance=records.__setitem__)
        walls = {records[c.key]["wall_s"] for c in cells}
        assert len(walls) == 1


class TestProcessPool:
    """The pool path: chain components dispatched to children."""

    def test_skip_drops_a_fully_revoked_chain(self):
        from repro.runtime.chaos import demo_matrix

        cells = demo_matrix(n_chains=3, chain_len=2)
        revoked = {cell.key for cell in cells[2:4]}  # the second chain
        skipped = []
        emitted = run_toys(
            ProcessPoolExecutor(2),
            cells,
            skip=lambda cell: cell.key in revoked,
            on_skip=skipped.append,
        )
        assert skipped == cells[2:4]
        assert sorted(key for key, _ in emitted) == sorted(
            cell.key for cell in cells if cell.key not in revoked
        )

    def test_a_half_revoked_chain_runs_intact(self):
        from repro.runtime.chaos import demo_matrix

        cells = demo_matrix(n_chains=2, chain_len=2)
        skipped = []
        emitted = run_toys(
            ProcessPoolExecutor(2),
            cells,
            skip=lambda cell: cell.key == cells[1].key,  # a chain's tail
            on_skip=skipped.append,
        )
        assert skipped == []
        assert sorted(key for key, _ in emitted) == sorted(c.key for c in cells)
        alone = dict(run_toys(BatchExecutor(1), cells))
        assert dict(emitted) == alone

    def test_an_armed_poison_key_raises_from_a_pool_child(
        self, tmp_path, chaos_env
    ):
        from multiprocessing.pool import RemoteTraceback

        from repro.runtime.chaos import ChaosPoisonError, demo_matrix

        cells = demo_matrix(n_chains=2, chain_len=1)
        config = tmp_path / "chaos.json"
        config.write_text(
            json.dumps({"schema": 1, "poison_keys": [cells[1].key]})
        )
        chaos_env(config)
        with pytest.raises(ChaosPoisonError, match="poison cell") as info:
            run_toys(ProcessPoolExecutor(2), cells)
        assert isinstance(info.value.__cause__, RemoteTraceback)

    def test_every_emitted_cell_carries_its_childs_provenance(self):
        from repro.runtime.chaos import demo_matrix

        cells = demo_matrix(n_chains=2, chain_len=2, sleep_s=0.02)
        heard = []
        records = {}

        def on_provenance(key, record):
            heard.append(("provenance", key))
            records[key] = record

        results = {}

        def emit(cell, result, stored):
            heard.append(("emit", cell.key))
            results[cell.key] = result

        ProcessPoolExecutor(2).run(cells, emit, on_provenance=on_provenance)
        assert sorted(records) == sorted(results) == sorted(c.key for c in cells)
        for key, result in results.items():
            # Heard just before its own emit, and measured where the
            # cell slept: in the child, as the record's step count and
            # wall time show.
            index = heard.index(("emit", key))
            assert heard[index - 1] == ("provenance", key)
            assert records[key]["n_steps"] == result["n_steps"]
            assert records[key]["wall_s"] >= 0.02


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
