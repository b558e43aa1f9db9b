"""Leases, the supervisor, quarantine, stealing, and the obs contract."""

import json
import os
import subprocess
import sys
import time

import pytest

from demo_helpers import serial_reference_hash, write_demo_shards

from repro.obs.metrics import MetricsRegistry
from repro.runtime import (
    ArtifactStore,
    LeaseHeartbeat,
    LeaseLostError,
    acquire_lease,
    lease_path_for,
    merge_stores,
    release_lease,
    renew_lease,
    run_campaign,
)
from repro.runtime.chaos import demo_matrix
from repro.runtime.coordinator import lease_expired, read_lease
from repro.runtime.worker import write_revoked


def _campaign(shard_dir, store_root, **kwargs):
    kwargs.setdefault("lease_ttl_s", 10.0)
    kwargs.setdefault("poll_s", 0.05)
    kwargs.setdefault("backoff_base_s", 0.05)
    kwargs.setdefault("backoff_cap_s", 0.2)
    kwargs.setdefault("max_wall_s", 120.0)
    kwargs.setdefault("echo", None)
    return run_campaign(shard_dir, store_root=store_root, **kwargs)


class TestLeases:
    def test_acquire_renew_release_roundtrip(self, tmp_path):
        path = tmp_path / "shard-0.lease.json"
        lease = acquire_lease(path, worker_id="w0", ttl_s=30.0)
        assert read_lease(path)["worker_id"] == "w0"
        renewed = renew_lease(path, lease["token"])
        assert renewed["renewed_unix_s"] >= lease["renewed_unix_s"]
        release_lease(path, lease["token"])
        assert read_lease(path) is None

    def test_live_foreign_lease_refused(self, tmp_path):
        path = tmp_path / "lease.json"
        acquire_lease(path, worker_id="w0", ttl_s=30.0)
        with pytest.raises(LeaseLostError, match="held by 'w0'"):
            acquire_lease(path, worker_id="w1", ttl_s=30.0)

    def test_expired_lease_is_taken_over(self, tmp_path):
        path = tmp_path / "lease.json"
        old = acquire_lease(
            path, worker_id="w0", ttl_s=5.0, now=time.time() - 60.0
        )
        taken = acquire_lease(path, worker_id="w1", ttl_s=5.0)
        assert taken["worker_id"] == "w1"
        # The usurped worker's next renewal must be fenced off.
        with pytest.raises(LeaseLostError, match="reassigned"):
            renew_lease(path, old["token"])

    def test_expiry_predicate(self):
        lease = {"renewed_unix_s": 100.0, "ttl_s": 10.0}
        assert not lease_expired(lease, now=105.0)
        assert lease_expired(lease, now=111.0)

    def test_expiry_tolerates_clock_skew(self):
        # A reader on a clock running ahead of the renewing worker (a
        # slowly-synced shared filesystem, loose NTP) must not fence a
        # live worker: skew_s widens the expiry margin by exactly that
        # grace, and a negative skew never *narrows* it.
        lease = {"renewed_unix_s": 100.0, "ttl_s": 10.0}
        assert lease_expired(lease, now=111.0, skew_s=0.0)
        assert not lease_expired(lease, now=111.0, skew_s=2.0)
        assert not lease_expired(lease, now=112.0, skew_s=2.0)
        assert lease_expired(lease, now=112.5, skew_s=2.0)
        assert lease_expired(lease, now=111.0, skew_s=-5.0)  # clamped to 0
        assert not lease_expired(lease, now=110.0, skew_s=-5.0)

    def test_release_is_noop_after_usurpation(self, tmp_path):
        path = tmp_path / "lease.json"
        old = acquire_lease(
            path, worker_id="w0", ttl_s=5.0, now=time.time() - 60.0
        )
        acquire_lease(path, worker_id="w1", ttl_s=30.0)
        release_lease(path, old["token"])
        assert read_lease(path)["worker_id"] == "w1"

    def test_lease_path_pairs_with_manifest(self, tmp_path):
        assert lease_path_for(tmp_path / "shard-3.json") == (
            tmp_path / "shard-3.lease.json"
        )


class TestLeaseHeartbeat:
    def test_heartbeat_renews_until_stopped(self, tmp_path):
        path = tmp_path / "lease.json"
        lease = acquire_lease(path, worker_id="w0", ttl_s=30.0)
        hb = LeaseHeartbeat(path, lease["token"], interval_s=0.05)
        hb.start()
        try:
            before = read_lease(path)["renewed_unix_s"]
            time.sleep(0.3)
            assert read_lease(path)["renewed_unix_s"] > before
            assert not hb.lost
        finally:
            hb.stop()

    def test_heartbeat_flags_lost_lease(self, tmp_path):
        path = tmp_path / "lease.json"
        lease = acquire_lease(path, worker_id="w0", ttl_s=30.0)
        hb = LeaseHeartbeat(path, lease["token"], interval_s=0.05)
        hb.start()
        try:
            path.unlink()  # the coordinator broke the lease
            deadline = time.time() + 5.0
            while not hb.lost and time.time() < deadline:
                time.sleep(0.02)
            assert hb.lost
        finally:
            hb.stop()


class TestBackoffSchedule:
    def test_relaunch_delay_sequence_is_pinned(self):
        # The exact relaunch schedule for backoff_base_s=0.05,
        # backoff_cap_s=0.2, seed=7 — per shard, per death count.
        # run_campaign builds this same RetryPolicy, so these literals
        # pin the coordinator's timing contract.
        from repro.runtime.remote import RetryPolicy

        policy = RetryPolicy(base_s=0.05, cap_s=0.2, seed=7)
        shard0 = [policy.delay_s(0, deaths) for deaths in range(1, 6)]
        assert shard0 == pytest.approx(
            [0.081003, 0.167720, 0.238620, 0.227004, 0.261614], abs=1e-6
        )
        # A different shard draws a different (but equally pinned) jitter.
        shard1 = [policy.delay_s(1, deaths) for deaths in range(1, 3)]
        assert shard1 == pytest.approx([0.055683, 0.124897], abs=1e-6)


class TestPoisonQuarantine:
    def test_poison_cell_is_quarantined_and_named_exactly(
        self, tmp_path, demo_cells, chaos_env
    ):
        """A poison cell costs its chain, never the campaign.

        ``failures.json`` must name *exactly* the poison cell as failed
        (its chained successor is a blocked casualty, reported
        separately), and the partial merge must equal the serial store
        minus precisely that chain.  Rerunning the same campaign, into
        the old merged store or a fresh one, reports the same
        quarantine at once and merges the same content.
        """
        # The serial reference must run before chaos is armed — the
        # injector is in-process for run_manifest.
        ref_dir = tmp_path / "ref"
        write_demo_shards(ref_dir, demo_cells, 1)
        from repro.runtime import run_manifest
        run_manifest(ref_dir / "shard-0.json", ref_dir / "store", echo=None)
        reference = ArtifactStore(ref_dir / "store")

        shard_dir = tmp_path / "shards"
        manifests = write_demo_shards(shard_dir, demo_cells, 2)
        entries = json.loads(manifests[1].read_text())["cells"]
        poison = entries[0]["key"]
        config = tmp_path / "chaos.json"
        config.write_text(json.dumps({
            "schema": 1, "poison_keys": [poison],
        }))
        chaos_env(config)
        summary = _campaign(
            shard_dir, tmp_path / "merged",
            max_retries=1, allow_partial=True,
        )
        assert not summary["ok"]
        assert summary["quarantined"] == (poison,)
        assert len(summary["blocked"]) == 1

        report = json.loads((shard_dir / "failures.json").read_text())
        assert list(report["cells"]) == [poison]
        assert report["blocked"] == list(summary["blocked"])

        # Partial merge: serial store minus exactly the poisoned chain.
        merged = ArtifactStore(tmp_path / "merged")
        missing = set(reference.keys()) - set(merged.keys())
        assert missing == {poison} | set(summary["blocked"])

        for store in ("merged", "merged-fresh"):
            start = time.monotonic()
            again = _campaign(
                shard_dir, tmp_path / store,
                max_retries=1, allow_partial=True,
            )
            assert time.monotonic() - start < 30.0
            assert again["quarantined"] == (poison,)
            assert again["blocked"] == summary["blocked"]
            assert again["launches"] == 0
            assert (
                again["merged"]["content_hash"]
                == summary["merged"]["content_hash"]
            )

    def test_orphaned_revocation_raises_naming_key_and_file(
        self, tmp_path, demo_cells
    ):
        """Revoked cells that no slot owns end the run, not idle it.

        A coordinator that dies after a steal, before the thief stores
        the stolen chain, leaves keys revoked from their shard with no
        steal manifest and no quarantine record.  The worker skips the
        revoked chain head's successor too, so it is unresolved as well.
        """
        shard_dir = tmp_path / "shards"
        manifests = write_demo_shards(shard_dir, demo_cells, 2)
        head, successor = [entry["key"] for entry in json.loads(
            manifests[1].read_text()
        )["cells"]]
        revoked = shard_dir / "shard-1.revoked.json"
        write_revoked(revoked, [head])
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="cannot progress") as info:
            _campaign(shard_dir, tmp_path / "merged")
        assert time.monotonic() - start < 30.0
        message = str(info.value)
        assert f"{revoked} revokes {head}" in message
        assert successor in message

    def test_cleared_orphaned_revocation_runs_again(
        self, tmp_path, demo_cells
    ):
        """Lifting an orphaned revocation, as the error advises, heals it.

        Once the key is gone from its revocation file, a rerun on the
        same shard dir runs the chain and merges the serial content.
        """
        reference = serial_reference_hash(tmp_path, demo_cells)
        shard_dir = tmp_path / "shards"
        manifests = write_demo_shards(shard_dir, demo_cells, 2)
        head = json.loads(manifests[1].read_text())["cells"][0]["key"]
        revoked = shard_dir / "shard-1.revoked.json"
        write_revoked(revoked, [head])
        with pytest.raises(RuntimeError, match="cannot progress"):
            _campaign(shard_dir, tmp_path / "merged")
        write_revoked(revoked, [])
        summary = _campaign(shard_dir, tmp_path / "merged")
        assert summary["ok"]
        assert summary["quarantined"] == ()
        assert summary["merged"]["content_hash"] == reference

    def test_failures_of_other_cells_resolve_nothing(
        self, tmp_path, demo_cells
    ):
        """A ``failures.json`` naming no cell of this campaign is ignored.

        Only the campaign's own keys are reloaded as quarantined or
        blocked, so a stale report from another manifest neither
        resolves nor reports anything, and every cell still runs.
        """
        reference = serial_reference_hash(tmp_path, demo_cells)
        shard_dir = tmp_path / "shards"
        write_demo_shards(shard_dir, demo_cells, 2)
        (shard_dir / "failures.json").write_text(json.dumps({
            "cells": {"cell-0000000000000000": {"shard": 0}},
            "blocked": ["cell-1111111111111111"],
        }))
        summary = _campaign(shard_dir, tmp_path / "merged")
        assert summary["ok"]
        assert summary["quarantined"] == ()
        assert summary["blocked"] == ()
        assert summary["stored"] == len(demo_cells)
        assert summary["merged"]["content_hash"] == reference

    def test_merge_refuses_partial_without_flag(
        self, tmp_path, demo_cells, chaos_env
    ):
        shard_dir = tmp_path / "shards"
        manifests = write_demo_shards(shard_dir, demo_cells, 2)
        poison = json.loads(manifests[0].read_text())["cells"][0]["key"]
        config = tmp_path / "chaos.json"
        config.write_text(json.dumps({"schema": 1, "poison_keys": [poison]}))
        chaos_env(config)
        summary = _campaign(
            shard_dir, tmp_path / "merged", max_retries=0,
        )
        assert not summary["ok"]
        assert summary["merged"] is None  # merge skipped, not partial
        stores = [shard_dir / f"shard-{i}-store" for i in range(2)]
        with pytest.raises(ValueError, match="allow-partial"):
            merge_stores(stores, tmp_path / "merged2")
        partial = merge_stores(
            stores, tmp_path / "merged2", allow_partial=True
        )
        assert poison in partial["failed"]


class TestWorkStealing:
    def test_idle_worker_steals_pending_chains(self, tmp_path, chaos_env):
        """A fast shard steals from a slow one and the result converges.

        Shard 1's first worker is slowed to a crawl; shard 0 finishes,
        steals pending chains from it, and the campaign must finish
        with at least one steal, byte-identical to serial.
        """
        cells = demo_matrix(n_chains=6, chain_len=2, seed=4)
        reference = serial_reference_hash(tmp_path, cells)
        shard_dir = tmp_path / "shards"
        write_demo_shards(shard_dir, cells, 2)
        config = tmp_path / "chaos.json"
        config.write_text(json.dumps({
            "schema": 1, "only_worker": "w1-a1", "slow_cell_s": 1.5,
        }))
        chaos_env(config)
        registry = MetricsRegistry()
        summary = _campaign(
            shard_dir, tmp_path / "merged",
            registry=registry, max_wall_s=180.0,
        )
        assert summary["ok"]
        assert summary["steals"] >= 1
        assert summary["merged"]["content_hash"] == reference
        steals = registry.counter("repro_coordinator_steals_total")
        assert sum(steals.samples().values()) == summary["steals"]

    def test_no_steal_flag_disables_stealing(self, tmp_path, demo_cells):
        shard_dir = tmp_path / "shards"
        write_demo_shards(shard_dir, demo_cells, 2)
        summary = _campaign(shard_dir, tmp_path / "merged", steal=False)
        assert summary["ok"]
        assert summary["steals"] == 0


class TestHealthyRunObservability:
    def test_healthy_campaign_emits_zero_failure_path_events(
        self, tmp_path, demo_cells
    ):
        """No chaos, no deaths: every failure-path counter stays zero
        and no failure-path event line is logged."""
        shard_dir = tmp_path / "shards"
        write_demo_shards(shard_dir, demo_cells, 2)
        registry = MetricsRegistry()
        lines = []
        summary = _campaign(
            shard_dir, tmp_path / "merged",
            registry=registry, echo=lines.append,
        )
        assert summary["ok"]
        assert summary["deaths"] == 0
        for name in (
            "repro_coordinator_worker_deaths_total",
            "repro_coordinator_cell_retries_total",
            "repro_coordinator_reassignments_total",
            "repro_coordinator_steals_total",
            "repro_coordinator_poison_cells_total",
        ):
            assert sum(registry.counter(name).samples().values()) == 0.0
        text = "\n".join(lines)
        assert "component=coordinator" in text
        assert "event=campaign_start" in text
        assert "event=campaign_done" in text
        for event in (
            "worker_dead", "cell_retry", "cell_quarantined", "steal",
            "merge_skipped",
        ):
            assert f"event={event}" not in text


class TestWorkerCliExitCodes:
    def _worker(self, manifest, store, *extra):
        cmd = [sys.executable, "-m", "repro", "worker", str(manifest),
               "--store", str(store), *extra]
        return subprocess.run(
            cmd, env=dict(os.environ), capture_output=True, text=True
        )

    def test_exit_0_on_success_and_3_on_held_lease(
        self, tmp_path, demo_cells
    ):
        shard_dir = tmp_path / "shards"
        (manifest,) = write_demo_shards(shard_dir, demo_cells, 1)
        lease = lease_path_for(manifest)
        acquire_lease(lease, worker_id="other", ttl_s=300.0)
        held = self._worker(
            manifest, tmp_path / "store", "--lease", str(lease)
        )
        assert held.returncode == 3
        assert "retryable" in held.stderr

        release_lease(lease, read_lease(lease)["token"])
        ok = self._worker(
            manifest, tmp_path / "store", "--lease", str(lease),
            "--worker-id", "w0-test",
        )
        assert ok.returncode == 0, ok.stderr
        # The lease is released on clean exit.
        assert read_lease(lease) is None

    def test_exit_4_when_failures_recorded(self, tmp_path, demo_cells):
        from repro.runtime.worker import (
            FAILURES_NAME,
            revoked_path_for,
            write_failures,
            write_revoked,
        )

        shard_dir = tmp_path / "shards"
        (manifest,) = write_demo_shards(shard_dir, demo_cells, 1)
        entries = json.loads(manifest.read_text())["cells"]
        poison, blocked = entries[0]["key"], entries[1]["key"]
        store_root = tmp_path / "store"
        store_root.mkdir()
        # The coordinator quarantined the first chain: revoked from the
        # worker, recorded as failed/blocked in the store.
        write_revoked(revoked_path_for(manifest), [poison, blocked])
        write_failures(
            store_root / FAILURES_NAME,
            {poison: {"error": "poison"}},
            blocked=[blocked],
        )
        result = self._worker(manifest, store_root)
        assert result.returncode == 4
        assert "failures" in result.stderr

    def test_exit_2_on_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": 1}))  # no encode/cells
        result = self._worker(bad, tmp_path / "store")
        assert result.returncode == 2
