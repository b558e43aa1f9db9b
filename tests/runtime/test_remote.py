"""Tests for integrity-verified cross-machine store sync.

The contract under test, end to end: seeded transport faults make
transfers retry and converge, every corruption is detected before it
can land, and a healthy link produces zero failure-named metrics.
"""

import hashlib
import json

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.runtime.remote import (
    SYNC_STATE_NAME,
    FaultyTransport,
    LocalDirTransport,
    RemoteStore,
    RetryPolicy,
    TransportError,
    TransportNotFoundError,
    TransportTimeoutError,
    read_sync_state,
)
from repro.runtime.store import DIGESTS_KEY, MANIFEST_NAME, ArtifactStore

DOCS = {"config": {"seed": 1, "patterns": ["a"]}, "a": {"values": [1.0, 2.0]}}


def make_syncer(tmp_path, transport=None, **kwargs):
    """A RemoteStore over fresh local/remote roots, sleeps recorded."""
    local = ArtifactStore(tmp_path / "local")
    if transport is None:
        transport = LocalDirTransport(tmp_path / "remote")
    kwargs.setdefault("registry", MetricsRegistry())
    syncer = RemoteStore(local, transport, echo=None, **kwargs)
    slept = []
    syncer._sleep = slept.append
    return syncer, slept


def failure_values(registry):
    """Current totals of every failure-named transport counter."""
    names = (
        "repro_transport_retries_total",
        "repro_transport_timeouts_total",
        "repro_transport_refetches_total",
        "repro_transport_reuploads_total",
        "repro_transport_failed_keys_total",
    )
    totals = {}
    for name in names:
        metric = registry._metrics.get(name)
        totals[name] = (
            sum(metric.samples().values()) if metric is not None else 0.0
        )
    return totals


class TestLocalDirTransport:
    def test_roundtrip_and_atomic_landing(self, tmp_path):
        t = LocalDirTransport(tmp_path / "r")
        t.write_bytes("k1/a.json", b'{"x": 1}')
        assert t.read_bytes("k1/a.json") == b'{"x": 1}'
        t.write_bytes("k1/a.json", b'{"x": 2}')
        assert t.read_bytes("k1/a.json") == b'{"x": 2}'
        # temp-then-rename leaves no staging litter behind
        assert [p.name for p in (tmp_path / "r" / "k1").iterdir()] == [
            "a.json"
        ]

    def test_write_fsyncs_the_directory_after_the_rename(
        self, tmp_path, monkeypatch
    ):
        # The rename is only durable once its directory is fsynced,
        # the same promise ArtifactStore's own writes keep.
        import repro.runtime.store as store_module

        synced = []
        monkeypatch.setattr(store_module, "_fsync_directory", synced.append)
        t = LocalDirTransport(tmp_path / "r")
        t.write_bytes("k1/a.json", b'{"x": 1}')
        assert synced == [tmp_path / "r" / "k1"]
        assert (tmp_path / "r" / "k1" / "a.json").read_bytes() == b'{"x": 1}'

    def test_missing_path_is_not_found(self, tmp_path):
        t = LocalDirTransport(tmp_path / "r")
        with pytest.raises(TransportNotFoundError):
            t.read_bytes("nope/a.json")

    def test_unsafe_paths_rejected(self, tmp_path):
        t = LocalDirTransport(tmp_path / "r")
        for crafted in ("../escape", "a/../../b", "", ".", "a//b", "a/\x00b"):
            with pytest.raises(ValueError, match="unsafe"):
                t.read_bytes(crafted)
            with pytest.raises(ValueError, match="unsafe"):
                t.write_bytes(crafted, b"x")


class TestRetryPolicy:
    def test_delay_sequence_is_pinned(self):
        # The exact schedule for the default policy (base 0.25s, cap
        # 10s, seed 0, tag 0).  These literals are the contract: any
        # change to the backoff or jitter math must show up here.
        policy = RetryPolicy()
        delays = [policy.delay_s(0, attempt) for attempt in range(1, 7)]
        assert delays == pytest.approx(
            [0.339585, 0.844381, 1.790665, 2.565849, 7.935350, 15.296180],
            abs=1e-6,
        )

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(seed=42)
        again = RetryPolicy(seed=42)
        for attempt in range(1, 10):
            frac = policy.jitter_frac("tag", attempt)
            assert frac == again.jitter_frac("tag", attempt)
            assert 0.0 <= frac < 1.0

    def test_cap_bounds_the_uncapped_tail(self):
        policy = RetryPolicy(base_s=0.25, cap_s=1.0, seed=0)
        for attempt in range(1, 20):
            assert policy.delay_s("t", attempt) < 2.0  # cap * (1 + jitter)

    def test_attempt_is_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            RetryPolicy().delay_s("t", 0)


class TestFaultyTransport:
    def test_truncate_upload_halves_the_landing(self, tmp_path):
        inner = LocalDirTransport(tmp_path / "r")
        faulty = FaultyTransport(inner, truncate_upload=1)
        payload = b'{"values": [1.0, 2.0]}'
        faulty.write_bytes("k1/a.json", payload)
        assert inner.read_bytes("k1/a.json") == payload[: len(payload) // 2]
        faulty.write_bytes("k1/a.json", payload)  # budget spent
        assert inner.read_bytes("k1/a.json") == payload

    def test_bit_flip_corrupts_one_read(self, tmp_path):
        inner = LocalDirTransport(tmp_path / "r")
        inner.write_bytes("k1/a.json", b'{"x": 1}')
        faulty = FaultyTransport(inner, bit_flip=1)
        first = faulty.read_bytes("k1/a.json")
        assert first != b'{"x": 1}' and len(first) == len(b'{"x": 1}')
        assert faulty.read_bytes("k1/a.json") == b'{"x": 1}'

    def test_drop_fires_at_the_nth_document(self, tmp_path):
        inner = LocalDirTransport(tmp_path / "r")
        faulty = FaultyTransport(inner, drop_at_document=2)
        faulty.write_bytes("k1/a.json", b"{}")
        with pytest.raises(TransportError, match="document #2"):
            faulty.write_bytes("k1/b.json", b"{}")
        faulty.write_bytes("k1/b.json", b"{}")  # drop budget spent

    def test_stall_beyond_timeout_raises(self, tmp_path):
        inner = LocalDirTransport(tmp_path / "r")
        inner.write_bytes("k1/a.json", b"{}")
        faulty = FaultyTransport(inner, stall_s=5.0)
        with pytest.raises(TransportTimeoutError, match="stalled"):
            faulty.read_bytes("k1/a.json", timeout_s=1.0)
        assert faulty.read_bytes("k1/a.json", timeout_s=1.0) == b"{}"

    def test_manifest_traffic_is_exempt_from_document_faults(self, tmp_path):
        inner = LocalDirTransport(tmp_path / "r")
        inner.write_bytes(MANIFEST_NAME, b"{}")
        faulty = FaultyTransport(inner, bit_flip=5, drop_at_document=1)
        for _ in range(3):  # faults target documents, never the index
            assert faulty.read_bytes(MANIFEST_NAME) == b"{}"


class TestPushPullSync:
    def test_push_then_pull_roundtrips_byte_identically(self, tmp_path):
        syncer, _ = make_syncer(tmp_path)
        syncer.local.put("k1", DOCS, meta={"kind": "x"})
        syncer.local.put("k2", {"config": {"seed": 2}})
        report = syncer.push()
        assert report.ok and sorted(report.pushed) == ["k1", "k2"]
        assert report.documents == 3

        other = ArtifactStore(tmp_path / "other")
        mirror = RemoteStore(
            other, LocalDirTransport(tmp_path / "remote"), echo=None
        )
        pulled = mirror.pull()
        assert pulled.ok and sorted(pulled.pulled) == ["k1", "k2"]
        assert other.content_hash() == syncer.local.content_hash()
        assert other.verify().ok
        assert other.meta("k1")["kind"] == "x"

    def test_second_push_is_a_delta_noop(self, tmp_path):
        syncer, _ = make_syncer(tmp_path)
        syncer.local.put("k1", DOCS)
        assert syncer.push().pushed == ["k1"]
        again = syncer.push()
        assert again.pushed == [] and again.skipped == ["k1"]
        assert again.documents == 0

    def test_pull_skips_keys_already_held(self, tmp_path):
        syncer, _ = make_syncer(tmp_path)
        syncer.local.put("k1", DOCS)
        syncer.push()
        report = syncer.pull()
        assert report.pulled == [] and report.skipped == ["k1"]

    def test_sync_converges_both_sides_to_the_union(self, tmp_path):
        a_store = ArtifactStore(tmp_path / "a")
        b_store = ArtifactStore(tmp_path / "b")
        transport = LocalDirTransport(tmp_path / "remote")
        a_store.put("only-a", DOCS)
        b_store.put("only-b", {"config": {"seed": 2}})
        RemoteStore(a_store, transport, echo=None).sync()
        report = RemoteStore(b_store, transport, echo=None).sync()
        assert report.ok
        assert report.pulled == ["only-a"] and report.pushed == ["only-b"]
        RemoteStore(a_store, transport, echo=None).sync()
        assert a_store.content_hash() == b_store.content_hash()

    def test_push_unknown_key_raises(self, tmp_path):
        syncer, _ = make_syncer(tmp_path)
        with pytest.raises(KeyError, match="nope"):
            syncer.push(keys=["nope"])

    def test_healthy_sync_emits_zero_failure_metrics(self, tmp_path):
        # The operational contract behind the CI chaos job's control
        # arm: on a clean link, every failure-named counter stays 0.
        syncer, slept = make_syncer(tmp_path)
        syncer.local.put("k1", DOCS)
        syncer.local.put("k2", {"config": {"seed": 2}})
        report = syncer.sync()
        assert report.ok
        assert report.retries == report.refetches == report.reuploads == 0
        assert slept == []
        totals = failure_values(syncer.registry)
        assert all(value == 0.0 for value in totals.values()), totals
        docs = syncer.registry._metrics["repro_transport_documents_total"]
        assert docs.value(direction="push") == 3.0

    def test_pushed_remote_is_a_valid_resumable_store(self, tmp_path):
        syncer, _ = make_syncer(tmp_path)
        syncer.local.put("k1", DOCS)
        syncer.push()
        remote_as_store = ArtifactStore(tmp_path / "remote")
        assert remote_as_store.get("k1") == DOCS
        assert remote_as_store.verify().ok


class TestUndigestedTransfer:
    def test_push_backfills_digests_for_legacy_entries(self, tmp_path):
        syncer, _ = make_syncer(tmp_path)
        syncer.local.put("legacy", DOCS)
        manifest_path = syncer.local.root / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["legacy"].pop(DIGESTS_KEY)
        manifest["legacy"].pop("documents")
        manifest_path.write_text(json.dumps(manifest))
        assert syncer.push().pushed == ["legacy"]
        remote = json.loads(
            (tmp_path / "remote" / MANIFEST_NAME).read_text()
        )
        assert sorted(remote["legacy"][DIGESTS_KEY]) == ["a", "config"]


class TestFaultConvergence:
    def test_truncated_upload_is_reuploaded(self, tmp_path):
        transport = FaultyTransport(
            LocalDirTransport(tmp_path / "remote"), truncate_upload=1
        )
        syncer, slept = make_syncer(tmp_path, transport=transport)
        syncer.local.put("k1", DOCS)
        report = syncer.push()
        assert report.ok and report.pushed == ["k1"]
        assert report.reuploads == 1
        other = ArtifactStore(tmp_path / "other")
        RemoteStore(
            other, LocalDirTransport(tmp_path / "remote"), echo=None
        ).pull()
        assert other.content_hash() == syncer.local.content_hash()

    def test_bit_flip_in_transit_is_refetched(self, tmp_path):
        src, _ = make_syncer(tmp_path)
        src.local.put("k1", DOCS)
        src.push()
        transport = FaultyTransport(
            LocalDirTransport(tmp_path / "remote"), bit_flip=1
        )
        dst = RemoteStore(
            ArtifactStore(tmp_path / "dst"), transport, echo=None
        )
        report = dst.pull()
        assert report.ok and report.pulled == ["k1"]
        assert report.refetches == 1
        assert dst.local.verify().ok
        assert dst.local.content_hash() == src.local.content_hash()

    def test_dropped_transfer_is_retried_to_convergence(self, tmp_path):
        transport = FaultyTransport(
            LocalDirTransport(tmp_path / "remote"), drop_at_document=2
        )
        syncer, slept = make_syncer(tmp_path, transport=transport)
        syncer.local.put("k1", DOCS)
        report = syncer.push()
        assert report.ok and report.retries == 1
        assert len(slept) == 1  # one backoff sleep, schedule-driven
        # document #2 is the read-back of the first written document
        assert slept[0] == syncer.backoff.delay_s("read:k1/a.json", 1)

    def test_stalled_transport_times_out_then_converges(self, tmp_path):
        inner = LocalDirTransport(tmp_path / "remote")
        transport = FaultyTransport(inner, stall_s=60.0)
        syncer, slept = make_syncer(
            tmp_path, transport=transport, timeout_s=0.5
        )
        syncer.local.put("k1", DOCS)
        report = syncer.push()
        assert report.ok and report.retries == 1
        totals = failure_values(syncer.registry)
        assert totals["repro_transport_timeouts_total"] == 1.0

    def test_persistent_corruption_never_lands(self, tmp_path):
        # Every fetch of every document corrupt: the pull must exhaust
        # its budget, fail the key loudly, and leave the local store
        # exactly as valid as before — zero corrupt documents adopted.
        src, _ = make_syncer(tmp_path)
        src.local.put("k1", DOCS)
        src.push()
        transport = FaultyTransport(
            LocalDirTransport(tmp_path / "remote"), bit_flip=99
        )
        dst = RemoteStore(
            ArtifactStore(tmp_path / "dst"), transport, retries=2, echo=None
        )
        dst.local.put("healthy", {"config": {"seed": 9}})
        report = dst.pull()
        assert not report.ok
        assert set(report.failed) == {"k1"}
        assert "digest mismatch" in report.failed["k1"]
        assert report.refetches == 2  # bounded by the retry budget
        assert "k1" not in dst.local
        assert dst.local.verify().ok
        assert dst.local.keys() == ["healthy"]

    def test_unreachable_remote_manifest_degrades_gracefully(self, tmp_path):
        class DeadTransport(LocalDirTransport):
            def read_bytes(self, relpath, timeout_s=None):
                raise TransportError("link down")

        dst = RemoteStore(
            ArtifactStore(tmp_path / "dst"),
            DeadTransport(tmp_path / "remote"),
            retries=1,
            echo=None,
        )
        dst._sleep = lambda s: None
        report = dst.pull()
        assert not report.ok
        assert MANIFEST_NAME in report.failed
        assert dst.local.verify().ok

    def test_corrupt_local_document_fails_its_key_only(self, tmp_path):
        syncer, _ = make_syncer(tmp_path)
        syncer.local.put("good", DOCS)
        syncer.local.put("bad", DOCS)
        (syncer.local.root / "bad" / "a.json").write_text('{"values": [9]}')
        report = syncer.push()
        assert report.pushed == ["good"]
        assert "bad" in report.failed
        assert "repair" in report.failed["bad"]


class TestSyncState:
    def test_sidecar_records_each_direction(self, tmp_path):
        syncer, _ = make_syncer(tmp_path)
        syncer.local.put("k1", DOCS)
        syncer.push()
        syncer.pull()
        state = read_sync_state(syncer.local.root)
        assert state is not None
        assert state["push"]["pushed"] == 1
        assert state["pull"]["skipped"] == 1
        assert state["push"]["failed"] == {}

    def test_sidecar_is_invisible_to_store_integrity(self, tmp_path):
        syncer, _ = make_syncer(tmp_path)
        syncer.local.put("k1", DOCS)
        before = syncer.local.content_hash()
        syncer.push()
        assert (syncer.local.root / SYNC_STATE_NAME).exists()
        assert syncer.local.content_hash() == before
        report = syncer.local.verify()
        assert report.ok and report.orphans == []

    def test_reader_tolerates_absence_and_garbage(self, tmp_path):
        assert read_sync_state(tmp_path) is None
        (tmp_path / SYNC_STATE_NAME).write_text("{torn")
        assert read_sync_state(tmp_path) is None
        (tmp_path / SYNC_STATE_NAME).write_text('{"schema": 99}')
        assert read_sync_state(tmp_path) is None
