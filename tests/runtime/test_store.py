"""Tests for the content-addressed artifact store."""

import json
import os

import pytest

import hashlib

from repro.runtime.store import (
    DIGESTS_KEY,
    ArtifactStore,
    StoreCorruptionError,
    atomic_write_text,
    validate_key,
)


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


DOCS = {"config": {"seed": 1, "patterns": ["a"]}, "a": {"values": [1.0, 2.0]}}


class TestPutGet:
    def test_roundtrip(self, store):
        store.put("k1", DOCS, meta={"kind": "test"})
        assert "k1" in store
        assert store.get("k1") == DOCS
        assert store.meta("k1")["kind"] == "test"
        assert store.meta("k1")["documents"] == ["a", "config"]

    def test_duplicate_rejected_unless_overwrite(self, store):
        store.put("k1", DOCS)
        with pytest.raises(ValueError):
            store.put("k1", DOCS)
        store.put("k1", {"config": {"seed": 2}}, overwrite=True)
        assert store.get("k1") == {"config": {"seed": 2}}

    def test_overwrite_drops_stale_documents(self, store):
        # The directory must mirror the manifest entry: a shrunken
        # overwrite may not leave the old version's files behind.
        store.put("k1", DOCS)
        store.put("k1", {"config": {"seed": 2}}, overwrite=True)
        assert sorted(p.name for p in (store.root / "k1").iterdir()) == [
            "config.json"
        ]

    def test_empty_documents_rejected(self, store):
        with pytest.raises(ValueError):
            store.put("k1", {})

    def test_unsafe_keys_rejected(self, store):
        for crafted in ("../escape", "..", ".", "a\n", "ok/../.."):
            with pytest.raises(ValueError):
                store.put(crafted, DOCS)
            with pytest.raises(ValueError):
                store.read_document(crafted, "config")
            with pytest.raises(ValueError):
                store.delete(crafted)
        with pytest.raises(ValueError):
            store.put("ok", {"../escape": {}})

    def test_missing_key_raises_keyerror(self, store):
        with pytest.raises(KeyError):
            store.get("nope")
        with pytest.raises(KeyError):
            store.meta("nope")
        with pytest.raises(KeyError):
            store.delete("nope")

    def test_missing_document_is_corruption(self, store):
        store.put("k1", DOCS)
        (store.root / "k1" / "a.json").unlink()
        with pytest.raises(StoreCorruptionError, match="k1"):
            store.read_document("k1", "a")

    def test_delete_tolerates_manifest_only_entry(self, store):
        manifest = {"ghost": {"documents": ["config"]}}
        (store.root / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StoreCorruptionError):
            store.read_document("ghost", "config")
        store.delete("ghost")
        assert "ghost" not in store

    def test_persistent_across_instances(self, tmp_path):
        root = tmp_path / "store"
        ArtifactStore(root).put("k1", DOCS)
        fresh = ArtifactStore(root)
        assert fresh.keys() == ["k1"]
        assert fresh.get("k1") == DOCS


class TestDurability:
    def test_atomic_write_leaves_no_temp_litter(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_text(path, "{}")
        atomic_write_text(path, '{"a": 1}')
        assert path.read_text() == '{"a": 1}'
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_text_write_lands_its_utf8_bytes(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_text(path, '{"\u00b5s": 1}\n')
        assert path.read_bytes() == '{"\u00b5s": 1}\n'.encode("utf-8")

    def test_interrupted_write_preserves_old_content(self, tmp_path, monkeypatch):
        # A crash before the rename (simulated by making os.replace
        # fail) must leave the destination untouched and clean up the
        # staging file.
        path = tmp_path / "out.json"
        atomic_write_text(path, "old")

        def boom(src, dst):
            raise OSError("simulated crash")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError, match="simulated crash"):
            atomic_write_text(path, "new")
        monkeypatch.undo()
        assert path.read_text() == "old"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_crashed_delete_never_strands_the_manifest(self, store, monkeypatch):
        # The manifest entry goes before the files: a delete killed
        # mid-unlink leaves an orphaned directory, never a manifest
        # entry pointing at missing files.
        from pathlib import Path

        store.put("k1", DOCS)

        def boom(self):
            raise OSError("killed mid-delete")

        monkeypatch.setattr(Path, "unlink", boom)
        with pytest.raises(OSError):
            store.delete("k1")
        monkeypatch.undo()
        assert "k1" not in store  # entry already gone
        for key in store.keys():
            store.get(key)  # nothing listed is unreadable
        store.put("k1", DOCS)  # the orphan directory is adopted
        assert store.get("k1") == DOCS

    def test_crashed_put_never_strands_the_manifest(self, store, monkeypatch):
        # Documents land before the manifest entry: if the writer dies
        # between them, the manifest still describes only complete
        # artifacts — the corruption error is unreachable from a crash.
        real = ArtifactStore._write_manifest

        def boom(self, manifest):
            raise OSError("killed before manifest update")

        monkeypatch.setattr(ArtifactStore, "_write_manifest", boom)
        with pytest.raises(OSError):
            store.put("k1", DOCS)
        monkeypatch.setattr(ArtifactStore, "_write_manifest", real)
        assert "k1" not in store  # manifest never saw the artifact
        for key in store.keys():  # every listed key is fully readable
            store.get(key)
        # The orphaned directory is adopted by the next put of the key.
        store.put("k1", DOCS)
        assert store.get("k1") == DOCS


class TestConcurrentWriters:
    def test_parallel_puts_lose_no_manifest_entries(self, tmp_path):
        # Two writers racing on one store (e.g. a resumed worker beside
        # the original it was presumed to have replaced): the manifest
        # lock must keep every writer's index entry.
        import threading

        store = ArtifactStore(tmp_path / "store")
        errors = []

        def writer(offset):
            try:
                mine = ArtifactStore(tmp_path / "store")
                for i in range(10):
                    mine.put(f"k{offset}-{i}", {"config": {"i": i}})
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(store.keys()) == 40
        for key in store.keys():
            store.get(key)


class TestMergeAndHash:
    def test_merge_adopts_only_missing_keys(self, tmp_path):
        a = ArtifactStore(tmp_path / "a")
        b = ArtifactStore(tmp_path / "b")
        a.put("k1", DOCS, meta={"kind": "x"})
        b.put("k1", {"config": {"seed": 9}})  # ignored: a already has k1
        b.put("k2", DOCS, meta={"kind": "y"})
        adopted = a.merge_from(b)
        assert adopted == ["k2"]
        assert a.get("k1") == DOCS
        assert a.meta("k2")["kind"] == "y"

    def test_merge_keys_filter_excludes_stale_artifacts(self, tmp_path):
        a = ArtifactStore(tmp_path / "a")
        b = ArtifactStore(tmp_path / "b")
        b.put("wanted", DOCS)
        b.put("stale", DOCS)
        adopted = a.merge_from(b, keys=["wanted", "never-computed"])
        assert adopted == ["wanted"]
        assert a.keys() == ["wanted"]

    def test_merge_preserves_document_bytes(self, tmp_path):
        # Byte-for-byte copies keep content hashes comparable across a
        # merge — the property the shard-equivalence gate relies on.
        a = ArtifactStore(tmp_path / "a")
        b = ArtifactStore(tmp_path / "b")
        b.put("k1", DOCS, meta={"kind": "x"})
        a.merge_from(b)
        assert a.content_hash() == b.content_hash()

    def test_merge_refuses_corrupt_source(self, tmp_path):
        a = ArtifactStore(tmp_path / "a")
        b = ArtifactStore(tmp_path / "b")
        b.put("k1", DOCS)
        (b.root / "k1" / "a.json").unlink()
        with pytest.raises(StoreCorruptionError, match="k1"):
            a.merge_from(b)

    def test_content_hash_is_order_independent(self, tmp_path):
        a = ArtifactStore(tmp_path / "a")
        b = ArtifactStore(tmp_path / "b")
        a.put("k1", DOCS)
        a.put("k2", {"config": {"seed": 2}})
        b.put("k2", {"config": {"seed": 2}})
        b.put("k1", DOCS)
        assert a.content_hash() == b.content_hash()
        b.delete("k1")
        assert a.content_hash() != b.content_hash()


class TestVerify:
    def test_clean_store_verifies_ok(self, store):
        store.put("k1", DOCS)
        store.put("k2", {"config": {"seed": 2}})
        report = store.verify()
        assert report.ok
        assert report.checked == 2
        assert report.problems == [] and report.orphans == []

    def test_digest_mismatch_detected(self, store):
        store.put("k1", DOCS)
        path = store.root / "k1" / "a.json"
        path.write_text(json.dumps({"values": [9.0]}))
        report = store.verify()
        assert not report.ok
        assert report.bad_keys() == ["k1"]
        (problem,) = report.problems
        assert problem.kind == "digest-mismatch"
        assert "k1/a: digest-mismatch" in str(problem)

    def test_missing_file_and_missing_dir_detected(self, store):
        import shutil

        store.put("k1", DOCS)
        store.put("k2", DOCS)
        (store.root / "k1" / "a.json").unlink()
        shutil.rmtree(store.root / "k2")
        report = store.verify()
        kinds = {(p.key, p.kind) for p in report.problems}
        assert kinds == {("k1", "missing-file"), ("k2", "missing-dir")}

    def test_torn_write_reported_unreadable(self, store):
        store.put("k1", DOCS)
        (store.root / "k1" / "a.json").write_text('{"values": [1.0')
        report = store.verify()
        (problem,) = report.problems
        assert problem.kind == "unreadable"

    def test_stray_file_detected(self, store):
        store.put("k1", DOCS)
        (store.root / "k1" / "extra.json").write_text("{}")
        report = store.verify()
        (problem,) = report.problems
        assert (problem.kind, problem.document) == ("stray-file", "extra")

    def test_orphan_directory_is_benign(self, store):
        # The residue of a writer SIGKILLed between document writes and
        # its manifest entry: reported, but never corruption.
        store.put("k1", DOCS)
        orphan = store.root / "k-orphan"
        orphan.mkdir()
        (orphan / "a.json").write_text("{}")
        report = store.verify()
        assert report.ok
        assert report.orphans == ["k-orphan"]

    def test_keys_subset_checks_only_those(self, store):
        store.put("good", DOCS)
        store.put("bad", DOCS)
        (store.root / "bad" / "a.json").unlink()
        assert store.verify(keys=["good"]).ok
        assert not store.verify(keys=["bad"]).ok
        with pytest.raises(KeyError, match="unknown"):
            store.verify(keys=["unknown"])

    def test_legacy_entry_without_digests_still_checked(self, store):
        # Entries written before digests/document lists existed: the
        # files on disk are the truth — presence and JSON validity are
        # still audited, byte digests and strays are not.
        store.put("k1", DOCS)
        manifest_path = store.root / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["k1"].pop("sha256", None)
        manifest["k1"].pop("documents", None)
        manifest_path.write_text(json.dumps(manifest))
        assert store.verify().ok
        (store.root / "k1" / "a.json").write_text("not json")
        report = store.verify()
        (problem,) = report.problems
        assert problem.kind == "unreadable"


def _strip_digests(store, key):
    """Rewrite ``key``'s entry as a pre-PR7 manifest would have it."""
    manifest_path = store.root / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest[key].pop(DIGESTS_KEY, None)
    manifest[key].pop("documents", None)
    manifest_path.write_text(json.dumps(manifest))


class TestUndigested:
    def test_verify_reports_undigested_without_failing(self, store):
        store.put("legacy", DOCS)
        store.put("modern", DOCS)
        _strip_digests(store, "legacy")
        report = store.verify()
        assert report.ok  # unauditable is not corrupt
        assert report.undigested == ["legacy"]

    def test_record_digests_backfills_and_closes_the_gap(self, store):
        store.put("legacy", DOCS)
        _strip_digests(store, "legacy")
        assert store.record_digests() == ["legacy"]
        report = store.verify()
        assert report.ok and report.undigested == []
        entry = store.meta("legacy")
        assert sorted(entry["documents"]) == ["a", "config"]
        # Backfill recorded the true bytes: tampering is now detectable.
        (store.root / "legacy" / "a.json").write_text('{"values": [9]}')
        assert store.verify().bad_keys() == ["legacy"]

    def test_record_digests_never_rewrites_existing_entries(self, store):
        store.put("modern", DOCS)
        before = (store.root / "manifest.json").read_bytes()
        assert store.record_digests() == []
        assert (store.root / "manifest.json").read_bytes() == before

    def test_record_digests_refuses_corrupt_bytes(self, store):
        store.put("legacy", DOCS)
        _strip_digests(store, "legacy")
        (store.root / "legacy" / "a.json").write_text('{"torn')
        with pytest.raises(StoreCorruptionError, match="refusing"):
            store.record_digests()

    def test_record_digests_refuses_missing_file(self, store):
        # Entry still lists its documents (only the digests are gone):
        # a listed-but-absent file is corruption, not backfillable.
        store.put("legacy", DOCS)
        manifest_path = store.root / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["legacy"].pop(DIGESTS_KEY, None)
        manifest_path.write_text(json.dumps(manifest))
        (store.root / "legacy" / "a.json").unlink()
        with pytest.raises(StoreCorruptionError, match="missing"):
            store.record_digests()

    def test_unknown_key_raises_keyerror(self, store):
        with pytest.raises(KeyError):
            store.record_digests(keys=["nope"])


class TestRepair:
    def test_repair_drops_corrupt_keys_and_their_files(self, store):
        store.put("good", DOCS)
        store.put("bad", DOCS)
        (store.root / "bad" / "a.json").write_text('{"values": [9.0]}')
        repaired = store.repair()
        assert repaired.dropped == ["bad"]
        assert "bad" not in store
        assert not (store.root / "bad").exists()
        assert store.get("good") == DOCS
        assert store.verify().ok

    def test_repair_handles_every_corruption_kind(self, store):
        import shutil

        store.put("gone-dir", DOCS)
        store.put("gone-file", DOCS)
        store.put("torn", DOCS)
        store.put("flipped", DOCS)
        shutil.rmtree(store.root / "gone-dir")
        (store.root / "gone-file" / "a.json").unlink()
        (store.root / "torn" / "a.json").write_text('{"values": [1.0')
        (store.root / "flipped" / "a.json").write_text('{"values": [9.0]}')
        repaired = store.repair()
        assert repaired.dropped == ["flipped", "gone-dir", "gone-file", "torn"]
        assert store.keys() == []
        assert store.verify().ok

    def test_repair_removes_strays_but_keeps_the_entry(self, store):
        store.put("k1", DOCS)
        (store.root / "k1" / "extra.json").write_text("{}")
        repaired = store.repair()
        assert repaired.dropped == []
        assert repaired.removed_files == ["k1/extra.json"]
        assert store.get("k1") == DOCS
        assert store.verify().ok

    def test_repair_never_touches_benign_orphans(self, store):
        store.put("k1", DOCS)
        orphan = store.root / "k-orphan"
        orphan.mkdir()
        (orphan / "a.json").write_text("{}")
        repaired = store.repair()
        assert repaired.dropped == [] and repaired.removed_files == []
        assert (orphan / "a.json").exists()

    def test_repaired_key_can_be_recomputed(self, store):
        store.put("k1", DOCS)
        (store.root / "k1" / "a.json").write_text("not json")
        store.repair()
        store.put("k1", DOCS)  # no overwrite needed: the entry is gone
        assert store.verify().ok


class TestAdopt:
    def _entry_for(self, files, **meta):
        digests = {
            name: hashlib.sha256(data).hexdigest()
            for name, data in files.items()
        }
        return {**meta, "documents": sorted(files), DIGESTS_KEY: digests}

    def _files(self):
        return {
            name: json.dumps(doc, indent=2, sort_keys=True).encode() + b"\n"
            for name, doc in DOCS.items()
        }

    def test_adopt_lands_verified_bytes(self, store):
        files = self._files()
        store.adopt("k1", files, self._entry_for(files, kind="x"))
        assert store.get("k1") == DOCS
        assert store.meta("k1")["kind"] == "x"
        assert store.verify().ok

    def test_adopt_refuses_digest_mismatch_entirely(self, store):
        files = self._files()
        entry = self._entry_for(files)
        files["a"] = files["a"][:-2] + b"]\n"  # corrupt after digesting
        with pytest.raises(StoreCorruptionError, match="digest mismatch"):
            store.adopt("k1", files, entry)
        # Nothing landed: no entry, no partial directory.
        assert "k1" not in store
        assert not (store.root / "k1").exists()

    def test_adopt_refuses_undigested_entries(self, store):
        files = self._files()
        with pytest.raises(StoreCorruptionError, match="digests"):
            store.adopt("k1", files, {"documents": sorted(files)})

    def test_adopt_refuses_invalid_json(self, store):
        data = b"not json"
        entry = {
            "documents": ["config"],
            DIGESTS_KEY: {"config": hashlib.sha256(data).hexdigest()},
        }
        with pytest.raises(StoreCorruptionError, match="not valid JSON"):
            store.adopt("k1", {"config": data}, entry)

    def test_adopt_keeps_existing_entry(self, store):
        store.put("k1", DOCS, meta={"kind": "original"})
        files = self._files()
        store.adopt("k1", files, self._entry_for(files, kind="adopted"))
        assert store.meta("k1")["kind"] == "original"


class TestMergeDigestVerification:
    def test_merge_verifies_source_bytes_against_digests(self, tmp_path):
        a = ArtifactStore(tmp_path / "a")
        b = ArtifactStore(tmp_path / "b")
        b.put("k1", DOCS)
        # Same length, valid JSON, wrong bytes: only the digest check
        # can catch this shard-side corruption.
        path = b.root / "k1" / "a.json"
        path.write_text(path.read_text().replace("1.0", "9.0"))
        with pytest.raises(StoreCorruptionError, match="k1"):
            a.merge_from(b)
        assert "k1" not in a

    def test_corrupt_shard_error_names_repair(self, tmp_path):
        a = ArtifactStore(tmp_path / "a")
        b = ArtifactStore(tmp_path / "b")
        b.put("k1", DOCS)
        (b.root / "k1" / "a.json").write_text('{"values": [9.0]}')
        with pytest.raises(StoreCorruptionError, match="repair"):
            a.merge_from(b)


class TestValidateKey:
    def test_kind_appears_in_message(self):
        with pytest.raises(ValueError, match="campaign id"):
            validate_key("..", kind="campaign id")
