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
    entry_documents,
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

    def test_put_reads_the_manifest_once(self, store, monkeypatch):
        store.put("k0", DOCS)
        reads = []
        real = ArtifactStore._read_manifest

        def counting(self):
            reads.append(1)
            return real(self)

        monkeypatch.setattr(ArtifactStore, "_read_manifest", counting)
        store.put("k1", DOCS)
        assert len(reads) == 1

    def test_duplicate_names_the_key_and_leaves_it_untouched(self, store):
        store.put("k1", DOCS)
        with pytest.raises(ValueError, match="'k1' already stored"):
            store.put("k1", {"config": {"seed": 9}})
        assert store.get("k1") == DOCS
        assert store.verify().ok

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

    def test_get_opens_each_document_once_without_probing(
        self, store, monkeypatch
    ):
        import repro.runtime.store as store_module
        from pathlib import Path

        store.put("k1", DOCS)
        opened, probed = [], []
        real_exists = Path.exists

        def counting_open(path, mode="r", *args, **kwargs):
            opened.append((path, mode))
            return open(path, mode, *args, **kwargs)

        def recording_exists(self, *args, **kwargs):
            probed.append(self)
            return real_exists(self, *args, **kwargs)

        monkeypatch.setattr(store_module, "open", counting_open, raising=False)
        monkeypatch.setattr(Path, "exists", recording_exists)
        documents = store.get("k1")
        monkeypatch.undo()
        assert documents == DOCS
        assert probed == []
        root = str(store.root)
        assert sorted(opened) == [
            (os.path.join(root, "k1", "a.json"), "rb"),
            (os.path.join(root, "k1", "config.json"), "rb"),
        ]

    def test_missing_document_names_key_and_path(self, store):
        store.put("k1", DOCS)
        path = store.root / "k1" / "a.json"
        path.unlink()
        with pytest.raises(StoreCorruptionError) as info:
            store.get("k1")
        assert "'k1'" in str(info.value)
        assert f"{path} is missing" in str(info.value)

    def test_directory_in_place_of_a_document_is_corruption(self, store):
        store.put("k1", DOCS)
        path = store.root / "k1" / "a.json"
        path.unlink()
        path.mkdir()
        with pytest.raises(StoreCorruptionError, match="is a directory"):
            store.get("k1")

    def test_file_in_place_of_the_artifact_directory_is_corruption(
        self, store
    ):
        store.put("k1", DOCS)
        directory = store.root / "k1"
        for path in directory.iterdir():
            path.unlink()
        directory.rmdir()
        directory.write_text("{}")
        with pytest.raises(StoreCorruptionError, match="missing"):
            store.get("k1")

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


class TestDirectoryFsync:
    """Each artifact directory is fsynced once, before its manifest entry."""

    @pytest.fixture
    def events(self, store, monkeypatch):
        import repro.runtime.store as store_module
        from pathlib import Path

        events = []
        real_write_manifest = ArtifactStore._write_manifest
        real_unlink = Path.unlink

        def write_manifest(self, manifest):
            events.append(("manifest",))
            real_write_manifest(self, manifest)

        def unlink(self, *args, **kwargs):
            events.append(("unlink", self.name))
            real_unlink(self, *args, **kwargs)

        monkeypatch.setattr(
            store_module, "_fsync_directory",
            lambda directory: events.append(("fsync", Path(directory))),
        )
        monkeypatch.setattr(ArtifactStore, "_write_manifest", write_manifest)
        monkeypatch.setattr(Path, "unlink", unlink)
        return events

    def test_put_syncs_the_artifact_directory_once(self, store, events):
        docs = {f"part{i}": {"i": i} for i in range(4)}
        store.put("k1", docs)
        assert events == [
            ("fsync", store.root / "k1"),
            ("manifest",),
            ("fsync", store.root),
        ]
        assert store.get("k1") == docs

    def test_stale_unlinks_precede_the_directory_sync(self, store, events):
        store.put("k1", DOCS)
        events.clear()
        store.put("k1", {"config": {"seed": 2}}, overwrite=True)
        assert events == [
            ("unlink", "a.json"),
            ("fsync", store.root / "k1"),
            ("manifest",),
            ("fsync", store.root),
        ]

    def test_adopt_syncs_the_artifact_directory_once(
        self, tmp_path, store, events
    ):
        source = ArtifactStore(tmp_path / "source")
        events.clear()
        source.put("k1", DOCS)
        events.clear()
        store.merge_from(source)
        assert events == [
            ("fsync", store.root / "k1"),
            ("manifest",),
            ("fsync", store.root),
        ]
        assert store.content_hash() == source.content_hash()


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


    def test_worker_survives_losing_a_put_race(
        self, tmp_path, monkeypatch, demo_cells
    ):
        # A peer worker on the same store (a shard relaunched while the
        # original still runs) lands a cell first: the loser's put
        # raises, the worker sees the key stored, and the shard goes on.
        from demo_helpers import serial_reference_hash, write_demo_shards
        from repro.runtime import run_manifest

        (manifest,) = write_demo_shards(tmp_path / "shards", demo_cells, 1)
        real_put = ArtifactStore.put
        raced = []

        def racing_put(self, key, documents, meta=None, overwrite=False):
            if not raced:
                raced.append(key)
                real_put(ArtifactStore(self.root), key, documents, meta=meta)
            return real_put(self, key, documents, meta=meta, overwrite=overwrite)

        monkeypatch.setattr(ArtifactStore, "put", racing_put)
        summary = run_manifest(manifest, tmp_path / "store", echo=None)
        monkeypatch.undo()
        assert raced[0] in summary["computed"]
        assert len(summary["computed"]) == len(demo_cells)
        assert ArtifactStore(tmp_path / "store").content_hash() == (
            serial_reference_hash(tmp_path, demo_cells)
        )


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

    def test_content_hash_reads_the_manifest_once(self, store, monkeypatch):
        for i in range(200):
            store.put(f"k{i:03d}", {"config": {"seed": i}, "a": {"i": [i]}})

        def reference():
            # The per-key algorithm: every key re-reads its entry.
            digest = hashlib.sha256()
            for key in store.keys():
                for name in entry_documents(key, store.meta(key))[0]:
                    digest.update(f"{key}/{name}\n".encode())
                    digest.update((store.root / key / f"{name}.json").read_bytes())
            return digest.hexdigest()

        expected = reference()
        reads = []
        real = ArtifactStore._read_manifest

        def counting(self):
            reads.append(1)
            return real(self)

        monkeypatch.setattr(ArtifactStore, "_read_manifest", counting)
        assert store.content_hash() == expected
        assert len(reads) == 1

    def test_content_hash_names_a_missing_document(self, store):
        store.put("k1", DOCS)
        (store.root / "k1" / "a.json").unlink()
        with pytest.raises(StoreCorruptionError, match="'k1'.*missing"):
            store.content_hash()


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


def _strip_digests(store, key, fields=(DIGESTS_KEY, "documents")):
    """Rewrite ``key``'s entry in the format that predates digests."""
    manifest_path = store.root / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    for name in fields:
        manifest[key].pop(name, None)
    manifest_path.write_text(json.dumps(manifest))


class TestBadEntries:
    """An entry without a document list and digests, or naming paths
    outside its directory, is corrupt everywhere."""

    @pytest.mark.parametrize(
        "fields", [(DIGESTS_KEY, "documents"), (DIGESTS_KEY,), ("documents",)]
    )
    def test_verify_reports_a_problem_naming_the_key(self, store, fields):
        store.put("legacy", DOCS)
        store.put("modern", DOCS)
        _strip_digests(store, "legacy", fields)
        report = store.verify()
        assert not report.ok
        (problem,) = report.problems
        assert (problem.key, problem.document, problem.kind) == (
            "legacy", "*", "bad-entry"
        )
        assert "predates" in problem.detail
        assert store.verify(keys=["modern"]).ok

    def test_one_document_without_a_digest_is_a_problem(self, store):
        store.put("k1", DOCS)
        manifest_path = store.root / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["k1"][DIGESTS_KEY]["a"]
        manifest_path.write_text(json.dumps(manifest))
        assert store.verify().bad_keys() == ["k1"]
        with pytest.raises(StoreCorruptionError, match="predates"):
            store.get("k1")

    def test_repair_drops_the_entry_and_its_files(self, store):
        store.put("legacy", DOCS)
        store.put("modern", DOCS)
        _strip_digests(store, "legacy")
        repaired = store.repair()
        assert repaired.dropped == ["legacy"]
        assert sorted(repaired.removed_files) == [
            "legacy/a.json", "legacy/config.json"
        ]
        assert store.keys() == ["modern"]
        assert store.verify().ok
        store.put("legacy", DOCS)  # recomputed under the current format
        assert store.verify().ok

    def test_reads_raise_naming_the_key(self, store):
        store.put("legacy", DOCS)
        _strip_digests(store, "legacy")
        with pytest.raises(StoreCorruptionError, match="'legacy' predates"):
            store.get("legacy")
        with pytest.raises(StoreCorruptionError, match="predates"):
            store.content_hash()

    def test_merge_raises_naming_key_and_source(self, tmp_path):
        a = ArtifactStore(tmp_path / "a")
        b = ArtifactStore(tmp_path / "b")
        b.put("legacy", DOCS)
        _strip_digests(b, "legacy")
        with pytest.raises(StoreCorruptionError, match="predates") as info:
            a.merge_from(b)
        assert "'legacy'" in str(info.value) and str(b.root) in str(info.value)
        assert a.keys() == [] and not (a.root / "legacy").exists()

    def test_unsafe_document_name_is_refused_on_read(self, store):
        store.put("k1", DOCS)
        (store.root / "x.json").write_text('{"outside": 1}')
        manifest_path = store.root / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["k1"] = {"documents": ["../x"], DIGESTS_KEY: {"../x": "0"}}
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="document name"):
            store.get("k1")

    def test_repair_never_touches_files_outside_the_root(self, tmp_path):
        # A crafted ".." key and a document name escaping its key
        # directory are bad entries: repair drops them and deletes no
        # file outside their artifact directories.
        store = ArtifactStore(tmp_path / "a" / "store")
        store.put("k1", DOCS)
        outside = [tmp_path / "a" / "x.json", store.root / "x.json"]
        for path in outside:
            path.write_text('{"outside": 1}')
        manifest_path = store.root / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest[".."] = {"documents": ["x"], DIGESTS_KEY: {"x": "0" * 64}}
        manifest["k2"] = {
            "documents": ["../x"], DIGESTS_KEY: {"../x": "0" * 64}
        }
        manifest_path.write_text(json.dumps(manifest))
        report = store.verify()
        assert sorted((p.key, p.kind) for p in report.problems) == [
            ("..", "bad-entry"), ("k2", "bad-entry")
        ]
        repaired = store.repair(report)
        assert repaired.dropped == ["..", "k2"]
        assert repaired.removed_files == []
        assert all(path.exists() for path in outside)
        assert store.keys() == ["k1"] and store.verify().ok

    def test_adopt_refuses_the_entry(self, store):
        data = b'{"seed": 1}\n'
        with pytest.raises(StoreCorruptionError, match="predates"):
            store.adopt("k1", {"config": data}, {"documents": ["config"]})
        assert "k1" not in store and not (store.root / "k1").exists()


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

    def test_rejected_key_leaves_no_directory(self, tmp_path):
        # The later of k1's two documents is corrupt: the earlier one
        # must not have been written when the merge refuses the key.
        a = ArtifactStore(tmp_path / "a")
        b = ArtifactStore(tmp_path / "b")
        b.put("k1", DOCS)
        (b.root / "k1" / "config.json").write_text('{"seed": 9}')
        with pytest.raises(StoreCorruptionError, match="'k1'"):
            a.merge_from(b)
        assert not (a.root / "k1").exists()
        assert a.keys() == []


class TestValidateKey:
    def test_kind_appears_in_message(self):
        with pytest.raises(ValueError, match="campaign id"):
            validate_key("..", kind="campaign id")
