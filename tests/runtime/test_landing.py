"""Shard merge and remote pull land documents through one gate.

``ArtifactStore.merge_from`` and ``RemoteStore.pull`` (through
``ArtifactStore.adopt``) both copy documents in from another store.
Drawn stores must come out of either path byte-identical to the store
the serial ``put``\\ s wrote, and one corruption matrix must be refused
by both: merge raises naming the key and the source store, pull reports
the key and leaves the local store valid.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.remote import LocalDirTransport, RemoteStore
from repro.runtime.store import (
    DIGESTS_KEY,
    MANIFEST_NAME,
    ArtifactStore,
    StoreCorruptionError,
)

DOCS = {"config": {"seed": 1, "patterns": ["a"]}, "a": {"values": [1.0, 2.0]}}

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-10**6, 10**6)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
artifacts = st.dictionaries(
    st.from_regex(r"[a-z0-9][a-z0-9._-]{0,7}", fullmatch=True),
    st.tuples(
        st.dictionaries(
            st.sampled_from(["config", "a", "b", "trace.1", "run-2"]),
            json_values,
            min_size=1,
            max_size=3,
        ),
        st.dictionaries(
            st.sampled_from(["kind", "seed", "obs"]), json_values, max_size=2
        ),
    ),
    min_size=1,
    max_size=5,
)


def document_bytes(store):
    """Every document file of ``store``, by ``key/name.json``."""
    return {
        f"{path.parent.name}/{path.name}": path.read_bytes()
        for path in sorted(store.root.glob("*/*.json"))
    }


@settings(max_examples=20, deadline=None)
@given(
    drawn=artifacts,
    shard_of=st.lists(st.integers(0, 2), min_size=5, max_size=5),
)
def test_merge_and_pull_reproduce_the_serial_store(drawn, shard_of):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        serial = ArtifactStore(root / "serial")
        shards = [ArtifactStore(root / f"shard-{i}") for i in range(3)]
        for index, (key, (documents, meta)) in enumerate(sorted(drawn.items())):
            serial.put(key, documents, meta=meta)
            shards[shard_of[index]].put(key, documents, meta=meta)

        merged = ArtifactStore(root / "merged")
        adopted = merged.merge_from(shards)
        assert adopted == [key for shard in shards for key in shard.keys()]
        pulled = ArtifactStore(root / "pulled")
        report = RemoteStore(
            pulled, LocalDirTransport(serial.root), echo=None
        ).pull()
        assert report.ok and report.pulled == serial.keys()

        for store in (merged, pulled):
            assert store.manifest() == serial.manifest()
            assert document_bytes(store) == document_bytes(serial)
            assert store.content_hash() == serial.content_hash()
            assert store.verify().ok


def _missing_file(source):
    (source.root / "k1" / "config.json").unlink()
    return "k1"


def _bit_flip(source):
    path = source.root / "k1" / "config.json"
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))
    return "k1"


def _truncated_json(source):
    path = source.root / "k1" / "config.json"
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    return "k1"


def _no_digests(source):
    manifest_path = source.root / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text())
    manifest["k1"].pop(DIGESTS_KEY)
    manifest["k1"].pop("documents")
    manifest_path.write_text(json.dumps(manifest))
    return "k1"


def _escaping_key(source):
    # A digest-matching file where "<root>/../x.json" resolves, so only
    # the key check stands between the entry and a write outside root.
    data = b'{"escaped": true}\n'
    (source.root.parent / "x.json").write_bytes(data)
    manifest_path = source.root / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text())
    manifest[".."] = {
        "documents": ["x"],
        DIGESTS_KEY: {"x": hashlib.sha256(data).hexdigest()},
    }
    manifest_path.write_text(json.dumps(manifest))
    return ".."


def _escaping_document(source):
    # The same for a document name: "k1/../x.json" is "<root>/x.json".
    data = b'{"escaped": true}\n'
    (source.root / "x.json").write_bytes(data)
    manifest_path = source.root / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text())
    manifest["k1"] = {
        "documents": ["../x"],
        DIGESTS_KEY: {"../x": hashlib.sha256(data).hexdigest()},
    }
    manifest_path.write_text(json.dumps(manifest))
    return "k1"


CORRUPTIONS = {
    "missing-file": _missing_file,
    "bit-flip": _bit_flip,
    "truncated-json": _truncated_json,
    "no-digests": _no_digests,
    "escaping-key": _escaping_key,
    "escaping-document": _escaping_document,
}


@pytest.fixture(params=sorted(CORRUPTIONS))
def corrupted(request, tmp_path):
    """A source store holding a healthy key and one corrupted one."""
    source = ArtifactStore(tmp_path / "source" / "store")
    source.put("good", DOCS)
    source.put("k1", DOCS)
    bad_key = CORRUPTIONS[request.param](source)
    out = tmp_path / "out"
    out.mkdir()
    return source, bad_key, out


def _nothing_escaped(out, store):
    assert [path.name for path in out.iterdir()] == [store.root.name]


def test_merge_refuses_naming_key_and_source(corrupted):
    source, bad_key, out = corrupted
    merged = ArtifactStore(out / "merged")
    with pytest.raises(StoreCorruptionError) as info:
        merged.merge_from(source)
    message = str(info.value)
    assert repr(bad_key) in message and str(source.root) in message
    assert "repair that shard store" in message
    assert merged.keys() == []
    # "good" sorts first, so its documents may be on disk, unindexed.
    assert sorted(path.name for path in merged.root.iterdir()) in (
        ["manifest.json"], ["good", "manifest.json"]
    )
    _nothing_escaped(out, merged)


def test_pull_reports_the_key_and_stays_valid(corrupted):
    source, bad_key, out = corrupted
    pulled = ArtifactStore(out / "pulled")
    report = RemoteStore(
        pulled, LocalDirTransport(source.root), retries=0, echo=None
    ).pull()
    healthy = [key for key in ("good", "k1") if key != bad_key]
    assert list(report.failed) == [bad_key]
    assert report.pulled == healthy
    assert pulled.keys() == healthy and pulled.verify().ok
    assert bad_key not in {path.name for path in pulled.root.iterdir()}
    _nothing_escaped(out, pulled)
