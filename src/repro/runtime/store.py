"""Content-addressed artifact store with atomic, durable writes.

One :class:`ArtifactStore` is the persistence substrate for every
campaign-shaped workload in the library: scenario and serving
sweeps, Table 3 trace repositories and shard workers on other
machines all write the same layout::

    <root>/
      manifest.json            index: key -> metadata, document list
                               and per-document sha256 digests
      <key>/
        <name>.json            one JSON document per named artifact part

Three durability rules make the store safe for crashed writers and
for concurrent writers on one machine:

* every file — documents and manifest alike — is written to a
  process-unique temp file, fsynced, and moved into place with
  :func:`os.replace`, so a reader can never observe a torn write;
* an artifact's documents are fully on disk (and synced) *before* its
  manifest entry is written, so a manifest can never point at files
  that do not exist.  A crash mid-store leaves at worst an orphaned
  artifact directory, which the next ``put`` of the same key adopts;
* manifest read-modify-writes hold an ``flock`` on a sidecar lock
  file, so two writers updating one store (a resumed worker racing
  the original it was presumed to have replaced) cannot lose each
  other's entries.  Because artifacts are content-addressed, racing
  writers produce identical documents — the lock only has to keep the
  *index* consistent.  (The lock is advisory and same-machine;
  cross-machine coordination goes through per-shard stores and an
  explicit merge, never a shared manifest.)

The store is content-addressed by convention: callers derive keys from
a content hash of the producing configuration (see
:meth:`repro.runtime.cell.Cell.key`), so two stores populated from the
same work — serially, via a process pool, or merged back from per-shard
stores on different machines — end up byte-identical
(:meth:`ArtifactStore.content_hash` makes that checkable).

An entry without those digests predates them and is refused as
corrupt everywhere (:func:`entry_documents`), so it is recomputed.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None

__all__ = [
    "ArtifactStore",
    "StoreCorruptionError",
    "StoreRepairReport",
    "StoreVerifyProblem",
    "StoreVerifyReport",
    "atomic_write_bytes",
    "atomic_write_text",
    "entry_documents",
    "validate_key",
]

_KEY_RE = re.compile(r"^[A-Za-z0-9._-]+$")

MANIFEST_NAME = "manifest.json"

#: Manifest-meta key under which per-document sha256 digests live.
#: Like execution provenance, digests ride in the manifest *meta* —
#: never in the documents — so :meth:`ArtifactStore.content_hash` (and
#: the serial == pool == shard byte-equivalence built on it) is
#: untouched by their presence.
DIGESTS_KEY = "sha256"


class StoreCorruptionError(RuntimeError):
    """A manifest entry and the files on disk disagree.

    Raised when reading an artifact whose directory or document files
    have gone missing behind the manifest's back (partial copy, manual
    deletion) — distinct from the ``KeyError`` of asking for a key that
    was never stored.  Thanks to the write ordering in
    :meth:`ArtifactStore.put`, a *crashed writer* can no longer produce
    this state; it now signals external interference.
    """


@dataclass(frozen=True)
class StoreVerifyProblem:
    """One manifest↔disk inconsistency found by :meth:`ArtifactStore.verify`.

    ``kind`` is one of ``bad-entry`` (the entry predates its document
    list and sha256 digests, or names a path outside its directory),
    ``missing-dir`` (manifested artifact has no
    directory), ``missing-file`` (a listed document file is absent),
    ``unreadable`` (the file exists but is not valid JSON — a torn or
    truncated write), ``digest-mismatch`` (bytes differ from the sha256
    recorded at ``put`` time), or ``stray-file`` (a document file the
    manifest entry does not list).
    """

    key: str
    document: str
    kind: str
    detail: str = ""

    def __str__(self) -> str:  # pragma: no cover - convenience
        text = f"{self.key}/{self.document}: {self.kind}"
        return f"{text} ({self.detail})" if self.detail else text


@dataclass
class StoreVerifyReport:
    """Outcome of one integrity audit over a store (or a key subset).

    ``problems`` are genuine inconsistencies (the store is corrupt for
    those keys); ``orphans`` are artifact directories with no manifest
    entry — the benign residue of a writer killed mid-``put`` (the next
    ``put`` of the key adopts them), reported so an operator can
    reclaim the space but never counted as corruption.
    """

    root: Path
    checked: int
    problems: list[StoreVerifyProblem] = field(default_factory=list)
    orphans: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def bad_keys(self) -> list[str]:
        """Keys with at least one problem, sorted."""
        return sorted({p.key for p in self.problems})


@dataclass
class StoreRepairReport:
    """Outcome of one :meth:`ArtifactStore.repair` pass.

    ``dropped`` are keys whose manifest entries were removed (their
    documents were corrupt or missing, so a re-run or ``pull`` must
    recompute them); ``removed_files`` are the document files deleted,
    as ``key/name.json`` strings.  Benign orphans are never touched.
    """

    dropped: list[str] = field(default_factory=list)
    removed_files: list[str] = field(default_factory=list)


def validate_key(key: str, kind: str = "artifact key") -> None:
    """Refuse keys that could escape the store root.

    fullmatch (not match) so a trailing newline cannot ride along, and
    all-dot names are refused: "." and ".." are valid per the character
    class but resolve outside the artifact's directory.
    """
    if not isinstance(key, str) or not _KEY_RE.fullmatch(key) or set(key) <= {"."}:
        raise ValueError(
            f"{kind} {key!r} must be filesystem-safe "
            "(letters, digits, dot, dash, underscore; not all dots)"
        )


def entry_documents(key: str, entry: Mapping) -> tuple[list[str], Mapping]:
    """The document names and sha256 digests a manifest entry records.

    Raises :class:`StoreCorruptionError` naming ``key`` for an entry
    that predates per-document digests: it must be recomputed.  A
    document name that is not filesystem-safe raises ``ValueError``.
    """
    names = entry.get("documents")
    digests = entry.get(DIGESTS_KEY)
    if (
        not isinstance(names, list)
        or not names
        or not isinstance(digests, Mapping)
        or any(name not in digests for name in names)
    ):
        raise StoreCorruptionError(
            f"artifact {key!r} predates per-document sha256 digests (its "
            "manifest entry needs a document list and a digest for each "
            "document); recompute it — `repro store verify --repair` "
            "drops the entry"
        )
    for name in names:
        validate_key(name, kind="document name")
    return names, digests


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` durably: temp file + fsync + rename.

    The temp file lives in the destination directory (``os.replace``
    must not cross filesystems) with a process-unique name, so
    concurrent writers cannot trample each other's staging files and an
    interrupted write leaves the destination untouched.  The directory
    is fsynced after the rename, so the rename itself is durable.
    """
    path = Path(path)
    _replace_file(path, data)
    _fsync_directory(path.parent)


def _replace_file(path: Path, data: bytes) -> None:
    """Temp file + fsync + rename, leaving the directory fsync to the caller.

    :func:`atomic_write_bytes` syncs the directory after each file;
    :meth:`ArtifactStore.put` and :meth:`ArtifactStore._land` rename
    every document of an artifact first and sync its directory once.
    """
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def atomic_write_text(path: Path, text: str) -> None:
    """:func:`atomic_write_bytes` of ``text`` encoded as UTF-8."""
    atomic_write_bytes(path, text.encode("utf-8"))


def _fsync_directory(directory: Path) -> None:
    """Best-effort directory fsync so the rename itself is durable."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir open
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - filesystem refuses dir fsync
        pass
    finally:
        os.close(fd)


def _prune_stale(directory: Path, keep) -> None:
    """Unlink the ``*.json`` documents in ``directory`` not named in ``keep``."""
    for stale in directory.glob("*.json"):
        if stale.stem not in keep:
            stale.unlink()


def _canonical_json(payload) -> str:
    """The one JSON rendering the store ever writes.

    Sorted keys and a fixed separator/indent policy make document bytes
    a pure function of their content, which is what lets
    :meth:`ArtifactStore.content_hash` compare stores across machines.
    """
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


class ArtifactStore:
    """Directory-backed store of named JSON documents per artifact key.

    Reads are the hot path of a rerun campaign, so a document read is
    one ``open()`` of a string path built from the root string cached
    at construction, then one ``json.loads``: no ``exists()`` probe
    and no pathlib join.  The key and document names are validated
    (:func:`validate_key`, then :func:`entry_documents`) before any
    path is built, and a file that has gone missing behind the
    manifest's back surfaces as :class:`StoreCorruptionError` naming
    the key and the path.
    """

    #: Test-only seam for the chaos harness: when set (by
    #: :mod:`repro.runtime.chaos`), called as ``hook(key)`` after an
    #: artifact's documents are on disk but *before* its manifest entry
    #: is written — the exact instant a SIGKILL must leave nothing worse
    #: than an orphaned directory.  ``None`` in production.
    _chaos_put_hook: "Callable[[str], None] | None" = None

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._root_prefix = os.path.join(os.fspath(self.root), "")
        self._manifest_path = self.root / MANIFEST_NAME
        if not self._manifest_path.exists():
            self._write_manifest({})

    # -- manifest ----------------------------------------------------------
    def _read_manifest(self) -> dict:
        return json.loads(self._manifest_path.read_text())

    def _write_manifest(self, manifest: dict) -> None:
        atomic_write_text(self._manifest_path, _canonical_json(manifest))

    @contextmanager
    def _manifest_lock(self):
        """Exclusive advisory lock for manifest read-modify-writes.

        Readers stay lock-free (they only ever see a complete manifest
        thanks to the atomic rename); writers serialize so concurrent
        puts/deletes cannot drop each other's index entries.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX platform
            yield
            return
        fd = os.open(self.root / ".manifest.lock", os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)

    def keys(self) -> list[str]:
        """All stored artifact keys, sorted."""
        return sorted(self._read_manifest())

    def __contains__(self, key: str) -> bool:
        return key in self._read_manifest()

    def __len__(self) -> int:
        return len(self._read_manifest())

    def meta(self, key: str) -> dict:
        """The manifest metadata recorded with :meth:`put`."""
        validate_key(key)
        manifest = self._read_manifest()
        if key not in manifest:
            raise KeyError(f"no stored artifact {key!r}")
        return dict(manifest[key])

    def manifest(self) -> dict[str, dict]:
        """A copy of the full manifest (key -> metadata)."""
        return {key: dict(entry) for key, entry in self._read_manifest().items()}

    # -- store / load ------------------------------------------------------
    def put(
        self,
        key: str,
        documents: Mapping[str, Mapping],
        meta: Mapping | None = None,
        overwrite: bool = False,
    ) -> Path:
        """Persist one artifact; refuses to overwrite unless asked.

        ``documents`` maps file stems to JSON-serializable payloads.
        All files land on disk (each atomically) before the manifest
        entry appears, so no observable manifest state ever references
        missing files.  The canonical sha256 of every document is
        recorded in the manifest entry under :data:`DIGESTS_KEY`, which
        is what :meth:`verify` audits disk bytes against.

        The artifact directory is fsynced once, after every document
        is renamed into place and stale files are pruned, and before
        the manifest entry is written: one sync makes all the renames
        and unlinks durable.

        The whole write holds the manifest lock, so one manifest parse
        serves both the existence check and the new entry, and a
        refused duplicate never touches the stored key's files.
        """
        validate_key(key)
        if not documents:
            raise ValueError(f"artifact {key!r} needs at least one document")
        for name in documents:
            validate_key(name, kind="document name")
        entry = dict(meta or {})
        entry["documents"] = sorted(documents)
        with self._manifest_lock():
            manifest = self._read_manifest()
            if not overwrite and key in manifest:
                raise ValueError(f"artifact {key!r} already stored")
            directory = self.root / key
            directory.mkdir(exist_ok=True)
            digests: dict[str, str] = {}
            for name, payload in documents.items():
                data = _canonical_json(payload).encode("utf-8")
                digests[name] = hashlib.sha256(data).hexdigest()
                _replace_file(directory / f"{name}.json", data)
            # Drop documents a previous version of the key wrote but
            # this one does not: the directory must mirror the manifest
            # entry.
            _prune_stale(directory, documents)
            _fsync_directory(directory)
            if type(self)._chaos_put_hook is not None:
                type(self)._chaos_put_hook(key)
            entry[DIGESTS_KEY] = digests
            manifest[key] = entry
            self._write_manifest(manifest)
        return directory

    def _read_document_bytes(self, key: str, name: str) -> bytes:
        """One document's bytes, for a validated key and document name.

        One ``open()`` of a string path and no ``exists()`` probe: a
        missing file (or a directory in its place) is reported as
        :class:`StoreCorruptionError` naming the key and the path.  A
        plain file where the artifact directory should be reads as a
        missing document, as a missing directory does.
        """
        path = f"{self._root_prefix}{key}{os.sep}{name}.json"
        try:
            with open(path, "rb") as handle:
                return handle.read()
        except (FileNotFoundError, NotADirectoryError):
            raise StoreCorruptionError(
                f"artifact {key!r} is in the manifest but its document "
                f"{path} is missing; the store is corrupt — delete the "
                "manifest entry or restore the files"
            ) from None
        except IsADirectoryError:
            raise StoreCorruptionError(
                f"artifact {key!r} is in the manifest but its document "
                f"{path} is a directory; the store is corrupt — delete "
                "the manifest entry or restore the files"
            ) from None

    def _read_document_file(self, key: str, name: str) -> dict:
        """Read one document file, assuming the key is manifested."""
        return json.loads(self._read_document_bytes(key, name).decode("utf-8"))

    def read_document(self, key: str, name: str) -> dict:
        """Load one named document of a stored artifact."""
        validate_key(key)
        validate_key(name, kind="document name")
        if key not in self:
            raise KeyError(f"no stored artifact {key!r}")
        return self._read_document_file(key, name)

    def get(self, key: str, entry: Mapping | None = None) -> dict[str, dict]:
        """Load every document of a stored artifact, by name.

        ``entry`` lets bulk readers pass the key's already-read
        manifest entry (from one :meth:`manifest` snapshot), so loading
        N artifacts costs one manifest parse, not O(N).
        """
        validate_key(key)
        if entry is None:
            entry = self.meta(key)
        return {
            name: self._read_document_file(key, name)
            for name in entry_documents(key, entry)[0]
        }

    def delete(self, key: str) -> None:
        """Remove an artifact and its files.

        The manifest entry goes first, the files after: a crash
        mid-delete leaves at worst an orphaned directory (which a
        later ``put`` of the key adopts), never a manifest entry
        pointing at missing files.  Tolerates an already-missing
        artifact directory (the manifest-only state
        :meth:`read_document` reports) so a broken entry can always be
        cleared, as the corruption error's message advises.
        """
        validate_key(key)
        if key not in self:
            raise KeyError(f"no stored artifact {key!r}")
        with self._manifest_lock():
            manifest = self._read_manifest()
            manifest.pop(key, None)
            self._write_manifest(manifest)
        directory = self.root / key
        if directory.exists():
            for path in directory.glob("*.json"):
                path.unlink()
            directory.rmdir()

    # -- integrity ---------------------------------------------------------
    def verify(self, keys: Iterable[str] | None = None) -> StoreVerifyReport:
        """Audit manifest↔disk consistency; never modifies the store.

        For every manifested key (or just ``keys``), checks that the
        entry records safe document names and their digests (else it is
        a ``bad-entry`` problem, as is an unsafe key), that the artifact
        directory exists, that every listed document file is present
        and parses as JSON, and that the file bytes hash to the sha256
        recorded under :data:`DIGESTS_KEY` at ``put`` time.  Document
        files the entry does not list are flagged as strays (external
        interference; :meth:`put` prunes its own).  Artifact
        directories without a manifest entry are reported as orphans
        (the benign residue of a killed writer), not problems.

        This is the audit behind ``repro store verify`` and the
        worker's resume path: a key that fails it must be recomputed,
        not trusted as a cache hit.
        """
        manifest = self._read_manifest()
        if keys is None:
            wanted = sorted(manifest)
        else:
            wanted = sorted(set(keys))
            missing = [key for key in wanted if key not in manifest]
            if missing:
                raise KeyError(f"no stored artifact {missing[0]!r}")
        report = StoreVerifyReport(root=self.root, checked=len(wanted))
        for key in wanted:
            try:
                validate_key(key)
                names, digests = entry_documents(key, manifest[key])
            except (ValueError, StoreCorruptionError) as exc:
                report.problems.append(
                    StoreVerifyProblem(key, "*", "bad-entry", str(exc))
                )
                continue
            directory = self.root / key
            if not directory.is_dir():
                report.problems.append(
                    StoreVerifyProblem(key, "*", "missing-dir")
                )
                continue
            for name in names:
                path = directory / f"{name}.json"
                if not path.exists():
                    report.problems.append(
                        StoreVerifyProblem(key, name, "missing-file")
                    )
                    continue
                data = path.read_bytes()
                try:
                    json.loads(data)
                except ValueError as exc:
                    report.problems.append(
                        StoreVerifyProblem(key, name, "unreadable", str(exc))
                    )
                    continue
                recorded = digests[name]
                actual = hashlib.sha256(data).hexdigest()
                if actual != recorded:
                    report.problems.append(
                        StoreVerifyProblem(
                            key,
                            name,
                            "digest-mismatch",
                            f"recorded {recorded[:12]}… got {actual[:12]}…",
                        )
                    )
            listed = set(names)
            for path in sorted(directory.glob("*.json")):
                if path.stem not in listed:
                    report.problems.append(
                        StoreVerifyProblem(key, path.stem, "stray-file")
                    )
        if keys is None:
            for path in sorted(self.root.iterdir()):
                if path.is_dir() and path.name not in manifest:
                    report.orphans.append(path.name)
        return report

    def repair(
        self, report: StoreVerifyReport | None = None
    ) -> StoreRepairReport:
        """Remove corrupt artifacts so a re-run or ``pull`` recomputes them.

        Keys with missing, truncated, or digest-mismatched documents,
        and keys whose entry predates digests, lose their manifest
        entry first (the :meth:`delete` ordering,
        so a crash mid-repair cannot leave an entry pointing at deleted
        files) and their document files after.  Stray files — documents
        a healthy entry does not list — are deleted without touching
        the entry.  Benign orphan directories are never touched: they
        are a killed writer's residue, not corruption, and the next
        ``put`` adopts them.
        """
        if report is None:
            report = self.verify()
        drop_kinds = {"bad-entry", "missing-dir", "missing-file",
                      "unreadable", "digest-mismatch"}
        dropped = sorted(
            {p.key for p in report.problems if p.kind in drop_kinds}
        )
        strays = sorted(
            (p.key, p.document)
            for p in report.problems
            if p.kind == "stray-file" and p.key not in set(dropped)
        )
        repaired = StoreRepairReport(dropped=dropped)
        if dropped:
            with self._manifest_lock():
                manifest = self._read_manifest()
                for key in dropped:
                    manifest.pop(key, None)
                self._write_manifest(manifest)
        for key in dropped:
            try:
                validate_key(key)
            except ValueError:
                continue  # a crafted key: drop its entry, touch no files
            directory = self.root / key
            if not directory.exists():
                continue
            for path in sorted(directory.glob("*.json")):
                path.unlink()
                repaired.removed_files.append(f"{key}/{path.name}")
            try:
                directory.rmdir()
            except OSError:  # pragma: no cover - non-json residue
                pass
        for key, name in strays:
            path = self.root / key / f"{name}.json"
            if path.exists():
                path.unlink()
                repaired.removed_files.append(f"{key}/{name}.json")
        return repaired

    # -- cross-store operations --------------------------------------------
    def _land(
        self, key: str, entry: Mapping, fetch: Callable[[str], bytes]
    ) -> dict:
        """The one gate every copied-in artifact passes; returns its entry.

        Validates the key and document names, then requires each
        document's bytes (``fetch(name)``) to match the entry's sha256
        and parse as JSON.  Only then are the exact bytes written and
        unlisted files pruned, so a refused key leaves nothing behind.
        As in :meth:`put`, the artifact directory is fsynced once,
        after every rename and prune.  The caller records the returned
        entry in the manifest.
        """
        validate_key(key)
        names, digests = entry_documents(key, entry)
        files: dict[str, bytes] = {}
        for name in names:
            data = fetch(name)
            recorded = digests[name]
            actual = hashlib.sha256(data).hexdigest()
            if actual != recorded:
                raise StoreCorruptionError(
                    f"artifact {key!r} document {name!r} digest mismatch: "
                    f"recorded {recorded[:12]}… got {actual[:12]}…"
                )
            try:
                json.loads(data)
            except ValueError as exc:
                raise StoreCorruptionError(
                    f"artifact {key!r} document {name!r} is not valid "
                    f"JSON ({exc})"
                ) from exc
            files[name] = data
        directory = self.root / key
        directory.mkdir(exist_ok=True)
        for name, data in files.items():
            _replace_file(directory / f"{name}.json", data)
        _prune_stale(directory, files)
        _fsync_directory(directory)
        return dict(entry)

    def adopt(
        self, key: str, files: Mapping[str, bytes], entry: Mapping
    ) -> Path:
        """Land externally-fetched documents with :meth:`put` discipline.

        The integrity gate for transported artifacts: ``files`` holds
        the bytes of every document ``entry`` lists, and each must
        pass :meth:`_land`'s checks, or *nothing* lands — no corrupt
        document can ever acquire a manifest entry.  Write
        ordering matches :meth:`put`: all documents atomically on disk
        first, then the manifest entry under the lock.  A key that is
        already manifested keeps its existing entry (content addressing
        makes racing adopters byte-identical).
        """
        landed = self._land(key, entry, files.__getitem__)
        with self._manifest_lock():
            manifest = self._read_manifest()
            manifest.setdefault(key, landed)
            self._write_manifest(manifest)
        return self.root / key

    def merge_from(
        self,
        others: "ArtifactStore" | Iterable["ArtifactStore"],
        keys: Iterable[str] | None = None,
    ) -> list[str]:
        """Adopt artifacts of ``others`` this store lacks.

        Shard stores merge deterministically: sources are processed in
        the order given, keys within each source in sorted order, and a
        key already present locally is left untouched (cells are pure
        functions of their content-hashed config, so duplicate keys
        hold identical content by construction).  ``keys`` restricts
        adoption to a wanted set, so a reused shard directory cannot
        leak a previous campaign's artifacts into this one.  Keys land
        through :meth:`adopt`'s gate, so the exact bytes are copied
        (preserving :meth:`content_hash` equality) and a corrupt shard
        fails the merge loudly, naming the key and the source store.
        All adopted keys share one manifest update, not one per key.
        Returns the newly adopted keys in adoption order.
        """
        if isinstance(others, ArtifactStore):
            others = [others]
        wanted = None if keys is None else set(keys)
        staged: dict[str, dict] = {}
        present = set(self._read_manifest())
        for other in others:
            other_manifest = other._read_manifest()
            for key in sorted(other_manifest):
                if key in present or key in staged:
                    continue
                if wanted is not None and key not in wanted:
                    continue
                source = other.root / key
                try:
                    staged[key] = self._land(
                        key,
                        other_manifest[key],
                        lambda name: (source / f"{name}.json").read_bytes(),
                    )
                except (StoreCorruptionError, ValueError,
                        FileNotFoundError) as exc:
                    raise StoreCorruptionError(
                        f"artifact {key!r} in {other.root} cannot be "
                        f"merged: {exc}; repair that shard store before "
                        "merging"
                    ) from exc
        if staged:
            with self._manifest_lock():
                manifest = self._read_manifest()
                for key, entry in staged.items():
                    manifest.setdefault(key, entry)
                self._write_manifest(manifest)
        return list(staged)

    def content_hash(self) -> str:
        """Order-independent digest of every stored document's bytes.

        Two stores that hold the same artifacts — regardless of the
        executor, worker count, or shard partitioning that produced
        them — report the same hash, which is how the executor
        equivalence suite (and a cautious operator) verifies a merge.
        One manifest snapshot names every key's documents, so the cost
        is linear in the store's size.
        """
        manifest = self._read_manifest()
        digest = hashlib.sha256()
        for key in sorted(manifest):
            validate_key(key)
            for name in entry_documents(key, manifest[key])[0]:
                digest.update(f"{key}/{name}\n".encode())
                digest.update(self._read_document_bytes(key, name))
        return digest.hexdigest()
