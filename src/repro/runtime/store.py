"""Content-addressed artifact store with atomic, durable writes.

One :class:`ArtifactStore` is the persistence substrate for every
campaign-shaped workload in the library: scenario and serving
sweeps, Table 3 trace repositories, shard workers on other machines,
and the bench ledger's provenance records all write the same layout::

    <root>/
      manifest.json            index: key -> metadata (+ document list)
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

    ``kind`` is one of ``missing-dir`` (manifested artifact has no
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
    reclaim the space but never counted as corruption.  ``undigested``
    keys parse fine but predate recorded sha256 digests, so their bytes
    are unauditable until :meth:`ArtifactStore.record_digests` runs —
    reported (not a problem) so the gap is visible instead of silent.
    """

    root: Path
    checked: int
    problems: list[StoreVerifyProblem] = field(default_factory=list)
    orphans: list[str] = field(default_factory=list)
    undigested: list[str] = field(default_factory=list)

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


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` durably: temp file + fsync + rename.

    The temp file lives in the destination directory (``os.replace``
    must not cross filesystems) with a process-unique name, so
    concurrent writers cannot trample each other's staging files and an
    interrupted write leaves the destination untouched.  The directory
    is fsynced after the rename, so the rename itself is durable.
    """
    path = Path(path)
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
    _fsync_directory(path.parent)


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


def _canonical_json(payload) -> str:
    """The one JSON rendering the store ever writes.

    Sorted keys and a fixed separator/indent policy make document bytes
    a pure function of their content, which is what lets
    :meth:`ArtifactStore.content_hash` compare stores across machines.
    """
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


class ArtifactStore:
    """Directory-backed store of named JSON documents per artifact key."""

    #: Test-only seam for the chaos harness: when set (by
    #: :mod:`repro.runtime.chaos`), called as ``hook(key)`` after an
    #: artifact's documents are on disk but *before* its manifest entry
    #: is written — the exact instant a SIGKILL must leave nothing worse
    #: than an orphaned directory.  ``None`` in production.
    _chaos_put_hook: "Callable[[str], None] | None" = None

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
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
        """
        validate_key(key)
        if not documents:
            raise ValueError(f"artifact {key!r} needs at least one document")
        for name in documents:
            validate_key(name, kind="document name")
        if not overwrite and key in self:
            raise ValueError(f"artifact {key!r} already stored")
        directory = self.root / key
        directory.mkdir(exist_ok=True)
        digests: dict[str, str] = {}
        for name, payload in documents.items():
            text = _canonical_json(payload)
            digests[name] = hashlib.sha256(text.encode()).hexdigest()
            atomic_write_text(directory / f"{name}.json", text)
        # Drop documents a previous version of the key wrote but this
        # one does not: the directory must mirror the manifest entry,
        # or the legacy glob fallback would resurrect stale files.
        # (Concurrent writers of the same key write the identical
        # content-addressed set, so this never removes a peer's work.)
        for stale in directory.glob("*.json"):
            if stale.stem not in documents:
                stale.unlink()
        if type(self)._chaos_put_hook is not None:
            type(self)._chaos_put_hook(key)
        entry = dict(meta or {})
        entry["documents"] = sorted(documents)
        entry[DIGESTS_KEY] = digests
        with self._manifest_lock():
            manifest = self._read_manifest()
            if not overwrite and key in manifest:
                # A concurrent writer won the race after our unlocked
                # probe; its documents are identical (content
                # addressing), so the refusal mirrors the serial case.
                raise ValueError(f"artifact {key!r} already stored")
            manifest[key] = entry
            self._write_manifest(manifest)
        return directory

    def _entry_document_names(self, key: str, entry: Mapping) -> list[str]:
        names = entry.get("documents")
        if names is None:
            # Pre-runtime manifests (seed-era TraceRepository) did not
            # record a document list; fall back to the files on disk.
            names = sorted(p.stem for p in (self.root / key).glob("*.json"))
        return list(names)

    def document_names(self, key: str) -> list[str]:
        """Names of the documents stored under ``key``."""
        return self._entry_document_names(key, self.meta(key))

    def _read_document_file(self, key: str, name: str) -> dict:
        """Read one document file, assuming the key is manifested."""
        path = self.root / key / f"{name}.json"
        if not path.exists():
            raise StoreCorruptionError(
                f"artifact {key!r} is in the manifest but its document "
                f"{path} is missing; the store is corrupt — delete the "
                "manifest entry or restore the files"
            )
        return json.loads(path.read_text())

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
            for name in self._entry_document_names(key, entry)
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
        artifact directory exists, that every listed document file is
        present and parses as JSON, and — for entries written since
        digests were recorded — that the file bytes hash to the sha256
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
            entry = manifest[key]
            names = self._entry_document_names(key, entry)
            directory = self.root / key
            if not directory.is_dir():
                report.problems.append(
                    StoreVerifyProblem(key, "*", "missing-dir")
                )
                continue
            digests = entry.get(DIGESTS_KEY)
            digests = digests if isinstance(digests, Mapping) else {}
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
                recorded = digests.get(name)
                if recorded is None:
                    # Pre-digest entry: the file parses but its bytes
                    # are unauditable.  Not corruption — but not silent
                    # either; `repro store digest` closes the gap.
                    if key not in report.undigested:
                        report.undigested.append(key)
                else:
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
            # Entries predating the recorded document list use the
            # files on disk as their truth, so nothing can be a stray.
            if entry.get("documents") is not None:
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

        Keys with missing, truncated, or digest-mismatched documents
        lose their manifest entry first (the :meth:`delete` ordering,
        so a crash mid-repair cannot leave an entry pointing at deleted
        files) and their document files after.  Stray files — documents
        a healthy entry does not list — are deleted without touching
        the entry.  Benign orphan directories are never touched: they
        are a killed writer's residue, not corruption, and the next
        ``put`` adopts them.
        """
        if report is None:
            report = self.verify()
        drop_kinds = {"missing-dir", "missing-file", "unreadable",
                      "digest-mismatch"}
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

    def record_digests(self, keys: Iterable[str] | None = None) -> list[str]:
        """Backfill sha256 digests for entries that predate them.

        Pre-PR7 manifests recorded no per-document digests, leaving
        those entries unauditable (``verify`` reports them as
        ``undigested``).  This computes the sha256 of each such
        document's bytes on disk and records it in the manifest entry
        — after first checking the bytes still parse as JSON, so a
        torn write is refused rather than blessed as truth.  Entries
        that already carry digests are left byte-untouched.  Returns
        the keys whose entries were updated, sorted.
        """
        updated: list[str] = []
        with self._manifest_lock():
            manifest = self._read_manifest()
            if keys is None:
                wanted = sorted(manifest)
            else:
                wanted = sorted(set(keys))
                missing = [key for key in wanted if key not in manifest]
                if missing:
                    raise KeyError(f"no stored artifact {missing[0]!r}")
            for key in wanted:
                entry = dict(manifest[key])
                names = self._entry_document_names(key, entry)
                digests = entry.get(DIGESTS_KEY)
                digests = (
                    dict(digests) if isinstance(digests, Mapping) else {}
                )
                changed = entry.get("documents") is None and bool(names)
                for name in names:
                    if name in digests:
                        continue
                    path = self.root / key / f"{name}.json"
                    if not path.exists():
                        raise StoreCorruptionError(
                            f"artifact {key!r} lists document {name!r} but "
                            f"{path} is missing; run verify/repair before "
                            "recording digests"
                        )
                    data = path.read_bytes()
                    try:
                        json.loads(data)
                    except ValueError as exc:
                        raise StoreCorruptionError(
                            f"artifact {key!r} document {name!r} is not "
                            f"valid JSON ({exc}); refusing to record a "
                            "digest of corrupt bytes"
                        ) from exc
                    digests[name] = hashlib.sha256(data).hexdigest()
                    changed = True
                if changed:
                    entry["documents"] = sorted(names)
                    entry[DIGESTS_KEY] = digests
                    manifest[key] = entry
                    updated.append(key)
            if updated:
                self._write_manifest(manifest)
        return updated

    # -- cross-store operations --------------------------------------------
    def adopt(
        self, key: str, files: Mapping[str, bytes], entry: Mapping
    ) -> Path:
        """Land externally-fetched documents with :meth:`put` discipline.

        The integrity gate for transported artifacts: every byte string
        in ``files`` must hash to the sha256 its manifest ``entry``
        records (and parse as JSON), or *nothing* lands — no corrupt
        document can ever acquire a manifest entry.  Write ordering
        matches :meth:`put`: all documents atomically on disk first,
        then the manifest entry under the lock.  A key that is already
        manifested keeps its existing entry (content addressing makes
        racing adopters byte-identical).
        """
        validate_key(key)
        if not files:
            raise ValueError(f"artifact {key!r} needs at least one document")
        for name in files:
            validate_key(name, kind="document name")
        entry = dict(entry)
        names = sorted(files)
        listed = entry.get("documents")
        if listed is not None and sorted(listed) != names:
            raise StoreCorruptionError(
                f"artifact {key!r} entry lists documents "
                f"{sorted(listed)} but {names} were supplied"
            )
        entry["documents"] = names
        digests = entry.get(DIGESTS_KEY)
        if not isinstance(digests, Mapping):
            raise StoreCorruptionError(
                f"artifact {key!r} cannot be adopted without recorded "
                "sha256 digests; compute them before landing"
            )
        for name in names:
            data = files[name]
            recorded = digests.get(name)
            if recorded is None:
                raise StoreCorruptionError(
                    f"artifact {key!r} document {name!r} has no recorded "
                    "digest; refusing to land unverifiable bytes"
                )
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
        directory = self.root / key
        directory.mkdir(exist_ok=True)
        for name in names:
            atomic_write_bytes(directory / f"{name}.json", files[name])
        for stale in directory.glob("*.json"):
            if stale.stem not in files:
                stale.unlink()
        with self._manifest_lock():
            manifest = self._read_manifest()
            manifest.setdefault(key, entry)
            self._write_manifest(manifest)
        return directory

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
        leak a previous campaign's artifacts into this one.  Document
        files are copied byte-for-byte (preserving
        :meth:`content_hash` equality), each source document is
        re-hashed against the digest its entry recorded at ``put`` time
        — a corrupt shard store fails the merge loudly with the
        offending key instead of poisoning the merged store — and each
        source contributes one manifest update, not one per key.
        Returns the newly adopted keys in adoption order.
        """
        if isinstance(others, ArtifactStore):
            others = [others]
        wanted = None if keys is None else set(keys)
        adopted: list[str] = []
        staged: dict[str, dict] = {}
        present = set(self._read_manifest())
        for other in others:
            other_manifest = other._read_manifest()
            for key in sorted(other_manifest):
                if key in present or key in staged:
                    continue
                if wanted is not None and key not in wanted:
                    continue
                entry = dict(other_manifest[key])
                names = entry.get("documents")
                if names is None:
                    names = sorted(
                        p.stem for p in (other.root / key).glob("*.json")
                    )
                    entry["documents"] = names
                digests = entry.get(DIGESTS_KEY)
                digests = digests if isinstance(digests, Mapping) else {}
                directory = self.root / key
                directory.mkdir(exist_ok=True)
                for name in names:
                    source = other.root / key / f"{name}.json"
                    if not source.exists():
                        raise StoreCorruptionError(
                            f"artifact {key!r} in {other.root} lists "
                            f"document {name!r} but {source} is missing; "
                            "re-run that shard or delete the entry"
                        )
                    data = source.read_bytes()
                    recorded = digests.get(name)
                    if recorded is not None:
                        actual = hashlib.sha256(data).hexdigest()
                        if actual != recorded:
                            raise StoreCorruptionError(
                                f"artifact {key!r} document {name!r} in "
                                f"{other.root} is corrupt: recorded sha256 "
                                f"{recorded[:12]}… but bytes hash to "
                                f"{actual[:12]}…; repair that shard store "
                                "before merging"
                            )
                    atomic_write_text(
                        directory / f"{name}.json", data.decode()
                    )
                staged[key] = entry
                adopted.append(key)
        if staged:
            with self._manifest_lock():
                manifest = self._read_manifest()
                for key, entry in staged.items():
                    manifest.setdefault(key, entry)
                self._write_manifest(manifest)
        return adopted

    def content_hash(self) -> str:
        """Order-independent digest of every stored document's bytes.

        Two stores that hold the same artifacts — regardless of the
        executor, worker count, or shard partitioning that produced
        them — report the same hash, which is how the executor
        equivalence suite (and a cautious operator) verifies a merge.
        """
        digest = hashlib.sha256()
        for key in self.keys():
            for name in self.document_names(key):
                path = self.root / key / f"{name}.json"
                digest.update(f"{key}/{name}\n".encode())
                digest.update(path.read_bytes())
        return digest.hexdigest()
