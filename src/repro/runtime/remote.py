"""Integrity-verified sync of :class:`ArtifactStore` contents across machines.

PR 7 made campaigns survive worker churn on one box; this module
crosses the machine boundary.  The pieces:

* :class:`Transport` — the minimal byte-moving surface (``read_bytes``
  / ``write_bytes`` with per-operation timeouts).  Pluggable: an
  S3/ssh backend only has to move bytes, every integrity and
  crash-safety decision lives above it.  :class:`LocalDirTransport`
  is the reference implementation, modeling a mounted or rsync-style
  remote directory; :class:`FaultyTransport` wraps any transport with
  seeded faults (truncated upload, bit-flip in transit, dropped
  transfer at document N, stalled transport) for the chaos harness.
* :class:`RetryPolicy` — the PR 7 coordinator's backoff shape
  (exponential with a cap, deterministic sha256 jitter) factored out
  so transport retries and worker relaunches draw the same schedule.
* :class:`RemoteStore` — ``push`` / ``pull`` / ``sync`` of one local
  :class:`ArtifactStore` against one remote store root.  Transfer is
  document-level delta keyed on the manifest's recorded sha256
  digests; every transferred document is re-hashed (pull verifies
  against the remote entry's digest before landing through
  :meth:`ArtifactStore.adopt`; push reads its own write back and
  re-uploads on mismatch), so no transport corruption can ever reach
  a manifest.  Failures degrade gracefully: both stores stay valid,
  and the :class:`SyncReport` names exactly which keys are missing.

The remote layout **is** the :class:`ArtifactStore` layout
(``manifest.json`` + ``<key>/<name>.json``) — a pushed remote is a
valid store that remote workers can resume from directly.  Like the
local store, cross-machine coordination goes through per-shard remote
roots and an explicit merge: one writer per remote root at a time,
never a shared remote manifest.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping

from repro.obs.logging import StructuredLogger
from repro.obs.metrics import MetricsRegistry
from repro.runtime.store import (
    DIGESTS_KEY,
    MANIFEST_NAME,
    ArtifactStore,
    StoreCorruptionError,
    _canonical_json,
    atomic_write_bytes,
    atomic_write_text,
)

__all__ = [
    "SYNC_STATE_NAME",
    "TransportError",
    "TransportTimeoutError",
    "TransportNotFoundError",
    "Transport",
    "LocalDirTransport",
    "FaultyTransport",
    "RetryPolicy",
    "SyncReport",
    "RemoteStore",
    "open_transport",
    "read_sync_state",
]

#: Sidecar file (in the local store root, next to ``manifest.json``)
#: recording the outcome of the last push/pull/sync per direction.
#: ``repro campaign status`` reads it for per-shard sync lag; it is a
#: plain file, not an artifact, so ``content_hash`` and ``verify``
#: ignore it.
SYNC_STATE_NAME = ".sync.json"

SYNC_STATE_SCHEMA = 1


class TransportError(RuntimeError):
    """A transfer failed in a way worth retrying (drop, partial I/O)."""


class TransportTimeoutError(TransportError):
    """An operation exceeded its per-operation timeout."""


class TransportNotFoundError(TransportError):
    """The remote path does not exist (fresh remote, or a dropped file)."""


class Transport:
    """Minimal byte-moving surface between a local and a remote root.

    Implementations move opaque bytes addressed by ``/``-separated
    relative paths and honor a best-effort per-operation timeout.
    They make exactly one durability promise: a ``write_bytes`` that
    returns has landed atomically (temp-then-rename on the receiving
    side), so a reader never observes a torn file — the same
    discipline as :meth:`ArtifactStore.put`.  Everything else
    (digests, retries, delta, landing order) lives in
    :class:`RemoteStore`.
    """

    def read_bytes(self, relpath: str, timeout_s: float | None = None) -> bytes:
        raise NotImplementedError

    def write_bytes(
        self, relpath: str, data: bytes, timeout_s: float | None = None
    ) -> None:
        raise NotImplementedError


class LocalDirTransport(Transport):
    """Reference transport: a directory standing in for the remote.

    Models a mounted (NFS, sshfs) or rsync-target remote — the
    operational shape the ROADMAP's fleet item assumes — while staying
    entirely local so tests and the chaos harness can exercise every
    transfer path without a network.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _resolve(self, relpath: str) -> Path:
        parts = relpath.split("/")
        if not parts or any(
            part in ("", ".", "..") or os.sep in part or "\x00" in part
            for part in parts
        ):
            raise ValueError(f"unsafe transport path {relpath!r}")
        return self.root.joinpath(*parts)

    def read_bytes(self, relpath: str, timeout_s: float | None = None) -> bytes:
        path = self._resolve(relpath)
        try:
            return path.read_bytes()
        except FileNotFoundError:
            raise TransportNotFoundError(
                f"remote has no {relpath!r} under {self.root}"
            ) from None

    def write_bytes(
        self, relpath: str, data: bytes, timeout_s: float | None = None
    ) -> None:
        path = self._resolve(relpath)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_bytes(path, data)


class FaultyTransport(Transport):
    """Chaos wrapper injecting transport faults into any inner transport.

    Four faults, each firing a bounded number of times:

    * ``truncate_upload`` — a write lands only the first half of its
      bytes (a partial transfer the remote accepted); push's
      read-back verification must catch it.
    * ``bit_flip`` — a read returns the payload with one bit flipped
      (corruption in transit); pull's digest check must catch it.
    * ``drop_at_document`` — the Nth document transfer (1-based,
      reads and writes counted together, manifest traffic excluded)
      raises :class:`TransportError` mid-sync; retries must converge.
    * ``stall_s`` — an operation sleeps; when the stall meets or
      exceeds the caller's timeout it raises
      :class:`TransportTimeoutError` instead (a hung remote).

    ``claim(tag, times)`` arbitrates firing: the default is an
    in-process counter, and :meth:`repro.runtime.chaos.ChaosInjector.
    wrap_transport` supplies its ``O_EXCL`` marker-file claim so
    "exactly N times" holds across worker subprocesses.  The
    document counter for ``drop_at_document`` is per-instance
    (per-process); the claim still bounds total firings.
    """

    def __init__(
        self,
        inner: Transport,
        *,
        truncate_upload: int = 0,
        bit_flip: int = 0,
        drop_at_document: int | None = None,
        drop_times: int = 1,
        stall_s: float = 0.0,
        stall_times: int = 1,
        claim: Callable[[str, int], bool] | None = None,
    ) -> None:
        self.inner = inner
        self.truncate_upload = int(truncate_upload)
        self.bit_flip = int(bit_flip)
        self.drop_at_document = (
            None if drop_at_document is None else int(drop_at_document)
        )
        self.drop_times = int(drop_times)
        self.stall_s = float(stall_s)
        self.stall_times = int(stall_times)
        self._claim_fn = claim
        self._claimed: dict[str, int] = {}
        self._docs_seen = 0

    def _claim(self, tag: str, times: int) -> bool:
        if times <= 0:
            return False
        if self._claim_fn is not None:
            return self._claim_fn(f"transport-{tag}", times)
        used = self._claimed.get(tag, 0)
        if used >= times:
            return False
        self._claimed[tag] = used + 1
        return True

    @staticmethod
    def _is_document(relpath: str) -> bool:
        return "/" in relpath

    def _maybe_stall(self, timeout_s: float | None) -> None:
        if self.stall_s <= 0 or not self._claim("stall", self.stall_times):
            return
        if timeout_s is not None and self.stall_s >= timeout_s:
            raise TransportTimeoutError(
                f"transport stalled {self.stall_s}s "
                f"(timeout {timeout_s}s)"
            )
        time.sleep(self.stall_s)

    def _maybe_drop(self, relpath: str) -> None:
        if not self._is_document(relpath):
            return
        self._docs_seen += 1
        if (
            self.drop_at_document is not None
            and self._docs_seen == self.drop_at_document
            and self._claim("drop", self.drop_times)
        ):
            raise TransportError(
                f"transfer dropped at document #{self._docs_seen} "
                f"({relpath})"
            )

    def read_bytes(self, relpath: str, timeout_s: float | None = None) -> bytes:
        self._maybe_stall(timeout_s)
        self._maybe_drop(relpath)
        data = self.inner.read_bytes(relpath, timeout_s)
        if (
            self._is_document(relpath)
            and data
            and self._claim("bit-flip", self.bit_flip)
        ):
            corrupted = bytearray(data)
            corrupted[len(corrupted) // 2] ^= 0x01
            data = bytes(corrupted)
        return data

    def write_bytes(
        self, relpath: str, data: bytes, timeout_s: float | None = None
    ) -> None:
        self._maybe_stall(timeout_s)
        self._maybe_drop(relpath)
        if (
            self._is_document(relpath)
            and len(data) > 1
            and self._claim("truncate", self.truncate_upload)
        ):
            data = data[: len(data) // 2]
        self.inner.write_bytes(relpath, data, timeout_s)


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with a cap and deterministic sha256 jitter.

    The PR 7 coordinator's relaunch schedule, factored out: attempt
    ``n`` (1-based) sleeps ``min(cap_s, base_s * 2**(n-1))`` scaled by
    ``1 + jitter`` where the jitter fraction is a pure function of
    ``(seed, tag, attempt)``.  Same seed, same tag → the same delay
    sequence on every machine, which is what lets tests pin the exact
    schedule and chaos runs reproduce timing-dependent failures.
    """

    base_s: float = 0.25
    cap_s: float = 10.0
    seed: int = 0

    def jitter_frac(self, tag: object, attempt: int) -> float:
        """Deterministic jitter in [0, 1): same inputs, same schedule."""
        digest = hashlib.sha256(
            f"{self.seed}:{tag}:{attempt}".encode()
        ).digest()
        return int.from_bytes(digest[:4], "big") / 2**32

    def delay_s(self, tag: object, attempt: int) -> float:
        """The delay before retrying after failure number ``attempt``."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        delay = min(self.cap_s, self.base_s * 2 ** (attempt - 1))
        return delay * (1.0 + self.jitter_frac(tag, attempt))


@dataclass
class SyncReport:
    """Outcome of one ``push``/``pull``/``sync`` over a store pair.

    ``pushed``/``pulled`` are the keys whose documents moved;
    ``skipped`` already matched digest-for-digest (the delta no-op);
    ``failed`` maps each key that could **not** be transferred to the
    reason — both stores remain valid, those keys are simply still
    missing on the receiving side.  ``retries``/``refetches``/
    ``reuploads`` count recovery work: all zero on a healthy link.
    """

    direction: str
    pushed: list[str] = field(default_factory=list)
    pulled: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    failed: dict[str, str] = field(default_factory=dict)
    documents: int = 0
    bytes: int = 0
    retries: int = 0
    refetches: int = 0
    reuploads: int = 0

    @property
    def ok(self) -> bool:
        return not self.failed

    def summary_line(self) -> str:
        """One human line for CLI output."""
        parts = [
            f"{self.direction}:",
            f"pushed={len(self.pushed)}",
            f"pulled={len(self.pulled)}",
            f"skipped={len(self.skipped)}",
            f"failed={len(self.failed)}",
            f"documents={self.documents}",
        ]
        if self.retries or self.refetches or self.reuploads:
            parts.append(
                f"retries={self.retries} refetches={self.refetches} "
                f"reuploads={self.reuploads}"
            )
        return " ".join(parts)

    def to_payload(self) -> dict:
        return {
            "pushed": len(self.pushed),
            "pulled": len(self.pulled),
            "skipped": len(self.skipped),
            "failed": dict(self.failed),
            "documents": self.documents,
            "bytes": self.bytes,
            "retries": self.retries,
            "refetches": self.refetches,
            "reuploads": self.reuploads,
        }


class RemoteStore:
    """Sync engine between one local :class:`ArtifactStore` and a remote.

    Three verbs, all delta transfers keyed on manifest digests:

    * :meth:`push` — upload local artifacts the remote lacks.  Local
      bytes are verified against their recorded digests before upload
      (a corrupt local document fails its key loudly instead of
      spreading), every uploaded document is read back and re-hashed
      (re-uploaded on mismatch, bounded), and the remote manifest is
      written once, after all of a batch's documents landed — the
      :meth:`ArtifactStore.put` ordering, so a crashed push leaves at
      worst remote orphans.
    * :meth:`pull` — fetch remote artifacts the local store lacks.
      Every document is re-hashed against the remote entry's digest
      (re-fetched on mismatch, bounded) and landed through
      :meth:`ArtifactStore.adopt`, which re-verifies — zero corrupt
      documents can reach the local manifest.  An unreachable remote
      or an exhausted key degrades gracefully: the local store stays
      valid and the report names exactly what is missing.
    * :meth:`sync` — pull then push, converging both sides to the
      union.

    Transient :class:`TransportError`\\ s retry up to ``retries`` times
    per operation with the :class:`RetryPolicy` schedule.  Outcomes
    land in the ``.sync.json`` sidecar (for ``campaign status``) and,
    when a ``registry`` is given, in ``repro_transport_*`` metrics —
    the failure-named ones (``retries``/``refetches``/``reuploads``/
    ``timeouts``/``failed_keys``) stay zero on a healthy link.
    """

    def __init__(
        self,
        local: ArtifactStore,
        transport: Transport,
        *,
        retries: int = 3,
        backoff: RetryPolicy | None = None,
        timeout_s: float = 30.0,
        registry: MetricsRegistry | None = None,
        echo: Callable[[str], None] | None = None,
    ) -> None:
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.local = local
        self.transport = transport
        self.retries = retries
        self.backoff = backoff if backoff is not None else RetryPolicy()
        self.timeout_s = timeout_s
        self.registry = registry if registry is not None else MetricsRegistry()
        self.log = StructuredLogger(echo=echo, component="transport")
        self._sleep = time.sleep
        reg = self.registry
        self._documents_total = reg.counter(
            "repro_transport_documents_total",
            "Documents transferred, by direction",
        )
        self._bytes_total = reg.counter(
            "repro_transport_bytes_total",
            "Document bytes transferred, by direction",
        )
        self._retries_total = reg.counter(
            "repro_transport_retries_total",
            "Transport operations retried after an error",
        )
        self._timeouts_total = reg.counter(
            "repro_transport_timeouts_total",
            "Transport operations that hit their per-operation timeout",
        )
        self._refetches_total = reg.counter(
            "repro_transport_refetches_total",
            "Pulled documents re-fetched after a digest mismatch",
        )
        self._reuploads_total = reg.counter(
            "repro_transport_reuploads_total",
            "Pushed documents re-uploaded after read-back mismatch",
        )
        self._failed_keys_total = reg.counter(
            "repro_transport_failed_keys_total",
            "Keys a push/pull could not transfer, by direction",
        )

    # -- retry plumbing ----------------------------------------------------
    def _op(
        self,
        op: str,
        relpath: str,
        fn: Callable[[], object],
        report: SyncReport | None = None,
    ) -> object:
        """Run one transport operation with bounded backoff retries."""
        last: TransportError | None = None
        attempts = 1 + self.retries
        for attempt in range(1, attempts + 1):
            try:
                return fn()
            except TransportTimeoutError as exc:
                self._timeouts_total.inc()
                last = exc
            except TransportNotFoundError:
                # Absence is a state, not a transient fault: retrying
                # cannot conjure the file.  Callers decide what it means.
                raise
            except TransportError as exc:
                last = exc
            if attempt < attempts:
                delay = self.backoff.delay_s(f"{op}:{relpath}", attempt)
                self._retries_total.inc()
                if report is not None:
                    report.retries += 1
                self.log.log(
                    "transport-retry",
                    op=op,
                    path=relpath,
                    attempt=attempt,
                    delay_s=round(delay, 4),
                    error=str(last),
                )
                self._sleep(delay)
        raise last  # type: ignore[misc]

    def _read(self, relpath: str, report: SyncReport | None = None) -> bytes:
        return self._op(
            "read",
            relpath,
            lambda: self.transport.read_bytes(relpath, self.timeout_s),
            report,
        )

    def _write(
        self, relpath: str, data: bytes, report: SyncReport | None = None
    ) -> None:
        self._op(
            "write",
            relpath,
            lambda: self.transport.write_bytes(relpath, data, self.timeout_s),
            report,
        )

    # -- manifests ---------------------------------------------------------
    def _read_remote_manifest(self, report: SyncReport | None = None) -> dict:
        try:
            raw = self._read(MANIFEST_NAME, report)
        except TransportNotFoundError:
            return {}
        manifest = json.loads(raw)
        if not isinstance(manifest, dict):
            raise TransportError(
                f"remote {MANIFEST_NAME} is not a JSON object"
            )
        return manifest

    def _write_remote_manifest(
        self, manifest: dict, report: SyncReport | None = None
    ) -> None:
        self._write(MANIFEST_NAME, _canonical_json(manifest).encode(), report)

    @staticmethod
    def _entry_names(key: str, entry: Mapping, root: Path | None) -> list[str]:
        names = entry.get("documents")
        if names is None and root is not None:
            names = sorted(p.stem for p in (root / key).glob("*.json"))
        return list(names or [])

    @staticmethod
    def _entry_digests(entry: Mapping) -> dict:
        digests = entry.get(DIGESTS_KEY)
        return dict(digests) if isinstance(digests, Mapping) else {}

    # -- push --------------------------------------------------------------
    def push(self, keys: Iterable[str] | None = None) -> SyncReport:
        """Upload local artifacts the remote lacks; returns the report."""
        report = SyncReport(direction="push")
        local_manifest = self.local.manifest()
        if keys is None:
            wanted = sorted(local_manifest)
        else:
            wanted = sorted(set(keys))
            missing = [k for k in wanted if k not in local_manifest]
            if missing:
                raise KeyError(f"no stored artifact {missing[0]!r}")
        try:
            remote_manifest = self._read_remote_manifest(report)
        except (TransportError, ValueError) as exc:
            for key in wanted:
                report.failed[key] = f"remote manifest unreadable: {exc}"
            return self._finish(report)
        staged: dict[str, dict] = {}
        for key in wanted:
            entry = dict(local_manifest[key])
            names = self._entry_names(key, entry, self.local.root)
            digests = self._entry_digests(entry)
            remote_entry = remote_manifest.get(key)
            if remote_entry is not None and self._entry_digests(
                remote_entry
            ) == digests and digests:
                report.skipped.append(key)
                continue
            try:
                pushed_entry = self._push_key(key, entry, names, digests, report)
            except (TransportError, StoreCorruptionError, OSError) as exc:
                report.failed[key] = str(exc)
                self.log.log("push-failed", key=key, error=str(exc))
                continue
            staged[key] = pushed_entry
            report.pushed.append(key)
        if staged:
            remote_manifest.update(staged)
            try:
                self._write_remote_manifest(remote_manifest, report)
            except TransportError as exc:
                # Documents landed but the index did not: the remote is
                # still a valid store (orphans only); every staged key
                # is reported missing so a retry re-stages the entries.
                for key in staged:
                    report.pushed.remove(key)
                    report.failed[key] = f"remote manifest write failed: {exc}"
        return self._finish(report)

    def _push_key(
        self,
        key: str,
        entry: dict,
        names: list[str],
        digests: dict,
        report: SyncReport,
    ) -> dict:
        """Upload one artifact's documents, verified; returns its entry."""
        if not names:
            raise StoreCorruptionError(f"artifact {key!r} lists no documents")
        payload_digests = dict(digests)
        blobs: dict[str, bytes] = {}
        for name in names:
            path = self.local.root / key / f"{name}.json"
            if not path.exists():
                raise StoreCorruptionError(
                    f"local artifact {key!r} is missing document {name!r}"
                )
            data = path.read_bytes()
            actual = hashlib.sha256(data).hexdigest()
            recorded = payload_digests.get(name)
            if recorded is None:
                # Pre-digest entry: refuse to push unparseable bytes,
                # then let the computed digest ride in the remote entry
                # so the remote side is fully auditable.
                json.loads(data)
                payload_digests[name] = actual
            elif recorded != actual:
                raise StoreCorruptionError(
                    f"local artifact {key!r} document {name!r} is corrupt "
                    f"(recorded {recorded[:12]}… got {actual[:12]}…); "
                    "run `repro store verify --repair` first"
                )
            blobs[name] = data
        for name in names:
            self._transfer_up(
                key, name, blobs[name], payload_digests[name], report
            )
            report.documents += 1
            report.bytes += len(blobs[name])
            self._documents_total.inc(direction="push")
            self._bytes_total.inc(len(blobs[name]), direction="push")
        entry["documents"] = sorted(names)
        entry[DIGESTS_KEY] = payload_digests
        return entry

    def _transfer_up(
        self, key: str, name: str, data: bytes, digest: str,
        report: SyncReport,
    ) -> None:
        """Write one document and read it back until the digest matches."""
        relpath = f"{key}/{name}.json"
        rounds = 1 + self.retries
        for round_no in range(1, rounds + 1):
            self._write(relpath, data, report)
            echoed = self._read(relpath, report)
            if hashlib.sha256(echoed).hexdigest() == digest:
                return
            if round_no < rounds:
                self._reuploads_total.inc()
                report.reuploads += 1
                self.log.log(
                    "reupload", key=key, document=name, round=round_no
                )
        raise TransportError(
            f"document {relpath} failed read-back verification "
            f"{rounds} time(s)"
        )

    # -- pull --------------------------------------------------------------
    def pull(self, keys: Iterable[str] | None = None) -> SyncReport:
        """Fetch remote artifacts the local store lacks; returns the report.

        Never raises for per-key transfer failures: the local store is
        left valid and ``report.failed`` names exactly which keys are
        still missing and why.
        """
        report = SyncReport(direction="pull")
        try:
            remote_manifest = self._read_remote_manifest(report)
        except (TransportError, ValueError) as exc:
            reason = f"remote manifest unreadable: {exc}"
            if keys is None:
                report.failed[MANIFEST_NAME] = reason
            else:
                for key in sorted(set(keys)):
                    report.failed[key] = reason
            return self._finish(report)
        if keys is None:
            wanted = sorted(remote_manifest)
        else:
            wanted = sorted(set(keys))
        present = set(self.local.manifest())
        for key in wanted:
            if key in present:
                report.skipped.append(key)
                continue
            remote_entry = remote_manifest.get(key)
            if remote_entry is None:
                report.failed[key] = "not in remote manifest"
                continue
            entry = dict(remote_entry)
            names = self._entry_names(key, entry, None)
            if not names:
                report.failed[key] = "remote entry lists no documents"
                continue
            digests = self._entry_digests(entry)
            try:
                files = {
                    name: self._transfer_down(
                        key, name, digests.get(name), report
                    )
                    for name in names
                }
            except (TransportError, StoreCorruptionError) as exc:
                report.failed[key] = str(exc)
                self.log.log("pull-failed", key=key, error=str(exc))
                continue
            for name, data in files.items():
                if name not in digests:
                    # Undigested remote entry: the bytes parsed (checked
                    # in _transfer_down); record the computed digest so
                    # adopt's gate — and every later audit — has truth.
                    digests[name] = hashlib.sha256(data).hexdigest()
            entry["documents"] = sorted(names)
            entry[DIGESTS_KEY] = digests
            try:
                self.local.adopt(key, files, entry)
            except StoreCorruptionError as exc:  # pragma: no cover - gate
                report.failed[key] = str(exc)
                continue
            report.pulled.append(key)
            for data in files.values():
                report.documents += 1
                report.bytes += len(data)
                self._documents_total.inc(direction="pull")
                self._bytes_total.inc(len(data), direction="pull")
        return self._finish(report)

    def _transfer_down(
        self, key: str, name: str, digest: str | None, report: SyncReport
    ) -> bytes:
        """Fetch one document, re-fetching until its digest matches."""
        relpath = f"{key}/{name}.json"
        rounds = 1 + self.retries
        last = ""
        for round_no in range(1, rounds + 1):
            data = self._read(relpath, report)
            if digest is None:
                # No recorded digest to check against: require valid
                # JSON (catches truncation, not bit flips — which is
                # exactly why `repro store digest` exists).
                try:
                    json.loads(data)
                except ValueError as exc:
                    last = f"undigested document unparseable: {exc}"
                else:
                    return data
            else:
                actual = hashlib.sha256(data).hexdigest()
                if actual == digest:
                    return data
                last = (
                    f"digest mismatch (recorded {digest[:12]}… got "
                    f"{actual[:12]}…)"
                )
            if round_no < rounds:
                self._refetches_total.inc()
                report.refetches += 1
                self.log.log(
                    "refetch", key=key, document=name, round=round_no,
                    reason=last,
                )
        raise TransportError(
            f"document {relpath} failed verification {rounds} time(s): {last}"
        )

    # -- sync --------------------------------------------------------------
    def sync(self, keys: Iterable[str] | None = None) -> SyncReport:
        """Converge local and remote to the union: pull, then push."""
        pulled = self.pull(keys)
        if keys is None:
            push_keys = None
        else:
            # A key that failed to pull is still absent locally; push
            # only what this side actually holds.
            local = set(self.local.manifest())
            push_keys = sorted(set(keys) & local)
        pushed = self.push(push_keys)
        report = SyncReport(
            direction="sync",
            pushed=pushed.pushed,
            pulled=pulled.pulled,
            skipped=sorted(set(pulled.skipped) & set(pushed.skipped)),
            failed={**pulled.failed, **pushed.failed},
            documents=pulled.documents + pushed.documents,
            bytes=pulled.bytes + pushed.bytes,
            retries=pulled.retries + pushed.retries,
            refetches=pulled.refetches,
            reuploads=pushed.reuploads,
        )
        self._write_sync_state(report)
        return report

    # -- bookkeeping -------------------------------------------------------
    def _finish(self, report: SyncReport) -> SyncReport:
        for _ in report.failed:
            self._failed_keys_total.inc(direction=report.direction)
        self._write_sync_state(report)
        self.log.log(
            f"{report.direction}-done",
            pushed=len(report.pushed),
            pulled=len(report.pulled),
            skipped=len(report.skipped),
            failed=len(report.failed),
            documents=report.documents,
        )
        return report

    def _write_sync_state(self, report: SyncReport) -> None:
        path = self.local.root / SYNC_STATE_NAME
        try:
            state = json.loads(path.read_text())
            if not isinstance(state, dict):
                state = {}
        except (OSError, ValueError):
            state = {}
        state["schema"] = SYNC_STATE_SCHEMA
        state[report.direction] = report.to_payload()
        atomic_write_text(path, _canonical_json(state))


def read_sync_state(store_root: str | Path) -> dict | None:
    """The last recorded sync outcome for a store, or ``None``.

    Tolerant by design (missing file, torn write, wrong schema all
    read as ``None``): status rollups must never fail because a sync
    has not happened yet.
    """
    path = Path(store_root) / SYNC_STATE_NAME
    try:
        state = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(state, dict) or state.get("schema") != SYNC_STATE_SCHEMA:
        return None
    return state


def open_transport(root: str | Path) -> Transport:
    """A :class:`LocalDirTransport` on ``root``, chaos-wrapped if armed.

    The one factory every fabric component (worker push hook,
    coordinator pull, CLI verbs) goes through, so the chaos harness's
    ``REPRO_CHAOS`` env var reaches transports in worker subprocesses
    exactly like it reaches cell execution.
    """
    transport: Transport = LocalDirTransport(root)
    from repro.runtime import chaos

    injector = chaos.active_injector()
    if injector is not None:
        wrapped = injector.wrap_transport(transport)
        if wrapped is not None:
            return wrapped
    return transport
