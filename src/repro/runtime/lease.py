"""Shard leases: the file a worker holds while it owns a shard.

Each worker running under ``repro campaign run`` holds a lease file
next to its manifest (``shard-0.json`` ⇄ ``shard-0.lease.json``),
atomically acquired under an ``flock`` and renewed by a
:class:`LeaseHeartbeat` thread every few seconds.  A lease that stops
being renewed is the supervisor's death signal; a renewal that finds a
foreign token tells the worker it was fenced off and must stop.

Kept apart from :mod:`repro.runtime.coordinator`, which re-exports
every name here, so a ``repro worker --lease`` process loads neither
the supervisor nor the remote transport.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

from repro.runtime.store import atomic_write_text

__all__ = [
    "LEASE_SCHEMA",
    "LeaseLostError",
    "lease_path_for",
    "read_lease",
    "lease_expired",
    "acquire_lease",
    "renew_lease",
    "release_lease",
    "LeaseHeartbeat",
]

LEASE_SCHEMA = 1

try:  # pragma: no cover - platform probe
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None


class LeaseLostError(RuntimeError):
    """A lease operation found the lease held (or taken) by someone else.

    On acquire: another worker holds an unexpired lease.  On renew: the
    lease file no longer carries our token — the coordinator declared
    us dead and handed the shard to a successor.  Either way the right
    response is to stop touching the shard (worker exit code 3).
    """


def lease_path_for(manifest_path: str | Path) -> Path:
    """The lease file paired with a shard manifest.

    ``shards/shard-0.json`` pairs with ``shards/shard-0.lease.json`` —
    next to the manifest, where ``repro campaign status`` can read
    worker liveness without any coordinator state.
    """
    path = Path(manifest_path)
    stem = path.name
    if stem.endswith(".json"):
        stem = stem[: -len(".json")]
    return path.with_name(stem + ".lease.json")


@contextmanager
def _lease_lock(lease_path: Path):
    """``flock`` serializing read-modify-writes of one lease file."""
    lease_path.parent.mkdir(parents=True, exist_ok=True)
    lock_path = lease_path.with_name(lease_path.name + ".lock")
    if fcntl is None:  # pragma: no cover - non-POSIX platform
        yield
        return
    fd = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        fcntl.flock(fd, fcntl.LOCK_UN)
        os.close(fd)


def read_lease(path: str | Path) -> dict | None:
    """The lease record, or ``None`` when no lease file exists."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except FileNotFoundError:
        return None
    except ValueError:
        # A torn lease (we crashed mid-rename on a filesystem without
        # atomic rename) reads as "no lease": safe, because the worst
        # case is an extra worker racing on a content-addressed store.
        return None
    if not isinstance(payload, dict):
        return None
    return payload


def lease_expired(
    lease: dict, now: float | None = None, skew_s: float = 0.0
) -> bool:
    """True when the lease's last renewal is older than its TTL.

    ``skew_s`` is a grace margin for readers on a *different* clock
    than the renewing worker — a slowly-synced shared filesystem or a
    fleet without tight NTP.  A lease is only declared expired once it
    is ``skew_s`` past its TTL, trading slower death detection for
    never fencing a live worker over clock disagreement.  The default
    ``0.0`` preserves same-machine behavior exactly.
    """
    if now is None:
        now = time.time()
    renewed = float(lease.get("renewed_unix_s", 0.0))
    ttl = float(lease.get("ttl_s", 0.0))
    return now > renewed + ttl + max(0.0, skew_s)


def acquire_lease(
    path: str | Path,
    worker_id: str,
    ttl_s: float,
    now: float | None = None,
) -> dict:
    """Atomically claim a shard lease, refusing live foreign leases.

    Returns the written lease record (its ``token`` authenticates every
    later renew/release).  An unexpired lease held by another worker
    raises :class:`LeaseLostError`; an *expired* one is taken over —
    that is exactly the coordinator's reassignment path.
    """
    path = Path(path)
    if now is None:
        now = time.time()
    if ttl_s <= 0:
        raise ValueError("lease ttl_s must be > 0")
    with _lease_lock(path):
        current = read_lease(path)
        if (
            current is not None
            and not lease_expired(current, now)
            and current.get("worker_id") != worker_id
        ):
            raise LeaseLostError(
                f"lease {path} is held by {current.get('worker_id')!r} "
                f"(renewed {now - float(current.get('renewed_unix_s', 0.0)):.1f}s "
                f"ago, ttl {current.get('ttl_s')}s)"
            )
        lease = {
            "schema": LEASE_SCHEMA,
            "worker_id": worker_id,
            "pid": os.getpid(),
            "token": os.urandom(8).hex(),
            "acquired_unix_s": now,
            "renewed_unix_s": now,
            "ttl_s": float(ttl_s),
        }
        atomic_write_text(path, json.dumps(lease, indent=2) + "\n")
    return lease


def renew_lease(
    path: str | Path, token: str, now: float | None = None
) -> dict:
    """Refresh a lease's heartbeat; :class:`LeaseLostError` if usurped.

    The token check is the fencing rule: a worker that was declared
    dead (its lease re-acquired by a successor) finds a foreign token
    and learns — at its next heartbeat — that it must stop.
    """
    path = Path(path)
    if now is None:
        now = time.time()
    with _lease_lock(path):
        current = read_lease(path)
        if current is None or current.get("token") != token:
            raise LeaseLostError(
                f"lease {path} no longer carries our token — the shard "
                "was reassigned"
            )
        current["renewed_unix_s"] = now
        atomic_write_text(path, json.dumps(current, indent=2) + "\n")
    return current


def release_lease(path: str | Path, token: str) -> None:
    """Drop a lease we hold; silently a no-op if already usurped."""
    path = Path(path)
    with _lease_lock(path):
        current = read_lease(path)
        if current is not None and current.get("token") == token:
            path.unlink(missing_ok=True)


class LeaseHeartbeat:
    """Daemon thread renewing a lease until stopped — or fenced off.

    ``lost`` flips to True (permanently) the moment a renewal fails,
    which the worker wires into ``run_manifest(should_stop=...)`` so a
    fenced-off worker abandons its shard at the next cell boundary.
    """

    def __init__(
        self,
        path: str | Path,
        token: str,
        interval_s: float,
        on_error: Callable[[Exception], None] | None = None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("heartbeat interval_s must be > 0")
        self.path = Path(path)
        self.token = token
        self.interval_s = interval_s
        self._on_error = on_error
        self._stop = threading.Event()
        self._lost = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name="lease-heartbeat", daemon=True
        )

    @property
    def lost(self) -> bool:
        return self._lost.is_set()

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=max(1.0, 2 * self.interval_s))

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                renew_lease(self.path, self.token)
            except (LeaseLostError, OSError) as exc:
                self._lost.set()
                if self._on_error is not None:
                    self._on_error(exc)
                return
