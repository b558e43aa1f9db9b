"""Fault-tolerant campaign coordination: leases, supervision, stealing.

:func:`run_manifest` made a single shard crash-*resumable*; this module
makes a whole campaign crash-*tolerant*.  ``repro campaign run`` drives
one supervisor process (:func:`run_campaign`) that launches a worker
subprocess per shard manifest and then treats every worker as
expendable:

* **Leases + heartbeats** — each worker holds a lease file next to its
  manifest (``shard-0.json`` ⇄ ``shard-0.lease.json``), atomically
  acquired under an ``flock`` and renewed by a heartbeat thread every
  few seconds.  A lease that stops being renewed is the coordinator's
  death signal — it needs no pipe, signal handler, or cooperation from
  the (possibly SIGKILLed) worker.  A worker whose own renewal fails
  (the coordinator declared it dead and re-leased the shard) aborts
  between cells rather than keep writing to a store it no longer owns.
* **Retries with backoff + quarantine** — a dead or failing worker is
  relaunched with exponential backoff and deterministic jitter; the
  *blamed* cell (the first unfinished one in manifest order — exact,
  because workers land cells in manifest order and rerun a failing
  batch one cell at a time) gets one retry charged.  A worker killed
  mid-batch died with every cell of the batch running, so that death
  charges no cell: it leaves the batch in the store's in-flight
  record, and the relaunch, finding it, runs one cell at a time, where
  a death is exact again.  A cell that exhausts ``max_retries`` is
  *quarantined*: revoked from the shard, recorded in the shard store's
  ``failures.json`` with its chained successors as ``blocked``
  casualties, and the campaign continues without it — one poison cell
  costs its chain, never the campaign.
* **Work stealing** — a worker whose shard is finished steals roughly
  half of the *pending whole chains* from the busiest live shard:
  the stolen keys are appended to the victim's revocation sidecar
  (the victim's worker skips them at its next cell boundary) and the
  thief executes them from a derived steal manifest into its own
  store.  Because cells are pure and content-keyed, even a race that
  computes a chain twice merges to byte-identical artifacts — stealing
  is an optimisation that cannot corrupt results.

Completion is judged against content, not process exit codes: the
campaign is done when every manifest cell key is present in the union
of the shard stores or quarantined/blocked, after which the stores are
merged (refusing partial results unless ``allow_partial``).  A rerun
on the same shard dir reloads its ``failures.json``, so an earlier
quarantine stays resolved and is reported again.  A campaign that can
make no progress — no worker running, none to launch or relaunch, no
chain to steal, cells still unresolved — raises, naming the cells and
the revocation files that hold them, instead of idling.  Combined
with :mod:`repro.runtime.chaos`, the invariant under test everywhere
is *convergence*: kill workers wherever you like and the merged store
hash equals the serial run's.

The supervisor narrates through ``component=coordinator`` structured
log lines and counts failure-path events (worker deaths, retries,
reassignments, steals, quarantines) in a
:class:`~repro.obs.metrics.MetricsRegistry`; a healthy campaign emits
none of them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from repro.obs.logging import StructuredLogger
from repro.obs.metrics import MetricsRegistry
from repro.runtime import chaos
from repro.runtime.cell import Cell
from repro.runtime.executors import cell_components
from repro.runtime.lease import (  # re-exported: the public lease API
    LEASE_SCHEMA,
    LeaseHeartbeat,
    LeaseLostError,
    _lease_lock,
    acquire_lease,
    lease_expired,
    lease_path_for,
    read_lease,
    release_lease,
    renew_lease,
)
from repro.runtime.remote import RemoteStore, RetryPolicy, open_transport
from repro.runtime.store import ArtifactStore, atomic_write_text
from repro.runtime.worker import (
    FAILURES_NAME,
    MANIFEST_SCHEMA,
    _chain_closure,
    merge_stores,
    read_failures,
    read_in_flight,
    read_revoked,
    read_shard_manifest,
    write_failures,
    write_revoked,
)

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
    "run_campaign",
]

# -- the supervisor --------------------------------------------------------


@dataclass
class _Slot:
    """One worker slot: a shard (or steal) assignment plus its process."""

    index: int
    manifest_path: Path
    store_root: Path
    cells: list[Cell]
    keys: list[str]
    lease_path: Path
    revoked_path: Path
    log_path: Path
    proc: "subprocess.Popen | None" = None
    log_fh: object = None
    worker_id: str = ""
    launches: int = 0
    deaths: int = 0
    steals: int = 0
    #: The worker found an in-flight record, so it runs one cell at a time.
    one_at_a_time: bool = False
    next_launch_unix_s: float = 0.0
    idle_logged: bool = field(default=False, repr=False)

    def assign(self, manifest_path: Path, cells: list[Cell]) -> None:
        self.manifest_path = manifest_path
        self.cells = cells
        self.keys = [cell.key for cell in cells]
        self.lease_path = lease_path_for(manifest_path)
        self.revoked_path = manifest_path.with_name(
            manifest_path.name[: -len(".json")] + ".revoked.json"
        )


def _stored_keys(store_root: Path) -> set[str]:
    """Keys a shard store holds, read without scaffolding the store."""
    path = store_root / "manifest.json"
    try:
        manifest = json.loads(path.read_text())
    except (FileNotFoundError, ValueError):
        return set()
    if not isinstance(manifest, dict):
        return set()
    return set(manifest)


def run_campaign(
    shard_dir: str | Path,
    prefix: str = "shard",
    stores: Sequence[str | Path] | None = None,
    store_root: str | Path | None = None,
    allow_partial: bool = False,
    max_retries: int = 2,
    lease_ttl_s: float = 15.0,
    heartbeat_s: float | None = None,
    poll_s: float = 0.2,
    workers_per_shard: int = 1,
    steal: bool = True,
    seed: int = 0,
    backoff_base_s: float = 0.25,
    backoff_cap_s: float = 10.0,
    max_wall_s: float | None = None,
    echo: Callable[[str], None] | None = print,
    registry: MetricsRegistry | None = None,
    python: str | None = None,
    remote_root: str | Path | None = None,
) -> dict:
    """Supervise a sharded campaign to completion despite worker deaths.

    Launches one ``python -m repro worker`` subprocess per shard
    manifest under ``shard_dir`` (each holding a heartbeat-renewed
    lease), watches leases and exit codes, relaunches dead workers with
    exponential backoff and deterministic jitter, charges each death to
    the first unfinished cell and quarantines cells that exhaust
    ``max_retries`` (chained successors become ``blocked``), and lets
    idle workers steal pending chains from the busiest live shard.

    Worker stdout/stderr streams append to ``<prefix>-<i>.worker.log``
    next to the manifests.  When every cell is stored, quarantined, or
    blocked, the shard stores are merged into ``store_root`` (if given)
    — skipped, with ``merged=None``, when failures exist and
    ``allow_partial`` is False.

    ``remote_root`` arms the sync hook: each worker pushes its shard
    store to ``<remote_root>/<prefix>-<i>-store`` as cells complete
    (through :class:`~repro.runtime.remote.RemoteStore`, so every
    transferred document is digest-verified), and before merging the
    coordinator pulls each remote shard store back into its local one
    — a digest-keyed delta that is a no-op when the link was healthy,
    and recovers anything a local store lost when it was not.  Pull
    failures degrade gracefully (the affected keys stay missing and
    are reported in ``summary["transport"]``); they never corrupt the
    merge.

    A ``failures.json`` left in ``shard_dir`` by an earlier run seeds
    the quarantined and blocked cells, so a rerun reports them again
    rather than waiting for cells whose revocations nothing lifts.  When
    no worker runs, none can launch or steal, and cells are still
    unresolved, raises :class:`RuntimeError` naming those cells and the
    ``*.revoked.json`` files that hold them.

    Returns a summary dict; ``summary["ok"]`` is True only for a
    campaign with zero quarantined/blocked cells.  Pass a
    ``registry`` to observe the failure-path counters
    (``repro_coordinator_worker_deaths_total`` and friends); a healthy
    campaign leaves all of them at zero and logs no failure-path
    events.
    """
    from repro.obs.status import find_shard_manifests

    shard_dir = Path(shard_dir)
    if python is None:
        python = sys.executable
    if heartbeat_s is None:
        heartbeat_s = max(0.05, lease_ttl_s / 3.0)
    if max_retries < 0:
        raise ValueError("max_retries must be >= 0")
    registry = registry if registry is not None else MetricsRegistry()
    log = StructuredLogger(echo=echo, component="coordinator")
    retry_policy = RetryPolicy(
        base_s=backoff_base_s, cap_s=backoff_cap_s, seed=seed
    )
    remote_root = Path(remote_root) if remote_root is not None else None
    deaths_total = registry.counter(
        "repro_coordinator_worker_deaths_total",
        "Workers declared dead (exit, signal, or expired lease)",
    )
    retries_total = registry.counter(
        "repro_coordinator_cell_retries_total",
        "Retries charged to blamed cells",
    )
    reassignments_total = registry.counter(
        "repro_coordinator_reassignments_total",
        "Shard reassignments to a replacement worker",
    )
    steals_total = registry.counter(
        "repro_coordinator_steals_total",
        "Pending-chain steals by idle workers",
    )
    poison_total = registry.counter(
        "repro_coordinator_poison_cells_total",
        "Cells quarantined after exhausting their retry budget",
    )

    found = find_shard_manifests(shard_dir, prefix)
    if stores is not None and len(stores) != len(found):
        raise ValueError(
            f"{len(found)} shard manifest(s) but {len(stores)} store "
            "path(s); pass one store per shard, in shard order"
        )
    slots: list[_Slot] = []
    manifest_meta: dict[str, object] = {}
    for position, (index, manifest_path) in enumerate(found):
        manifest = read_shard_manifest(manifest_path)
        if not manifest_meta:
            manifest_meta = {
                "encode": manifest["encode"],
                "decode": manifest.get("decode"),
                "n_shards": manifest.get("n_shards", len(found)),
            }
        cells = [Cell.from_entry(entry) for entry in manifest["cells"]]
        root = (
            Path(stores[position])
            if stores is not None
            else shard_dir / f"{prefix}-{index}-store"
        )
        slot = _Slot(
            index=index,
            manifest_path=manifest_path,
            store_root=root,
            cells=cells,
            keys=[cell.key for cell in cells],
            lease_path=lease_path_for(manifest_path),
            revoked_path=manifest_path.with_name(
                f"{prefix}-{index}.revoked.json"
            ),
            log_path=shard_dir / f"{prefix}-{index}.worker.log",
        )
        slots.append(slot)
    all_keys: set[str] = set()
    for slot in slots:
        all_keys |= set(slot.keys)

    attempts: dict[str, int] = {}
    # An earlier run's quarantines stay revoked, so only its report
    # can resolve them.
    earlier = read_failures(shard_dir / FAILURES_NAME) or {}
    quarantined: dict[str, dict] = {
        key: record
        for key, record in earlier.get("cells", {}).items()
        if key in all_keys
    }
    blocked: set[str] = set(earlier.get("blocked", ())) & all_keys
    store_failures: dict[Path, dict[str, dict]] = {}
    store_blocked: dict[Path, set[str]] = {}

    def launch(slot: _Slot) -> None:
        slot.launches += 1
        slot.one_at_a_time = read_in_flight(slot.store_root) is not None
        slot.worker_id = f"w{slot.index}-a{slot.launches}"
        cmd = [
            python,
            "-m",
            "repro",
            "worker",
            str(slot.manifest_path),
            "--store",
            str(slot.store_root),
            "--workers",
            str(workers_per_shard),
            "--lease",
            str(slot.lease_path),
            "--worker-id",
            slot.worker_id,
            "--lease-ttl",
            str(lease_ttl_s),
            "--heartbeat",
            str(heartbeat_s),
        ]
        if remote_root is not None:
            cmd += [
                "--remote",
                str(remote_root / f"{prefix}-{slot.index}-store"),
            ]
        env = dict(os.environ)
        env[chaos.CHAOS_WORKER_ENV] = slot.worker_id
        slot.log_fh = open(slot.log_path, "a")
        slot.proc = subprocess.Popen(
            cmd, stdout=slot.log_fh, stderr=subprocess.STDOUT, env=env
        )
        slot.idle_logged = False
        log.log(
            "worker_launch",
            shard=slot.index,
            worker=slot.worker_id,
            pid=slot.proc.pid,
            manifest=slot.manifest_path.name,
            attempt=slot.launches,
        )

    def reap(slot: _Slot) -> None:
        slot.proc = None
        if slot.log_fh is not None:
            slot.log_fh.close()
            slot.log_fh = None

    def first_unfinished(slot: _Slot) -> str | None:
        """The blamed cell: serial workers die on the first pending one."""
        stored = _stored_keys(slot.store_root)
        revoked = read_revoked(slot.revoked_path)
        for key in slot.keys:
            if key not in stored and key not in revoked:
                return key
        return None

    def quarantine(slot: _Slot, key: str, note: str) -> None:
        casualties = _chain_closure({key}, slot.cells) - {key}
        casualties -= _stored_keys(slot.store_root)
        write_revoked(
            slot.revoked_path,
            read_revoked(slot.revoked_path) | {key} | casualties,
        )
        quarantined[key] = {
            "shard": slot.index,
            "worker": slot.worker_id,
            "attempts": attempts.get(key, 0),
            "error": note,
        }
        blocked.update(casualties)
        per_store = store_failures.setdefault(slot.store_root, {})
        per_store[key] = quarantined[key]
        store_blocked.setdefault(slot.store_root, set()).update(casualties)
        slot.store_root.mkdir(parents=True, exist_ok=True)
        write_failures(
            slot.store_root / FAILURES_NAME,
            per_store,
            blocked=store_blocked[slot.store_root],
        )
        poison_total.inc(shard=str(slot.index))
        log.log(
            "cell_quarantined",
            shard=slot.index,
            cell=key,
            attempts=attempts.get(key, 0),
            blocked=len(casualties),
            error=note,
        )

    def break_lease(slot: _Slot) -> None:
        # The worker is reaped (or killed) — it can never renew again,
        # so its lease need not age out: breaking it immediately lets
        # the replacement start without waiting a TTL.
        with _lease_lock(slot.lease_path):
            lease = read_lease(slot.lease_path)
            if (
                lease is not None
                and lease.get("worker_id") == slot.worker_id
            ):
                slot.lease_path.unlink(missing_ok=True)

    def handle_death(slot: _Slot, reason: str, now: float) -> None:
        slot.deaths += 1
        deaths_total.inc(shard=str(slot.index))
        break_lease(slot)
        log.log(
            "worker_dead",
            shard=slot.index,
            worker=slot.worker_id,
            reason=reason,
            deaths=slot.deaths,
        )
        blame = first_unfinished(slot)
        if (
            blame is not None
            and not slot.one_at_a_time
            and read_in_flight(slot.store_root) is not None
        ):
            # Killed mid-batch: any cell of the batch may be the
            # culprit.  The relaunch runs them one at a time instead.
            log.log("cell_retry_deferred", shard=slot.index, cell=blame)
            blame = None
        if blame is not None:
            attempts[blame] = attempts.get(blame, 0) + 1
            if attempts[blame] > max_retries:
                quarantine(slot, blame, reason)
            else:
                retries_total.inc(shard=str(slot.index))
                log.log(
                    "cell_retry",
                    shard=slot.index,
                    cell=blame,
                    attempt=attempts[blame],
                    budget=max_retries,
                )
        reassignments_total.inc(shard=str(slot.index))
        slot.next_launch_unix_s = now + retry_policy.delay_s(
            slot.index, slot.deaths
        )

    def slot_work(slot: _Slot) -> list[str]:
        # The worker skips the successors of a revoked cell too.
        stored = _stored_keys(slot.store_root)
        revoked = _chain_closure(read_revoked(slot.revoked_path), slot.cells)
        return [
            key
            for key in slot.keys
            if key not in stored and key not in revoked
        ]

    def try_steal(thief: _Slot, now: float) -> bool:
        resolved = stored_union() | set(quarantined) | blocked
        best: tuple[int, _Slot, list[list[Cell]]] | None = None
        for victim in slots:
            if victim is thief or victim.proc is None:
                continue
            revoked = read_revoked(victim.revoked_path)
            pending = [
                component
                for component in cell_components(victim.cells)
                if all(
                    cell.key not in resolved and cell.key not in revoked
                    for cell in component
                )
            ]
            if len(pending) >= 2 and (
                best is None or len(pending) > best[0]
            ):
                best = (len(pending), victim, pending)
        if best is None:
            return False
        _, victim, pending = best
        stolen = pending[-(len(pending) // 2):]
        stolen_cells = [cell for component in stolen for cell in component]
        stolen_keys = [cell.key for cell in stolen_cells]
        write_revoked(
            victim.revoked_path,
            read_revoked(victim.revoked_path) | set(stolen_keys),
        )
        thief.steals += 1
        steal_path = shard_dir / (
            f"{prefix}-{thief.index}.steal{thief.steals}.json"
        )
        manifest = {
            "schema": MANIFEST_SCHEMA,
            "shard": f"{thief.index}s{thief.steals}",
            "n_shards": manifest_meta["n_shards"],
            "encode": manifest_meta["encode"],
            "cells": [cell.to_entry() for cell in stolen_cells],
        }
        if manifest_meta["decode"] is not None:
            manifest["decode"] = manifest_meta["decode"]
        atomic_write_text(steal_path, json.dumps(manifest, indent=2) + "\n")
        thief.assign(steal_path, stolen_cells)
        thief.next_launch_unix_s = now
        steals_total.inc(thief=str(thief.index), victim=str(victim.index))
        log.log(
            "steal",
            thief=thief.index,
            victim=victim.index,
            chains=len(stolen),
            cells=len(stolen_keys),
        )
        return True

    def stored_union() -> set[str]:
        union: set[str] = set()
        for root in {slot.store_root for slot in slots}:
            union |= _stored_keys(root)
        return union

    def stalled_error(unresolved: set[str]) -> RuntimeError:
        holders = []
        for path in sorted(shard_dir.glob(f"{prefix}-*.revoked.json")):
            held = sorted(unresolved & read_revoked(path))
            if held:
                holders.append(f"{path} revokes {', '.join(held)}")
        where = "; ".join(holders) or "no revocation file holds them"
        return RuntimeError(
            f"campaign cannot progress: {len(unresolved)} cell(s) are "
            "not stored, quarantined or blocked, and no worker runs, can "
            f"launch or can steal them: {', '.join(sorted(unresolved))}; "
            f"{where}. A key removed from its revocation file runs again."
        )

    log.log(
        "campaign_start",
        shard_dir=str(shard_dir),
        shards=len(slots),
        cells=len(all_keys),
        max_retries=max_retries,
        lease_ttl_s=lease_ttl_s,
        steal=steal,
    )
    t0 = time.time()
    try:
        while True:
            now = time.time()
            if max_wall_s is not None and now - t0 > max_wall_s:
                raise RuntimeError(
                    f"campaign exceeded max_wall_s={max_wall_s}; "
                    f"{len(all_keys - stored_union() - set(quarantined) - blocked)} "
                    "cell(s) still unresolved"
                )
            resolved = stored_union() | set(quarantined) | blocked
            if all_keys <= resolved:
                break
            stalled = True
            for slot in slots:
                if slot.proc is not None:
                    stalled = False
                    rc = slot.proc.poll()
                    if rc is None:
                        lease = read_lease(slot.lease_path)
                        if (
                            lease is not None
                            and lease.get("worker_id") == slot.worker_id
                            and lease_expired(lease, now)
                        ):
                            # The process exists but its heartbeat died
                            # (hung pool child, stuck I/O): fence it off
                            # the hard way and reassign.
                            slot.proc.kill()
                            slot.proc.wait()
                            reap(slot)
                            handle_death(slot, "lease expired", now)
                        continue
                    reap(slot)
                    if rc in (0, 4):
                        log.log(
                            "worker_exit",
                            shard=slot.index,
                            worker=slot.worker_id,
                            code=rc,
                        )
                    elif rc == 2:
                        raise RuntimeError(
                            f"worker {slot.worker_id} on "
                            f"{slot.manifest_path.name} failed with a "
                            f"configuration error (exit 2); see "
                            f"{slot.log_path}"
                        )
                    else:
                        handle_death(slot, f"exit code {rc}", now)
                    continue
                work = slot_work(slot)
                unresolved = [k for k in work if k not in resolved]
                if unresolved:
                    stalled = False
                    if now >= slot.next_launch_unix_s:
                        launch(slot)
                    continue
                if steal and try_steal(slot, now):
                    stalled = False
                    launch(slot)
                elif not slot.idle_logged:
                    slot.idle_logged = True
                    log.log("worker_idle", shard=slot.index)
            if stalled:
                raise stalled_error(all_keys - resolved)
            time.sleep(poll_s)
    finally:
        for slot in slots:
            if slot.proc is not None and slot.proc.poll() is None:
                slot.proc.terminate()
                try:
                    slot.proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:  # pragma: no cover
                    slot.proc.kill()
                    slot.proc.wait()
            reap(slot)

    transport_summary: dict | None = None
    if remote_root is not None:
        # Pull each remote shard store back into its local twin before
        # merging: a digest-keyed delta no-op when the link was healthy,
        # and the recovery path when a local store lost documents the
        # remote still holds.  Failures stay per-key and graceful.
        transport_summary = {
            "pulled": 0, "skipped": 0, "failed": {},
            "retries": 0, "refetches": 0,
        }
        for slot in slots:
            remote_store_root = remote_root / f"{prefix}-{slot.index}-store"
            syncer = RemoteStore(
                ArtifactStore(slot.store_root),
                open_transport(remote_store_root),
                backoff=retry_policy,
                registry=registry,
                echo=echo,
            )
            pull = syncer.pull()
            transport_summary["pulled"] += len(pull.pulled)
            transport_summary["skipped"] += len(pull.skipped)
            transport_summary["failed"].update(pull.failed)
            transport_summary["retries"] += pull.retries
            transport_summary["refetches"] += pull.refetches
        log.log(
            "remote_pull_done",
            pulled=transport_summary["pulled"],
            skipped=transport_summary["skipped"],
            failed=len(transport_summary["failed"]),
            refetches=transport_summary["refetches"],
        )

    stored = stored_union()
    unresolved_blocked = tuple(sorted(blocked - stored))
    if quarantined:
        write_failures(
            shard_dir / FAILURES_NAME, quarantined, blocked=unresolved_blocked
        )
    summary: dict = {
        "shard_dir": str(shard_dir),
        "shards": len(slots),
        "cells": len(all_keys),
        "stored": len(all_keys & stored),
        "quarantined": tuple(sorted(quarantined)),
        "blocked": unresolved_blocked,
        "deaths": sum(slot.deaths for slot in slots),
        "launches": sum(slot.launches for slot in slots),
        "steals": sum(slot.steals for slot in slots),
        "ok": not quarantined and not unresolved_blocked,
        "merged": None,
        "transport": transport_summary,
    }
    log.log(
        "campaign_done",
        cells=summary["cells"],
        stored=summary["stored"],
        quarantined=len(summary["quarantined"]),
        blocked=len(summary["blocked"]),
        deaths=summary["deaths"],
        steals=summary["steals"],
        wall_s=time.time() - t0,
    )
    if store_root is not None:
        if summary["ok"] or allow_partial:
            summary["merged"] = merge_stores(
                sorted({str(slot.store_root) for slot in slots}),
                store_root,
                allow_partial=allow_partial,
            )
        else:
            log.log(
                "merge_skipped",
                reason="unresolved failures without allow_partial",
                quarantined=len(summary["quarantined"]),
                blocked=len(summary["blocked"]),
            )
    return summary
