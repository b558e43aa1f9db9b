"""Live campaign status from shard manifests and shard stores.

``repro campaign status <shard-dir>`` reads the coordinator-written
shard manifests (``shard-0.json`` ...) plus whatever each worker has
persisted so far into its shard store, and reports per-shard progress,
throughput, ETA, and stragglers — without touching the workers.  The
worker side needs no status protocol: every finished cell lands in the
shard store's ``manifest.json`` with an ``obs`` provenance record
(wall seconds, completion wall-clock, step count), so "status" is just
reading files the campaign already produces.

Shard *stores* are read with :func:`json.loads` directly rather than
through :class:`~repro.runtime.store.ArtifactStore` — constructing a
store creates its directory and an empty manifest as a side effect,
and a status probe must not scaffold stores for shards whose workers
have not started yet.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.obs.metrics import MetricsRegistry
from repro.obs.provenance import PROVENANCE_KEY

__all__ = [
    "ShardStatus",
    "CampaignStatus",
    "campaign_status",
    "find_shard_manifests",
    "render_text",
    "render_prometheus",
]


@dataclass
class ShardStatus:
    """Progress of one shard: manifest contract vs store contents."""

    index: int
    manifest_path: Path
    store_root: Path
    n_cells: int
    n_done: int
    #: Sum of per-cell wall seconds from provenance records (0.0 when
    #: the worker predates provenance or has stored nothing yet).
    wall_s: float = 0.0
    #: Cells in the store that carry a provenance record.
    n_timed: int = 0
    #: Total simulator steps across timed cells.
    n_steps: int = 0
    #: Summed SLO violation counts from provenance (serving cells).
    n_slo_violations: int = 0
    #: Cells whose provenance carried an SLO verdict at all; 0 means
    #: the shard ran no serving cells and the SLO column is moot.
    n_slo_cells: int = 0
    #: Wall-clock (unix seconds) of the most recent stored cell.
    last_unix_s: float | None = None
    #: Cells revoked from this shard by the coordinator (stolen chains;
    #: excludes quarantined/blocked cells, which count as failed).
    n_stolen: int = 0
    #: Cells quarantined or blocked on this shard (``failures.json``).
    n_failed: int = 0
    #: ``"alive"`` / ``"dead"`` from the shard's lease file, or ``"-"``
    #: when no worker has ever leased the shard (serial/manual runs).
    worker_state: str = "-"
    #: Worker id from the lease file (``""`` without a lease).
    worker_id: str = ""
    #: True when the probe was given a remote root to compare against
    #: (``repro campaign status --remote``); the sync fields below are
    #: meaningful only then.
    has_remote: bool = False
    #: Local documents whose sha256 matches the remote store's entry.
    n_docs_synced: int = 0
    #: Local documents the remote lacks (or holds with other digests).
    n_docs_pending: int = 0
    #: Keys the last recorded push/pull/sync could not transfer, from
    #: the shard store's ``.sync.json`` sidecar.
    n_sync_failed: int = 0

    @property
    def n_pending(self) -> int:
        return max(0, self.n_cells - self.n_done - self.n_stolen - self.n_failed)

    @property
    def done_frac(self) -> float:
        return self.n_done / self.n_cells if self.n_cells else 1.0

    @property
    def throughput_cps(self) -> float:
        """Cells per wall second, from provenance (NaN if unknowable)."""
        if self.n_timed == 0 or self.wall_s <= 0:
            return math.nan
        return self.n_timed / self.wall_s

    @property
    def eta_s(self) -> float:
        """Estimated seconds of work left (NaN without a throughput)."""
        if self.n_pending == 0:
            return 0.0
        rate = self.throughput_cps
        if math.isnan(rate) or rate <= 0:
            return math.nan
        return self.n_pending / rate


@dataclass
class CampaignStatus:
    """Aggregate view over all discovered shards."""

    shard_dir: Path
    shards: list[ShardStatus] = field(default_factory=list)

    @property
    def n_cells(self) -> int:
        return sum(s.n_cells for s in self.shards)

    @property
    def n_done(self) -> int:
        return sum(s.n_done for s in self.shards)

    @property
    def n_pending(self) -> int:
        return self.n_cells - self.n_done

    @property
    def done_frac(self) -> float:
        return self.n_done / self.n_cells if self.n_cells else 1.0

    @property
    def wall_s(self) -> float:
        return sum(s.wall_s for s in self.shards)

    @property
    def n_slo_violations(self) -> int:
        return sum(s.n_slo_violations for s in self.shards)

    @property
    def eta_s(self) -> float:
        """Campaign ETA: shards run in parallel, so the slowest wins."""
        etas = [s.eta_s for s in self.shards if s.n_pending > 0]
        if not etas:
            return 0.0
        if any(math.isnan(eta) for eta in etas):
            return math.nan
        return max(etas)

    def stragglers(self) -> list[ShardStatus]:
        """Unfinished shards lagging well behind the median progress.

        A shard is a straggler when it still has pending cells and its
        completed fraction trails the median shard's by 25 points or
        more — the "one slow machine holds the campaign" signal the
        variability study repeatedly hits.
        """
        if len(self.shards) < 2:
            return []
        fracs = sorted(s.done_frac for s in self.shards)
        mid = len(fracs) // 2
        if len(fracs) % 2:
            median = fracs[mid]
        else:
            median = 0.5 * (fracs[mid - 1] + fracs[mid])
        return [
            s
            for s in self.shards
            if s.n_pending > 0 and s.done_frac <= median - 0.25
        ]


def _read_store_manifest(store_root: Path) -> dict:
    """A shard store's manifest, or ``{}`` before the worker starts."""
    path = store_root / "manifest.json"
    if not path.exists():
        return {}
    manifest = json.loads(path.read_text())
    if not isinstance(manifest, dict):
        raise ValueError(f"{path} does not hold a JSON object")
    return manifest


def _shard_status(
    index: int,
    manifest_path: Path,
    store_root: Path,
    remote_store_root: Path | None = None,
) -> ShardStatus:
    # Imported lazily: repro.runtime modules import repro.obs at load
    # time, so a module-level import here would be circular.
    from repro.runtime.coordinator import (
        lease_path_for,
        lease_expired,
        read_lease,
    )
    from repro.runtime.worker import (
        FAILURES_NAME,
        read_failures,
        read_revoked,
        revoked_path_for,
    )

    manifest = json.loads(manifest_path.read_text())
    keys = [entry["key"] for entry in manifest.get("cells", [])]
    stored = _read_store_manifest(store_root)
    failures = read_failures(store_root / FAILURES_NAME) or {}
    failed_keys = (
        set(failures.get("cells", {})) | set(failures.get("blocked", ()))
    ) & set(keys)
    revoked = read_revoked(revoked_path_for(manifest_path)) & set(keys)
    status = ShardStatus(
        index=index,
        manifest_path=manifest_path,
        store_root=store_root,
        n_cells=len(keys),
        n_done=sum(1 for key in keys if key in stored),
        n_stolen=sum(
            1
            for key in revoked - failed_keys
            if key not in stored
        ),
        n_failed=sum(1 for key in failed_keys if key not in stored),
    )
    lease = read_lease(lease_path_for(manifest_path))
    if lease is not None:
        status.worker_id = str(lease.get("worker_id", ""))
        status.worker_state = (
            "dead" if lease_expired(lease) else "alive"
        )
    for key in keys:
        entry = stored.get(key)
        if not isinstance(entry, dict):
            continue
        prov = entry.get(PROVENANCE_KEY)
        if not isinstance(prov, dict):
            continue
        wall = prov.get("wall_s")
        if isinstance(wall, (int, float)):
            status.wall_s += float(wall)
            status.n_timed += 1
        steps = prov.get("n_steps")
        if isinstance(steps, int):
            status.n_steps += steps
        slo = prov.get("slo_violations")
        if isinstance(slo, int):
            status.n_slo_violations += slo
            status.n_slo_cells += 1
        unix = prov.get("unix_s")
        if isinstance(unix, (int, float)) and (
            status.last_unix_s is None or unix > status.last_unix_s
        ):
            status.last_unix_s = float(unix)
    if remote_store_root is not None:
        _sync_lag(status, stored, remote_store_root)
    return status


def _sync_lag(
    status: ShardStatus, stored: dict, remote_store_root: Path
) -> None:
    """Fill a shard's sync-lag fields by comparing manifests digest-wise.

    The remote store's manifest is read raw (like the local one, never
    scaffolding) and every local document is classified: synced when
    the remote entry records the same sha256, pending otherwise.
    Failed keys come from the ``.sync.json`` sidecar the last
    push/pull/sync wrote — no sidecar, no failures to report.
    """
    # Lazy import for the same circularity reason as _shard_status.
    from repro.runtime.remote import read_sync_state
    from repro.runtime.store import DIGESTS_KEY

    status.has_remote = True
    remote_path = remote_store_root / "manifest.json"
    remote_manifest: dict = {}
    if remote_path.exists():
        try:
            parsed = json.loads(remote_path.read_text())
        except ValueError:
            parsed = None
        if isinstance(parsed, dict):
            remote_manifest = parsed
    for key, entry in stored.items():
        if not isinstance(entry, dict):
            continue
        digests = entry.get(DIGESTS_KEY)
        digests = digests if isinstance(digests, dict) else {}
        names = entry.get("documents") or []
        remote_entry = remote_manifest.get(key)
        remote_digests = (
            remote_entry.get(DIGESTS_KEY)
            if isinstance(remote_entry, dict)
            else None
        )
        remote_digests = (
            remote_digests if isinstance(remote_digests, dict) else {}
        )
        for name in names:
            recorded = digests.get(name)
            if recorded is not None and remote_digests.get(name) == recorded:
                status.n_docs_synced += 1
            else:
                status.n_docs_pending += 1
    state = read_sync_state(status.store_root)
    if state is not None:
        failed_keys: set[str] = set()
        for direction in ("push", "pull", "sync"):
            outcome = state.get(direction)
            if isinstance(outcome, dict):
                failed = outcome.get("failed")
                if isinstance(failed, dict):
                    failed_keys |= set(failed)
        status.n_sync_failed = len(failed_keys)


def find_shard_manifests(
    shard_dir: str | Path, prefix: str = "shard"
) -> list[tuple[int, Path]]:
    """Discover ``{prefix}-<i>.json`` shard manifests, in shard order.

    The one place the on-disk shard layout is interpreted: both
    ``repro campaign status`` and the fault-tolerant supervisor
    (:func:`repro.runtime.coordinator.run_campaign`) discover shards
    through this, so they can never disagree about what a campaign
    directory contains.  Sidecar files (``*.lease.json``,
    ``*.revoked.json``, steal manifests) never match.
    """
    shard_dir = Path(shard_dir)
    pattern = re.compile(re.escape(prefix) + r"-(\d+)\.json$")
    found: list[tuple[int, Path]] = []
    for path in sorted(shard_dir.glob(f"{prefix}-*.json")):
        match = pattern.fullmatch(path.name)
        if match:
            found.append((int(match.group(1)), path))
    if not found:
        raise ValueError(
            f"no shard manifests matching {prefix}-<N>.json in {shard_dir}"
        )
    found.sort()
    return found


def campaign_status(
    shard_dir: str | Path,
    prefix: str = "shard",
    stores: Sequence[str | Path] | None = None,
    remote: str | Path | None = None,
) -> CampaignStatus:
    """Probe a sharded campaign's progress from its on-disk state.

    Discovers ``{prefix}-<i>.json`` manifests under ``shard_dir`` and
    pairs shard *i* with the store ``{prefix}-<i>-store`` in the same
    directory (the layout ``repro scenario --shards`` prints worker
    commands for), unless explicit ``stores`` override the pairing
    positionally.  ``remote`` names the remote store root the campaign
    syncs through (``repro campaign run --remote``); when given, each
    shard additionally reports its sync lag against
    ``<remote>/{prefix}-<i>-store``.
    """
    shard_dir = Path(shard_dir)
    found = find_shard_manifests(shard_dir, prefix)
    if stores is not None and len(stores) != len(found):
        raise ValueError(
            f"{len(found)} shard manifest(s) but {len(stores)} --stores "
            "path(s); pass one store per shard, in shard order"
        )
    status = CampaignStatus(shard_dir=shard_dir)
    for position, (index, manifest_path) in enumerate(found):
        if stores is not None:
            store_root = Path(stores[position])
        else:
            store_root = shard_dir / f"{prefix}-{index}-store"
        remote_store_root = (
            Path(remote) / f"{prefix}-{index}-store"
            if remote is not None
            else None
        )
        status.shards.append(
            _shard_status(index, manifest_path, store_root, remote_store_root)
        )
    return status


def _fmt_eta(eta_s: float) -> str:
    if math.isnan(eta_s):
        return "?"
    if eta_s >= 3600:
        return f"{eta_s / 3600:.1f}h"
    if eta_s >= 60:
        return f"{eta_s / 60:.1f}m"
    return f"{eta_s:.1f}s"


def render_text(status: CampaignStatus) -> str:
    """Human-readable per-shard progress table plus campaign totals."""
    lines = [f"campaign {status.shard_dir} — {len(status.shards)} shard(s)"]
    straggling = {s.index for s in status.stragglers()}
    for s in status.shards:
        rate = s.throughput_cps
        rate_text = "?" if math.isnan(rate) else f"{rate:.3g} cell/s"
        extras = ""
        if s.n_stolen:
            extras += f", stolen {s.n_stolen}"
        if s.n_failed:
            extras += f", failed {s.n_failed}"
        if s.n_slo_cells:
            extras += f", slo-violations {s.n_slo_violations}"
        if s.worker_state != "-":
            extras += f", worker {s.worker_state}"
            if s.worker_id:
                extras += f" ({s.worker_id})"
        if s.has_remote:
            extras += (
                f", synced {s.n_docs_synced}/"
                f"{s.n_docs_synced + s.n_docs_pending}"
            )
            if s.n_sync_failed:
                extras += f", sync-failed {s.n_sync_failed}"
        flag = "  STRAGGLER" if s.index in straggling else ""
        lines.append(
            f"  shard {s.index}: {s.n_done}/{s.n_cells} cells "
            f"({100.0 * s.done_frac:.0f}%), {s.wall_s:.1f}s wall, "
            f"{rate_text}, eta {_fmt_eta(s.eta_s)}{extras}{flag}"
        )
    total = (
        f"  total: {status.n_done}/{status.n_cells} cells "
        f"({100.0 * status.done_frac:.0f}%), eta {_fmt_eta(status.eta_s)}"
    )
    if any(s.n_slo_cells for s in status.shards):
        total += f", slo-violations {status.n_slo_violations}"
    lines.append(total)
    return "\n".join(lines)


def render_prometheus(status: CampaignStatus) -> str:
    """The same status as Prometheus text exposition (``--prom``)."""
    reg = MetricsRegistry()
    cells = reg.gauge(
        "repro_campaign_shard_cells", "Cells assigned to the shard"
    )
    done = reg.gauge(
        "repro_campaign_shard_cells_done", "Cells the shard has stored"
    )
    wall = reg.gauge(
        "repro_campaign_shard_wall_seconds",
        "Summed per-cell wall seconds from provenance",
    )
    steps = reg.gauge(
        "repro_campaign_shard_sim_steps", "Summed simulator steps"
    )
    eta = reg.gauge(
        "repro_campaign_shard_eta_seconds",
        "Estimated seconds of work remaining (NaN if unknown)",
    )
    stolen = reg.gauge(
        "repro_campaign_shard_cells_stolen",
        "Cells revoked from the shard by work stealing",
    )
    failed = reg.gauge(
        "repro_campaign_shard_cells_failed",
        "Cells quarantined or blocked on the shard",
    )
    slo_violations = reg.gauge(
        "repro_campaign_shard_slo_violations",
        "Summed SLO violation counts from serving-cell provenance",
    )
    alive = reg.gauge(
        "repro_campaign_shard_worker_alive",
        "1 = lease renewed within TTL, 0 = lease expired (dead worker), "
        "NaN = never leased",
    )
    any_remote = any(s.has_remote for s in status.shards)
    if any_remote:
        synced = reg.gauge(
            "repro_campaign_shard_docs_synced",
            "Local documents whose digests match the remote shard store",
        )
        pending = reg.gauge(
            "repro_campaign_shard_docs_pending",
            "Local documents absent from or stale on the remote shard store",
        )
        sync_failed = reg.gauge(
            "repro_campaign_shard_sync_failed",
            "Keys whose last transport sync attempt failed (.sync.json)",
        )
    for s in status.shards:
        label = str(s.index)
        cells.set(float(s.n_cells), shard=label)
        done.set(float(s.n_done), shard=label)
        wall.set(s.wall_s, shard=label)
        steps.set(float(s.n_steps), shard=label)
        eta.set(s.eta_s, shard=label)
        stolen.set(float(s.n_stolen), shard=label)
        failed.set(float(s.n_failed), shard=label)
        slo_violations.set(float(s.n_slo_violations), shard=label)
        alive.set(
            math.nan
            if s.worker_state == "-"
            else float(s.worker_state == "alive"),
            shard=label,
        )
        if s.has_remote:
            synced.set(float(s.n_docs_synced), shard=label)
            pending.set(float(s.n_docs_pending), shard=label)
            sync_failed.set(float(s.n_sync_failed), shard=label)
    reg.gauge("repro_campaign_shards", "Discovered shards").set(
        float(len(status.shards))
    )
    reg.gauge(
        "repro_campaign_done_ratio", "Campaign-wide completed fraction"
    ).set(status.done_frac)
    reg.gauge(
        "repro_campaign_stragglers", "Shards flagged as stragglers"
    ).set(float(len(status.stragglers())))
    return reg.render_prometheus()
