"""repro.runtime — the unified campaign execution layer.

The paper's core argument is that credible cloud-performance
conclusions require *many* long, repeated campaigns; this package is
the substrate that makes such campaigns cheap to run, cache, and
distribute.  Every campaign-shaped workload in the library — DAG
scenario sweeps (:mod:`repro.scenarios`), serving sweeps
(:mod:`repro.serving`) and figure replay sweeps (:mod:`repro.paper`)
— runs through the same three abstractions:

* :class:`~repro.runtime.cell.Cell` — the unit of work: a pure,
  import-referenced function plus a JSON payload, identified by a
  content hash so equal work shares one cache key everywhere;
* :class:`~repro.runtime.store.ArtifactStore` — a content-addressed
  directory store of JSON documents with atomic, crash-safe manifest
  writes (documents land before the manifest entry, every file is
  temp-written, fsynced, and renamed into place);
* executors (:mod:`repro.runtime.executors`) —
  :class:`~repro.runtime.executors.SerialExecutor`,
  :class:`~repro.runtime.executors.ProcessPoolExecutor` (chunked), and
  :class:`~repro.runtime.executors.ShardExecutor`, which partitions a
  matrix into per-machine shard manifests executed by
  ``python -m repro worker`` and merged back deterministically with
  ``python -m repro merge``.

Because cells are pure and content-keyed, executor choice never
changes results: serial, pooled, and sharded runs of the same matrix
produce byte-identical stores (checkable via
:meth:`~repro.runtime.store.ArtifactStore.content_hash`).
:class:`~repro.runtime.campaign.CampaignRunner` is the shared
orchestration loop: snapshot the manifest, decode cached cells, run
pending ones, persist each result as it arrives.  The scenario and
serving sweeps drive it through one config-level front end,
:class:`~repro.runtime.campaign.Campaign`.

**The failure model.**  Multi-day campaigns on preemptible cloud
nodes *will* lose workers, and the runtime is built so that losing one
is boring.  The assumptions and guarantees, from the bottom up:

* *Store writes are crash-atomic.*  Every file is temp-written,
  fsynced, and renamed; document files land before their manifest
  entry.  A worker SIGKILLed mid-``put`` leaves at worst an orphan
  directory (adopted by the next ``put``), never a manifested artifact
  whose bytes are missing or torn.
  :meth:`~repro.runtime.store.ArtifactStore.verify` (CLI:
  ``repro store verify``) audits exactly this contract — documents
  present, parseable, and matching the sha256 recorded at write time.
* *Resume is audit-first.*  A restarted worker re-verifies the keys it
  would skip and recomputes any that fail the audit, so a corrupted
  artifact can't hide behind the resume path
  (:func:`~repro.runtime.worker.run_manifest`).
* *Workers are expendable; the coordinator is the failure domain that
  matters.*  ``repro campaign run``
  (:func:`~repro.runtime.coordinator.run_campaign`) supervises one
  leased worker subprocess per shard: heartbeat-renewed lease files
  detect death (no cooperation from a SIGKILLed worker needed), dead
  shards relaunch with exponential backoff, and resume makes each
  relaunch pay only for unfinished cells.  Worker exit codes are a
  protocol: 0 done, 2 config error, 3 retryable, 4 quarantined
  failures present.
* *Poison cells cost their chain, not the campaign.*  Each worker
  death is blamed on the first unfinished cell (exact, because workers
  execute serially in manifest order); a cell exhausting its retry
  budget is quarantined into ``failures.json`` with its chained
  successors as ``blocked``, and
  :func:`~repro.runtime.worker.merge_stores` refuses such stores
  unless explicitly told ``allow_partial``.
* *Recovery never changes results.*  Retries, reassignment, and work
  stealing (idle workers taking pending chains from the busiest live
  shard) can at worst compute a cell twice — and duplicates are
  byte-identical because cells are pure and content-keyed.  The chaos
  harness (:mod:`repro.runtime.chaos`) enforces this as a test
  invariant: kill workers anywhere and the merged store hash must
  equal the serial run's.
* *The network is the last untrusted party.*  Stores cross machines
  only through :mod:`repro.runtime.remote`: a pluggable
  :class:`~repro.runtime.remote.Transport` moves opaque bytes, and
  :class:`~repro.runtime.remote.RemoteStore` layers on everything the
  transport is not trusted to provide — digest-keyed delta transfer,
  sha256 re-verification of every transferred document (re-fetch /
  re-upload on mismatch), bounded retries drawing the coordinator's
  own deterministic backoff schedule
  (:class:`~repro.runtime.remote.RetryPolicy`), per-operation
  timeouts, and the same documents-before-manifest landing order via
  :meth:`~repro.runtime.store.ArtifactStore.adopt`.  A transfer the
  link drops, truncates, corrupts, or stalls can delay convergence
  but never lands a corrupt document in a manifest; a pull that
  cannot complete leaves the local store valid and reports exactly
  which keys are missing.  The chaos harness extends the convergence
  invariant across the wire: inject any transport fault and the
  pulled-and-merged store hash must still equal the serial run's.
"""

from repro.runtime.campaign import (
    ArtifactCodec,
    Campaign,
    CampaignOutcome,
    CampaignRunner,
)
from repro.runtime.cell import (
    Cell,
    cell_key,
    execute_cell,
    execute_cell_graph,
    order_cells,
    resolve_ref,
)
from repro.runtime.coordinator import (
    LeaseHeartbeat,
    LeaseLostError,
    acquire_lease,
    lease_path_for,
    release_lease,
    renew_lease,
    run_campaign,
)
from repro.runtime.executors import (
    ExecutionAborted,
    ProcessPoolExecutor,
    SerialExecutor,
    ShardExecutor,
    cell_components,
    partition_cells,
)
from repro.runtime.remote import (
    FaultyTransport,
    LocalDirTransport,
    RemoteStore,
    RetryPolicy,
    SyncReport,
    Transport,
    TransportError,
    TransportNotFoundError,
    TransportTimeoutError,
    open_transport,
    read_sync_state,
)
from repro.runtime.store import (
    ArtifactStore,
    StoreCorruptionError,
    StoreRepairReport,
    StoreVerifyProblem,
    StoreVerifyReport,
    atomic_write_text,
    validate_key,
)
from repro.runtime.worker import (
    FAILURES_NAME,
    MANIFEST_SCHEMA,
    CellExecutionError,
    merge_stores,
    read_failures,
    read_shard_manifest,
    run_manifest,
    write_shard_manifests,
)

__all__ = [
    "ArtifactCodec",
    "ArtifactStore",
    "Campaign",
    "CampaignOutcome",
    "CampaignRunner",
    "Cell",
    "CellExecutionError",
    "ExecutionAborted",
    "FAILURES_NAME",
    "FaultyTransport",
    "LeaseHeartbeat",
    "LeaseLostError",
    "LocalDirTransport",
    "MANIFEST_SCHEMA",
    "ProcessPoolExecutor",
    "RemoteStore",
    "RetryPolicy",
    "SerialExecutor",
    "ShardExecutor",
    "StoreCorruptionError",
    "StoreRepairReport",
    "StoreVerifyProblem",
    "StoreVerifyReport",
    "SyncReport",
    "Transport",
    "TransportError",
    "TransportNotFoundError",
    "TransportTimeoutError",
    "acquire_lease",
    "atomic_write_text",
    "cell_components",
    "cell_key",
    "execute_cell",
    "execute_cell_graph",
    "lease_path_for",
    "merge_stores",
    "open_transport",
    "order_cells",
    "partition_cells",
    "read_failures",
    "read_shard_manifest",
    "read_sync_state",
    "release_lease",
    "renew_lease",
    "resolve_ref",
    "run_campaign",
    "run_manifest",
    "validate_key",
    "write_shard_manifests",
]
