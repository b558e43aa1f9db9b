"""Shard manifests and the ``repro worker`` / ``repro merge`` engine.

A *shard manifest* is the contract between a campaign coordinator and
a worker machine: a self-contained JSON file naming the cells to run
(function reference + payload + key) and the encoder that turns each
result into store documents::

    {
      "schema": 1,
      "shard": 0,
      "n_shards": 2,
      "encode": "repro.scenarios.orchestrate:encode_scenario_result",
      "decode": "repro.scenarios.orchestrate:decode_scenario_result",
      "cells": [{"fn": "...", "payload": {...}, "key": "scn-...",
                 "after": "scn-..."?}, ...]
    }

Cells may chain (``after`` names a predecessor cell in the same
manifest — the partition keeps warm-fabric chains on one shard); the
optional ``decode`` reference lets a resumed worker rebuild a stored
predecessor's result to seed its pending successors.

``python -m repro worker shard-0.json --store DIR`` executes the
manifest into a local :class:`~repro.runtime.store.ArtifactStore`;
``python -m repro merge DIR... --store MAIN`` folds the shard stores
back into the campaign store.  Workers are *resumable*: every finished
cell is persisted immediately, and a re-run skips keys already in the
store — so a crashed or preempted shard just restarts with the same
command line and only pays for its unfinished cells.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Callable, Mapping, Sequence

from repro.obs.logging import StructuredLogger
from repro.obs.provenance import PROVENANCE_KEY
from repro.runtime import chaos
from repro.runtime.cell import Cell, resolve_ref
from repro.runtime.executors import (
    BatchExecutor,
    ExecutionAborted,
    executor_for,
    partition_cells,
)
from repro.runtime.store import ArtifactStore, atomic_write_text

__all__ = [
    "CellExecutionError",
    "FAILURES_NAME",
    "IN_FLIGHT_NAME",
    "MANIFEST_SCHEMA",
    "write_shard_manifests",
    "read_shard_manifest",
    "revoked_path_for",
    "read_revoked",
    "write_revoked",
    "read_failures",
    "write_failures",
    "read_in_flight",
    "persist_result",
    "run_manifest",
    "merge_stores",
]

MANIFEST_SCHEMA = 1

#: Per-shard failure report written by the coordinator into the shard
#: *store* root (next to ``manifest.json``) when cells are quarantined.
FAILURES_NAME = "failures.json"

#: The keys of the lockstep batch a worker is running, written into the
#: shard *store* root before the batch starts and removed when it ends.
#: Left behind, it says the last worker died with all of them running.
IN_FLIGHT_NAME = "in-flight.json"

FAILURES_SCHEMA = 1
REVOKED_SCHEMA = 1


class CellExecutionError(RuntimeError):
    """A cell function raised while a worker executed its shard.

    Distinct from manifest/store *configuration* errors (plain
    ``ValueError``/``OSError``) so the worker CLI can report it as
    *retryable* (exit code 3): the coordinator's response to a crashed
    cell is a retry with backoff, eventually quarantining the cell if
    it keeps killing workers — never a config-error abort.
    """


def revoked_path_for(manifest_path: str | Path) -> Path:
    """The revocation sidecar paired with a shard manifest.

    ``shards/shard-0.json`` pairs with ``shards/shard-0.revoked.json``;
    the coordinator appends stolen (and quarantined) cell keys there,
    and the worker consults it before every batch, so a slow shard's
    stolen chains stop costing it wall-clock mid-run.
    """
    path = Path(manifest_path)
    stem = path.name
    if stem.endswith(".json"):
        stem = stem[: -len(".json")]
    return path.with_name(stem + ".revoked.json")


def read_revoked(path: str | Path) -> set[str]:
    """Keys revoked from a shard (empty when no sidecar exists)."""
    path = Path(path)
    if not path.exists():
        return set()
    payload = json.loads(path.read_text())
    return set(payload.get("keys", ()))


def write_revoked(path: str | Path, keys: Sequence[str]) -> None:
    """Atomically (re)write a revocation sidecar."""
    atomic_write_text(
        Path(path),
        json.dumps(
            {"schema": REVOKED_SCHEMA, "keys": sorted(set(keys))}, indent=2
        )
        + "\n",
    )


def read_in_flight(store_root: str | Path) -> list[str] | None:
    """The lockstep batch a dead worker left running, or ``None``.

    :func:`run_manifest` writes the record before each batch and
    removes it after; one found at start means no single cell of it can
    be blamed for the death, so that run goes one cell at a time.
    """
    try:
        keys = json.loads((Path(store_root) / IN_FLIGHT_NAME).read_text())
    except FileNotFoundError:
        return None
    except ValueError:
        return []
    return [str(key) for key in keys] if isinstance(keys, list) else []


def read_failures(path: str | Path) -> dict | None:
    """A ``failures.json`` report, or ``None`` when absent."""
    path = Path(path)
    if not path.exists():
        return None
    payload = json.loads(path.read_text())
    if not isinstance(payload, dict):
        raise ValueError(f"{path} does not hold a JSON object")
    return payload


def write_failures(
    path: str | Path,
    cells: Mapping[str, Mapping],
    blocked: Sequence[str] = (),
) -> None:
    """Atomically write a failure report.

    ``cells`` maps each quarantined (poison) cell key to its record —
    shard, attempt count, last error; ``blocked`` lists chained
    successors that can never run because a predecessor is poisoned
    (reported separately: they are casualties, not causes).
    """
    atomic_write_text(
        Path(path),
        json.dumps(
            {
                "schema": FAILURES_SCHEMA,
                "cells": {key: dict(cells[key]) for key in sorted(cells)},
                "blocked": sorted(set(blocked)),
            },
            indent=2,
        )
        + "\n",
    )


def write_shard_manifests(
    cells: Sequence[Cell],
    n_shards: int,
    directory: str | Path,
    encode_ref: str,
    prefix: str = "shard",
    decode_ref: str | None = None,
    context_cells: Sequence[Cell] = (),
) -> list[Path]:
    """Partition ``cells`` and write one manifest file per shard.

    The partition is deterministic (see
    :func:`~repro.runtime.executors.partition_cells`), so regenerating
    manifests for the same matrix reproduces the same shard contents —
    a worker resuming against its old store finds its keys unchanged.
    Warm-fabric chains land whole on one shard; pass ``decode_ref`` so
    a resumed worker can rebuild a stored predecessor's result for its
    pending successors.

    ``context_cells`` are predecessors that are *not* part of the
    partition (already cached in the campaign store): any shard whose
    members chain after one gets its entry prepended, so the worker can
    decode the pre-seeded artifact — or recompute the predecessor from
    its payload if the artifact is absent.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    shards = partition_cells(cells, n_shards)
    context_by_key = {cell.key: cell for cell in context_cells}
    paths: list[Path] = []
    for index, shard in enumerate(shards):
        shard_keys = {cell.key for cell in shard}
        extras: list[Cell] = []
        for cell in shard:
            after = cell.after
            if (
                after is not None
                and after not in shard_keys
                and after in context_by_key
                and all(extra.key != after for extra in extras)
            ):
                extras.append(context_by_key[after])
        manifest = {
            "schema": MANIFEST_SCHEMA,
            "shard": index,
            "n_shards": n_shards,
            "encode": encode_ref,
            "cells": [cell.to_entry() for cell in extras + shard],
        }
        if decode_ref is not None:
            manifest["decode"] = decode_ref
        path = directory / f"{prefix}-{index}.json"
        atomic_write_text(path, json.dumps(manifest, indent=2) + "\n")
        paths.append(path)
    return paths


def read_shard_manifest(path: str | Path) -> dict:
    """Load and validate a shard manifest."""
    path = Path(path)
    manifest = json.loads(path.read_text())
    schema = manifest.get("schema")
    if schema != MANIFEST_SCHEMA:
        raise ValueError(
            f"shard manifest {path} has schema {schema!r}; "
            f"this worker understands schema {MANIFEST_SCHEMA}"
        )
    for field in ("encode", "cells"):
        if field not in manifest:
            raise ValueError(f"shard manifest {path} is missing {field!r}")
    for index, entry in enumerate(manifest["cells"]):
        missing = {"fn", "payload", "key"} - set(entry)
        if missing:
            raise ValueError(
                f"shard manifest {path} cell #{index} is missing "
                f"{sorted(missing)}"
            )
    return manifest


def _chain_closure(seeds: set[str], cells: Sequence[Cell]) -> set[str]:
    """``seeds`` plus every cell chained (transitively) after one."""
    closed = set(seeds)
    changed = True
    while changed:
        changed = False
        for cell in cells:
            if cell.key not in closed and cell.after in closed:
                closed.add(cell.key)
                changed = True
    return closed


def persist_result(
    store: ArtifactStore,
    key: str,
    encode: Callable[[object], tuple[dict, dict]],
    result: object,
    provenance: dict | None = None,
) -> None:
    """Encode one computed cell result and put it into ``store``.

    Provenance rides in the manifest meta, never the documents, so the
    store content hash ignores where and how long the cell ran.  A key
    already stored is no error: another writer (an earlier sweep, a
    relaunched shard) landed identical content after the caller's
    manifest snapshot.  Any other refusal propagates.
    """
    documents, meta = encode(result)
    if provenance is not None:
        meta = {**meta, PROVENANCE_KEY: provenance}
    try:
        store.put(key, documents, meta=meta)
    except ValueError:
        if key not in store:
            raise


def run_manifest(
    manifest_path: str | Path,
    store_root: str | Path,
    workers: int = 1,
    echo: Callable[[str], None] | None = print,
    audit_resume: bool = True,
    revoked_path: str | Path | None = None,
    should_stop: Callable[[], bool] | None = None,
    on_stored: Callable[[str], None] | None = None,
) -> dict:
    """Execute a shard manifest into a local artifact store.

    Already-stored keys are skipped (that is the resume path), and each
    result is persisted (:func:`persist_result`) the moment it
    completes.  Pending cells run through the one cell loop,
    :class:`~repro.runtime.executors.BatchExecutor`, chosen by
    :func:`~repro.runtime.executors.executor_for`: at one worker, in
    this process, runs of independent cells advancing together in
    lockstep batches (chains run one cell at a time), so a crash
    mid-shard loses at most one batch, never the finished ones; more
    workers run a chunked process pool whose children run one cell at
    a time.  A batch that raises is rerun one cell at a time, so the
    cells before the failing one are stored and the error is the
    failing cell's own — the shard ends exactly where a one-at-a-time
    run would have.  A worker that *dies* mid-batch (killed, out of
    memory) leaves the batch's keys in the store's
    :data:`IN_FLIGHT_NAME` record; the next run finds it and runs its
    cells through ``BatchExecutor(1)``, the one-at-a-time reference,
    so a death there is again the first unfinished cell's, and removes
    the record once the shard completes.  Returns a summary dict with
    ``computed`` / ``cached`` / ``skipped`` / ``audit_failed`` key
    tuples.

    Three fault-tolerance hooks harden the loop:

    * resumed keys are *audited*, not trusted: each passes
      :meth:`ArtifactStore.verify` (digests recorded, document files
      present, readable, digests matching) before it counts as cached,
      and a key that fails the audit is deleted and recomputed
      (``audit_resume=False`` restores the old trusting behaviour);
    * the revocation sidecar next to the manifest (see
      :func:`revoked_path_for`; ``revoked_path`` overrides it) is
      consulted right before every batch (for chains, every cell), so
      chains the coordinator stole or quarantined are skipped —
      transitively, whole — instead of run;
    * ``should_stop()`` (wired to the lease heartbeat by the worker
      CLI) is checked between batches; when it fires the executor raises
      :class:`~repro.runtime.executors.ExecutionAborted` and the shard
      stops writing immediately.

    ``on_stored(key)`` is the sync hook: called after each cell's
    artifact is persisted locally (the worker CLI wires it to a
    :class:`~repro.runtime.remote.RemoteStore` push so remote stores
    track shard progress cell by cell).  It is best-effort by design —
    a raising hook is logged and the shard keeps computing; the local
    store is the source of truth and a final push can catch up.

    A cell function that raises surfaces as :class:`CellExecutionError`
    (retryable — worker exit code 3); manifest/store problems keep
    raising plain ``ValueError``/``OSError``.  Progress is reported as
    structured ``key=value`` log lines through ``echo`` (``None``
    silences them — the ``--quiet`` path), and every computed cell's
    execution provenance (wall seconds, peak RSS, step count) is stored
    in its manifest meta under
    :data:`~repro.obs.provenance.PROVENANCE_KEY`, where
    ``repro campaign status`` finds it.
    """
    chaos.active_injector()  # arm fault injection if the env asks for it
    log = StructuredLogger(echo=echo, component="worker")
    manifest = read_shard_manifest(manifest_path)
    encode = resolve_ref(manifest["encode"])
    store = ArtifactStore(store_root)
    cells = [Cell.from_entry(entry) for entry in manifest["cells"]]
    stored = set(store.keys())

    # Resume audit: a key in the manifest is only a cache hit if its
    # artifact survives an integrity audit — a torn or vanished
    # document file must trigger a recompute, not a silent skip that
    # merges a broken store.
    audit_failed: tuple[str, ...] = ()
    if audit_resume:
        resumed = [cell.key for cell in cells if cell.key in stored]
        if resumed:
            report = store.verify(keys=resumed)
            if not report.ok:
                bad = report.bad_keys()
                for problem in report.problems:
                    log.log(
                        "cell_audit_failed",
                        cell=problem.key,
                        document=problem.document,
                        kind=problem.kind,
                    )
                for key in bad:
                    try:
                        store.delete(key)
                    except KeyError:  # pragma: no cover - delete race
                        pass
                stored -= set(bad)
                audit_failed = tuple(bad)

    revoked_file = (
        Path(revoked_path)
        if revoked_path is not None
        else revoked_path_for(manifest_path)
    )
    revoked = _chain_closure(
        read_revoked(revoked_file) & {cell.key for cell in cells},
        cells,
    )
    skipped: list[str] = []

    cached = tuple(
        cell.key
        for cell in cells
        if cell.key in stored and cell.key not in revoked
    )
    pending = []
    for cell in cells:
        if cell.key in stored:
            continue
        if cell.key in revoked:
            skipped.append(cell.key)
            log.log("cell_skipped", cell=cell.key, reason="revoked")
        else:
            pending.append(cell)
    log.log(
        "shard_start",
        shard=manifest.get("shard", "?"),
        n_shards=manifest.get("n_shards", "?"),
        cells=len(cells),
        cached=len(cached),
        pending=len(pending),
        skipped=len(skipped),
        audit_failed=len(audit_failed),
        store=str(store.root),
    )

    # Chained resume: a pending successor whose predecessor is already
    # in the store (finished before a crash, or pre-seeded by the
    # coordinator for a cached cell) needs that predecessor's *result*,
    # which only the codec's decoder can rebuild from the documents.
    by_key = {cell.key: cell for cell in cells}
    pending_keys = {cell.key for cell in pending}
    upstream: dict[str, object] = {}
    for cell in pending:
        after = cell.after
        if after is None or after in pending_keys or after in upstream:
            continue
        if after not in stored:
            raise ValueError(
                f"cell {cell.key!r} chains after {after!r}, which is "
                "neither in this shard manifest nor in the shard store "
                "(chains must stay on one shard)"
            )
        decode_ref = manifest.get("decode")
        if decode_ref is None:
            raise ValueError(
                f"cell {cell.key!r} needs stored predecessor {after!r} "
                "decoded, but the shard manifest carries no 'decode' "
                "reference — regenerate the manifests"
            )
        predecessor = by_key.get(after)
        if predecessor is None:
            raise ValueError(
                f"cell {cell.key!r} chains after {after!r}, which is "
                "stored but absent from this shard manifest; cannot "
                "rebuild its result without its cell entry"
            )
        upstream[after] = resolve_ref(decode_ref)(
            predecessor, store.get(after)
        )

    computed: list[str] = []
    provenance: dict[str, dict] = {}

    def emit(cell: Cell, result: object, already_stored: bool) -> None:
        prov = provenance.get(cell.key)
        if not already_stored:
            persist_result(store, cell.key, encode, result, prov)
        computed.append(cell.key)
        log.log(
            "cell_done",
            shard=manifest.get("shard", "?"),
            cell=cell.key,
            already_stored=already_stored,
            wall_s=prov.get("wall_s", 0.0) if prov else 0.0,
        )
        if on_stored is not None:
            try:
                on_stored(cell.key)
            except Exception as exc:
                log.log("sync_hook_failed", cell=cell.key, error=str(exc))

    def live_skip(cell: Cell) -> bool:
        # Re-read the sidecar each time: the coordinator appends stolen
        # chains *while the worker runs*, and an O(cells) re-read of a
        # tiny JSON file is nothing next to a cell execution.
        return cell.key in read_revoked(revoked_file)

    def on_skip(cell: Cell) -> None:
        skipped.append(cell.key)
        log.log("cell_skipped", cell=cell.key, reason="revoked")

    in_flight_file = store.root / IN_FLIGHT_NAME

    def in_flight(keys: Sequence[str]) -> None:
        # Not fsynced: the record has to outlive the worker process,
        # not the machine.  Lost to a power cut, it costs one retry
        # charged to the wrong cell of the batch.
        if keys:
            staging = in_flight_file.with_name(
                f".{IN_FLIGHT_NAME}.{os.getpid()}.tmp"
            )
            staging.write_text(json.dumps(list(keys)))
            os.replace(staging, in_flight_file)
        else:
            in_flight_file.unlink(missing_ok=True)

    executor = executor_for(workers)
    died_mid_batch = read_in_flight(store.root)
    if died_mid_batch is not None and workers == 1:
        log.log("resume_one_at_a_time", cells=len(died_mid_batch))
        executor = BatchExecutor(1)
    try:
        executor.run(
            pending,
            emit,
            upstream=upstream,
            on_provenance=provenance.__setitem__,
            skip=live_skip,
            should_stop=should_stop,
            on_skip=on_skip,
            in_flight=in_flight,
        )
    except (ExecutionAborted, KeyboardInterrupt, SystemExit):
        raise
    except Exception as exc:
        # A raising cell function is *retryable* (the coordinator's
        # concern), unlike the manifest/store validation errors raised
        # above.  The original message is preserved verbatim so callers
        # matching on it keep working.
        raise CellExecutionError(str(exc)) from exc
    in_flight_file.unlink(missing_ok=True)
    return {
        "shard": manifest.get("shard"),
        "n_shards": manifest.get("n_shards"),
        "store": str(store.root),
        "computed": tuple(computed),
        "cached": cached,
        "skipped": tuple(skipped),
        "audit_failed": audit_failed,
    }


def merge_stores(
    shard_roots: Sequence[str | Path],
    store_root: str | Path,
    allow_partial: bool = False,
) -> dict:
    """Fold shard stores into the campaign store, deterministically.

    Sources merge in the order given, keys within each in sorted
    order; keys the campaign store already holds are left untouched.
    A source without a manifest is refused — opening it would silently
    create an empty store, and a typo'd shard path must not merge as
    "nothing to adopt".

    A shard store carrying a ``failures.json`` report (the coordinator
    quarantined poison cells there) with *unresolved* cells — failed or
    blocked keys that never made it into the store — is likewise
    refused, because silently merging it would present a partial
    campaign as complete.  Pass ``allow_partial=True`` (CLI:
    ``--allow-partial``) to merge anyway; the summary then carries the
    unresolved ``failed`` / ``blocked`` key tuples so the caller can
    report the holes.

    Returns a summary with the adopted keys and the merged store's
    content hash (compare it across re-merges or machines to confirm
    determinism).
    """
    failed: set[str] = set()
    blocked: set[str] = set()
    for root in shard_roots:
        root = Path(root)
        if not (root / "manifest.json").exists():
            raise ValueError(
                f"shard store {root} has no manifest.json — not a store "
                "(wrong path, or the worker never ran?)"
            )
        report = read_failures(root / FAILURES_NAME)
        if report is None:
            continue
        present = set(ArtifactStore(root).keys())
        bad = set(report.get("cells", {})) - present
        held = set(report.get("blocked", ())) - present
        if (bad or held) and not allow_partial:
            raise ValueError(
                f"shard store {root} reports unresolved failures "
                f"({len(bad)} failed, {len(held)} blocked cells in "
                f"{FAILURES_NAME}); re-run the shard, or merge anyway "
                "with --allow-partial"
            )
        failed |= bad
        blocked |= held
    store = ArtifactStore(store_root)
    adopted = store.merge_from([ArtifactStore(root) for root in shard_roots])
    return {
        "store": str(store.root),
        "adopted": tuple(adopted),
        "total": len(store),
        "content_hash": store.content_hash(),
        "failed": tuple(sorted(failed)),
        "blocked": tuple(sorted(blocked)),
    }
