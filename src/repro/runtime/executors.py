"""Pluggable executors: how a set of cells turns into results.

One loop runs every cell, everywhere: :meth:`BatchExecutor.run` walks
the cells in dependency order, groups them into batches and hands each
batch to :func:`_run_batch`.  ``BatchExecutor(1)`` (every batch one
cell) is the one-at-a-time reference every other strategy must match
bit-for-bit.  Around that loop:

* :class:`BatchExecutor` — the single-process default: runs of
  independent cells whose function declares a batched form advance
  together in lockstep (:mod:`repro.simulator.multistream`),
  bit-identically to the reference.
* :class:`ProcessPoolExecutor` — a chunked :mod:`multiprocessing`
  pool (``min(workers, n)`` processes, ~4 chunks per worker so large
  matrices stop paying one IPC round-trip per cell).  Each pool task
  is one chain component, which the child runs through
  ``BatchExecutor(1)``.  Results are emitted as they arrive so the
  caller can persist them incrementally — a killed sweep keeps its
  finished cells.
* :class:`ShardExecutor` — campaign-level sharding across *machines*:
  the cell set is partitioned deterministically into per-shard JSON
  manifests, each executed by ``python -m repro worker <manifest>``
  (in-process by default, or as a real subprocess), and the per-shard
  artifact stores are merged back into the campaign store.  Because
  cells are pure and content-keyed, the merged store is byte-identical
  to what the reference would have produced.

:func:`executor_for` is the one place a worker count picks between
in-process and pool, and it refuses fewer than one worker.

Every executor funnels results through the same ``emit(cell, result,
stored)`` callback; ``stored=True`` tells the caller the artifact
already reached the store through a worker, so it must not be written
twice.  Callers that want execution provenance (per-cell wall time,
peak RSS, step count) pass ``on_provenance(key, record)``, invoked
just before the cell's ``emit`` — the in-process and pooled executors
measure it where the cell actually ran; the shard executor leaves it
to the workers, which persist provenance into their shard stores.

Warm-fabric chains (cells whose ``after`` names a predecessor) add one
constraint every strategy honors identically: a chain executes in
dependency order with each successor fed its predecessor's result, and
a whole chain stays in one process / pool task / shard
(:func:`cell_components` groups them), so in-process, pooled, and
sharded runs of a chained matrix remain byte-identical.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
import warnings
from pathlib import Path
from typing import Callable, Mapping, Sequence

from repro.obs.provenance import cell_provenance
from repro.runtime.cell import Cell, order_cells, resolve_ref
from repro.runtime.store import ArtifactStore

__all__ = [
    "ExecutionAborted",
    "BatchExecutor",
    "ProcessPoolExecutor",
    "ShardExecutor",
    "cell_components",
    "executor_for",
    "partition_cells",
]

#: ``emit(cell, result, stored)`` — invoked once per completed cell.
EmitFn = Callable[[Cell, object, bool], None]


class ExecutionAborted(RuntimeError):
    """An executor stopped early because ``should_stop`` returned True.

    Raised by the in-process and pooled executors between cells when the
    caller's stop predicate fires — a worker whose lease was stolen
    must abandon the shard rather than keep writing to a store another
    worker now owns.  Cells emitted before the abort are already
    persisted by the caller; nothing is rolled back.
    """


def cell_components(cells: Sequence[Cell]) -> list[list[Cell]]:
    """Group cells into chain components, deterministically ordered.

    Cells connected through ``after`` links *within the set* form one
    component (a warm-fabric chain; links to keys outside the set do
    not merge components — those predecessors are cached and shipped
    as upstream results).  Components are sorted by their smallest
    member key and each component's cells are in dependency order, so
    the grouping is a pure function of the cell set — the property the
    shard partition needs for crash-resume stability.
    """
    parent = {cell.key: cell.key for cell in cells}

    def find(key: str) -> str:
        while parent[key] != key:
            parent[key] = parent[parent[key]]
            key = parent[key]
        return key

    for cell in cells:
        if cell.after is not None and cell.after in parent:
            root_a, root_b = find(cell.key), find(cell.after)
            if root_a != root_b:
                # Attach the larger root under the smaller, so every
                # component's root is its minimum key.
                parent[max(root_a, root_b)] = min(root_a, root_b)
    groups: dict[str, list[Cell]] = {}
    for cell in cells:
        groups.setdefault(find(cell.key), []).append(cell)
    return [order_cells(groups[root]) for root in sorted(groups)]


def partition_cells(cells: Sequence[Cell], n_shards: int) -> list[list[Cell]]:
    """Deterministic round-robin partition over chain components.

    Components (single cells, or whole warm-fabric chains — a chain
    never splits across shards) are ordered by their smallest key and
    dealt round-robin, which makes the partition a pure function of
    the cell *set* (not its submission order): re-generating shard
    manifests for the same matrix always assigns every cell to the
    same shard — which is what lets a crashed shard resume against its
    old store.  For chainless matrices this reduces exactly to the
    historical key-sorted round-robin over individual cells.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    shards: list[list[Cell]] = [[] for _ in range(n_shards)]
    for index, component in enumerate(cell_components(cells)):
        shards[index % n_shards].extend(component)
    return shards


def _component_tasks(
    cells: Sequence[Cell], upstream: Mapping[str, object]
) -> list[tuple[list[Cell], dict[str, object]]]:
    """Pair each chain component with the upstream results it needs."""
    keys = {cell.key for cell in cells}
    return [
        (
            component,
            {
                cell.after: _upstream_of(cell, upstream)
                for cell in component
                if cell.after is not None and cell.after not in keys
            },
        )
        for component in cell_components(cells)
    ]


def _upstream_of(cell: Cell, results: Mapping[str, object]) -> object:
    """A chained cell's predecessor result; ``None`` for an independent one."""
    if cell.after is None:
        return None
    if cell.after not in results:
        raise ValueError(
            f"cell {cell.key!r} needs predecessor "
            f"{cell.after!r}, which is neither pending nor "
            "available as a cached upstream result"
        )
    return results[cell.after]


def _run_cell(
    cell: Cell,
    results: dict[str, object],
    emit: EmitFn,
    on_provenance: Callable[[str, dict], None] | None,
) -> None:
    """Run one cell, record its result and provenance, emit it."""
    upstream = _upstream_of(cell, results)
    t0 = time.perf_counter()
    result = cell.run() if cell.after is None else cell.run(upstream)
    results[cell.key] = result
    if on_provenance is not None:
        on_provenance(
            cell.key, cell_provenance(time.perf_counter() - t0, result)
        )
    emit(cell, result, False)


def _before_cell(cell: Cell) -> None:
    """Fire the armed chaos injector's per-cell hook, if any."""
    from repro.runtime import chaos

    monkey = chaos.active_injector()
    if monkey is not None:
        monkey.before_cell(cell.key)


def _run_batch(
    form: Callable | None,
    cells: Sequence[Cell],
    results: dict[str, object],
    emit: EmitFn,
    on_provenance: Callable[[str, dict], None] | None,
    in_flight: Callable[[Sequence[str]], None] | None = None,
) -> None:
    """Run ``cells`` through their batched ``form``, else one at a time.

    A batch that raises is rerun one cell at a time, so the cells
    before the failing one land and the error raised is the failing
    cell's own — exactly what a one-at-a-time run leaves behind.  When
    every cell then succeeds alone, those results stand and a
    :class:`RuntimeWarning` reports that the batched form diverged.
    An injected chaos fault lands the cells before it one at a time,
    then re-raises.  A batch's per-cell provenance is its wall clock
    split evenly: the cells advance in lockstep, so no finer
    attribution exists.

    ``in_flight(keys)`` is told the keys of a lockstep batch before
    its first chaos hook fires, and ``in_flight(())`` once the batch
    has returned or raised: a process that dies in between died with
    all of ``keys`` running, so no single culprit is known.
    """
    if form is None or len(cells) < 2:
        for cell in cells:
            _before_cell(cell)
            _run_cell(cell, results, emit, on_provenance)
        return
    if in_flight is not None:
        in_flight([cell.key for cell in cells])
    for index, cell in enumerate(cells):
        try:
            _before_cell(cell)
        except Exception:
            # The injected fault is this cell's: land the cells before
            # it, as a one-at-a-time run would.
            if in_flight is not None:
                in_flight(())
            for done in cells[:index]:
                _run_cell(done, results, emit, on_provenance)
            raise
    upstreams = [_upstream_of(cell, results) for cell in cells]
    t0 = time.perf_counter()
    try:
        batch_results = form([cell.payload for cell in cells], upstreams)
    except Exception as exc:
        batch_results = None
        error = exc
    finally:
        if in_flight is not None:
            in_flight(())
    share = (time.perf_counter() - t0) / len(cells)
    if batch_results is None:
        for cell in cells:
            _run_cell(cell, results, emit, on_provenance)
        warnings.warn(
            f"the batched form of {cells[0].fn} raised {error!r} on "
            f"{len(cells)} cells from {cells[0].key!r}, which all ran "
            "alone; their serial results stand",
            RuntimeWarning,
            stacklevel=2,
        )
        return
    if len(batch_results) != len(cells):
        raise ValueError(
            f"batched form returned {len(batch_results)} results "
            f"for {len(cells)} cells"
        )
    for cell, result in zip(cells, batch_results):
        results[cell.key] = result
        if on_provenance is not None:
            on_provenance(cell.key, cell_provenance(share, result))
        emit(cell, result, False)


class BatchExecutor:
    """Run cells in the current process; :func:`executor_for`'s one-worker pick.

    This is the loop every cell runs through.
    :class:`~repro.runtime.campaign.CampaignRunner`,
    :class:`~repro.runtime.campaign.Campaign` at ``workers=1``,
    :func:`~repro.runtime.worker.run_manifest` at one worker (so
    ``repro worker`` and ``repro scenario --store``) and every
    :class:`ProcessPoolExecutor` child run it.  ``batch_size=1`` makes
    every batch one cell: that is the one-at-a-time reference.

    A cell function may declare a *batched form* as its ``batched``
    attribute: ``fn.batched(payloads, upstreams)`` returns one result
    per payload, bit-identical to ``fn(payload[, upstream])`` for each
    (``run_scenario_payload.batched`` and ``run_serving_payload.batched``
    advance their cells together through
    :mod:`repro.simulator.multistream`).  Walking the cells in
    dependency order, this executor gathers runs of consecutive
    independent cells that share a batched form into batches of up to
    ``batch_size`` and hands each to that form.  Warm-fabric chains
    (a successor needs its predecessor's *final* fabric), cells whose
    function has no batched form (the figure replay cells) and
    one-cell batches run one at a time.

    Because batches follow submission order, the cells stored when a
    cell fails are exactly those a one-at-a-time run would have
    stored: a batch that raises is rerun one cell at a time (see
    :func:`_run_batch`).  Two between-batch control hooks are
    consulted right before each batch runs: ``should_stop()`` abandons
    the rest of the shard (lease lost) by raising
    :class:`ExecutionAborted`, and ``skip(cell)`` revokes a cell (the
    coordinator stole its chain).  A skipped cell's chained successors
    are skipped transitively — a chain is revoked whole — and each
    lands one ``on_skip(cell)`` callback so the caller can account for
    it.  Chaos injection fires per cell before its batch, so a crash
    loses at most one batch.  A crash is not a raise, though: a
    process killed mid-batch dies with every cell of the batch
    running.  ``in_flight(keys)`` hears each lockstep batch's keys
    before it starts and ``in_flight(())`` after, so
    :func:`~repro.runtime.worker.run_manifest` can record them and its
    next run can go one cell at a time to find the culprit.
    """

    def __init__(self, batch_size: int = 32) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.batch_size = batch_size

    def run(
        self,
        cells: Sequence[Cell],
        emit: EmitFn,
        upstream: Mapping[str, object] | None = None,
        on_provenance: Callable[[str, dict], None] | None = None,
        skip: Callable[[Cell], bool] | None = None,
        should_stop: Callable[[], bool] | None = None,
        on_skip: Callable[[Cell], None] | None = None,
        in_flight: Callable[[Sequence[str]], None] | None = None,
        **_: object,
    ) -> None:
        results: dict[str, object] = dict(upstream or {})
        skipped: set[str] = set()
        for batch, form in self._batches(order_cells(cells)):
            if should_stop is not None and should_stop():
                raise ExecutionAborted(
                    f"execution stopped before cell {batch[0].key!r}"
                )
            live = []
            for cell in batch:
                if (cell.after in skipped) or (
                    skip is not None and skip(cell)
                ):
                    skipped.add(cell.key)
                    if on_skip is not None:
                        on_skip(cell)
                else:
                    live.append(cell)
            _run_batch(form, live, results, emit, on_provenance, in_flight)

    def _batches(self, ordered: Sequence[Cell]):
        """``(cells, batched form or None)`` groups, in run order."""
        chained = {
            cell.key
            for component in cell_components(ordered)
            if len(component) > 1
            for cell in component
        }
        forms: dict[str, Callable | None] = {}
        batch: list[Cell] = []
        form = None
        for cell in ordered:
            cell_form = None
            if cell.key not in chained:
                if cell.fn not in forms:
                    forms[cell.fn] = _batched_form(cell.fn)
                cell_form = forms[cell.fn]
            if batch and (
                cell_form is None
                or cell_form is not form
                or len(batch) == self.batch_size
            ):
                yield batch, form
                batch = []
            batch.append(cell)
            form = cell_form
        if batch:
            yield batch, form


def _batched_form(fn_ref: str) -> Callable | None:
    """The ``batched`` attribute of the cell function ``fn_ref`` names.

    A reference that does not resolve has no batched form; the cell
    then runs alone and reports the error itself, in turn.
    """
    try:
        fn = resolve_ref(fn_ref)
    except (ImportError, AttributeError, TypeError, ValueError):
        return None
    return getattr(fn, "batched", None)


def _run_component(
    task: tuple[list[Cell], dict[str, object]],
) -> list[tuple[str, object, dict]]:
    """Pool target: run one :func:`_component_tasks` task one cell at a time.

    Returns ``(key, result, provenance)`` triples, the provenance
    measured in this child, where chaos also re-arms from the env.
    """
    cells, upstream = task
    provenance: dict[str, dict] = {}
    done: list[tuple[str, object, dict]] = []

    def emit(cell: Cell, result: object, _: bool) -> None:
        done.append((cell.key, result, provenance[cell.key]))

    BatchExecutor(1).run(
        cells, emit, upstream=upstream, on_provenance=provenance.__setitem__
    )
    return done


def executor_for(workers: int) -> "BatchExecutor | ProcessPoolExecutor":
    """``BatchExecutor()`` for one worker, else a pool of ``workers``.

    The one place a worker count chooses between in-process and pooled
    execution; ``workers < 1`` raises :class:`ValueError`.
    """
    return BatchExecutor() if workers == 1 else ProcessPoolExecutor(workers)


class ProcessPoolExecutor:
    """Chunked multiprocessing pool, results emitted as they arrive.

    The pool's unit of work is a chain component, so a warm-fabric
    chain runs start-to-finish inside one worker process while
    independent cells (and independent chains) still parallelize.
    Children run it through ``BatchExecutor(1)``; a lone cell runs so
    in this process.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers

    def run(
        self,
        cells: Sequence[Cell],
        emit: EmitFn,
        upstream: Mapping[str, object] | None = None,
        on_provenance: Callable[[str, dict], None] | None = None,
        skip: Callable[[Cell], bool] | None = None,
        should_stop: Callable[[], bool] | None = None,
        on_skip: Callable[[Cell], None] | None = None,
        in_flight: Callable[[Sequence[str]], None] | None = None,
        **_: object,
    ) -> None:
        if len(cells) <= 1:
            BatchExecutor(1).run(
                cells,
                emit,
                upstream=upstream,
                on_provenance=on_provenance,
                skip=skip,
                should_stop=should_stop,
                on_skip=on_skip,
                in_flight=in_flight,
            )
            return
        by_key = {cell.key: cell for cell in cells}
        tasks = _component_tasks(cells, dict(upstream or {}))
        if skip is not None:
            # Revocation is component-granular here: a chain already
            # dispatched to a pool process cannot be recalled, so the
            # skip predicate is evaluated once, at dispatch.  Only
            # fully revoked components are dropped — a half-revoked one
            # (which a whole-chain steal never produces) runs intact.
            kept = []
            for component, need in tasks:
                if all(skip(cell) for cell in component):
                    if on_skip is not None:
                        for cell in component:
                            on_skip(cell)
                else:
                    kept.append((component, need))
            tasks = kept
            if not tasks:
                return
        import multiprocessing  # only pooled runs pay for it

        n_workers = min(self.workers, len(tasks))
        chunksize = max(1, len(tasks) // (n_workers * 4))
        with multiprocessing.Pool(n_workers) as pool:
            for triples in pool.imap_unordered(
                _run_component, tasks, chunksize=chunksize
            ):
                if should_stop is not None and should_stop():
                    pool.terminate()
                    raise ExecutionAborted(
                        "execution stopped between pool results"
                    )
                for key, result, prov in triples:
                    if on_provenance is not None:
                        on_provenance(key, prov)
                    emit(by_key[key], result, False)


class ShardExecutor:
    """Partition a campaign into per-machine shard manifests and merge.

    ``run`` drives the full round trip locally — write manifests,
    execute each through the worker entry point, merge the shard
    stores, decode results — which is exactly what the distributed
    deployment does by hand::

        # coordinator
        campaign.shard_manifests("shards/", n_shards=4)
        # one machine per manifest
        python -m repro worker shards/shard-0.json --store shard0-store
        # coordinator again
        python -m repro merge shard0-store ... --store campaign-store

    ``via_subprocess=True`` makes ``run`` spawn the real CLI instead of
    calling the worker in-process, so tests and CI can exercise the
    shipped command line end to end.
    """

    def __init__(
        self,
        n_shards: int,
        work_dir: str | Path | None = None,
        workers_per_shard: int = 1,
        via_subprocess: bool = False,
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.n_shards = n_shards
        self.work_dir = Path(work_dir) if work_dir is not None else None
        self.workers_per_shard = workers_per_shard
        self.via_subprocess = via_subprocess

    def run(
        self,
        cells: Sequence[Cell],
        emit: EmitFn,
        codec=None,
        store: ArtifactStore | None = None,
        upstream: Mapping[str, object] | None = None,
        upstream_cells: Mapping[str, Cell] | None = None,
        **_: object,
    ) -> None:
        # Imported here, not at module top: worker imports executors.
        from repro.runtime.worker import run_manifest, write_shard_manifests

        if codec is None:
            raise ValueError(
                "ShardExecutor needs a codec: shard workers persist "
                "results as store artifacts, so the campaign must know "
                "how to encode and decode them"
            )
        work_dir = self.work_dir
        staging = None
        if work_dir is None:
            staging = tempfile.TemporaryDirectory(prefix="repro-shards-")
            work_dir = Path(staging.name)
        try:
            work_dir.mkdir(parents=True, exist_ok=True)
            campaign_store = store
            if store is None:
                store = ArtifactStore(work_dir / "merged-store")
            upstream_keys = set(upstream_cells or {})
            manifests = write_shard_manifests(
                cells,
                n_shards=self.n_shards,
                directory=work_dir,
                encode_ref=codec.encode_ref,
                decode_ref=codec.decode_ref,
                context_cells=list((upstream_cells or {}).values()),
            )
            shard_stores = []
            for index, manifest in enumerate(manifests):
                shard_root = work_dir / f"shard-{index}-store"
                # A chained cell whose predecessor was a cache hit
                # resumes from its shard store: copy the predecessor
                # artifact in so the worker finds it exactly as if a
                # previous worker run had produced it.  The manifest is
                # the single source of truth for which cached
                # predecessors a shard needs — write_shard_manifests
                # prepended their context entries.
                entries = json.loads(manifest.read_text())["cells"]
                cached_needed = sorted(
                    entry["key"]
                    for entry in entries
                    if entry["key"] in upstream_keys
                )
                if cached_needed:
                    if campaign_store is None:
                        raise ValueError(
                            "chained cells with cached predecessors "
                            "require a campaign store to ship the "
                            "predecessor artifacts to shard workers"
                        )
                    ArtifactStore(shard_root).merge_from(
                        campaign_store, keys=cached_needed
                    )
                if self.via_subprocess:
                    self._run_worker_cli(manifest, shard_root)
                else:
                    run_manifest(
                        manifest,
                        shard_root,
                        workers=self.workers_per_shard,
                        echo=None,
                    )
                shard_stores.append(ArtifactStore(shard_root))
            # Adopt only this run's cells: a reused work_dir may hold
            # shard stores from an earlier, different matrix, and those
            # artifacts must not leak into the campaign store (which
            # has to stay byte-identical to the reference run).
            store.merge_from(shard_stores, keys=[c.key for c in cells])
            manifest = store.manifest()
            for cell in cells:
                emit(
                    cell,
                    codec.decode(
                        cell, store.get(cell.key, entry=manifest[cell.key])
                    ),
                    True,
                )
        finally:
            if staging is not None:
                staging.cleanup()

    def _run_worker_cli(self, manifest: Path, store_root: Path) -> None:
        import subprocess  # only the via_subprocess branch pays for it

        completed = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "worker",
                str(manifest),
                "--store",
                str(store_root),
                "--workers",
                str(self.workers_per_shard),
            ],
            capture_output=True,
            text=True,
        )
        if completed.returncode != 0:
            raise RuntimeError(
                f"shard worker failed for {manifest}:\n{completed.stderr}"
            )
