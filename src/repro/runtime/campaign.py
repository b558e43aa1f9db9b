"""The campaign runner: cache-aware execution of a cell matrix.

:class:`CampaignRunner` is the one orchestration loop every consumer
layer shares — DAG scenario sweeps, serving sweeps, figure replay
sweeps, and the bench suite's provenance pass all reduce to:

1. snapshot the store's manifest once (probing per cell would re-parse
   it for every cell of a large matrix);
2. decode cached cells, hand pending ones to the executor;
3. persist each computed result the moment it arrives, so a failing
   cell or a killed sweep never discards finished work.

The runner is generic over the result type: an
:class:`ArtifactCodec` pairs the encoder (result -> store documents +
manifest metadata) with the decoder (cell + documents -> result), both
referenced by import path so shard manifests can name them across
machine boundaries.

The scenario and serving layers share the config-level pieces too:
:class:`Campaign` (configs to cells, executor, shard manifests, one
runner pass), :func:`config_cells`, :func:`config_fields`,
:func:`chain_configs` and :func:`axis_seed`.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from repro.runtime.cell import Cell, resolve_ref
from repro.runtime.executors import BatchExecutor, executor_for
from repro.runtime.store import ArtifactStore
from repro.runtime.worker import persist_result, write_shard_manifests

__all__ = [
    "ArtifactCodec",
    "Campaign",
    "CampaignOutcome",
    "CampaignRunner",
    "axis_seed",
    "chain_configs",
    "config_cells",
    "config_fields",
]


@dataclass(frozen=True)
class ArtifactCodec:
    """How a cell result crosses the store boundary, by reference.

    ``encode_ref`` names ``fn(result) -> (documents, meta)`` and
    ``decode_ref`` names ``fn(cell, documents) -> result``; both must
    be module-level callables so a shard manifest (which carries only
    the encode reference) stays executable on any machine with the
    package installed.
    """

    encode_ref: str
    decode_ref: str

    def encode(self, result: Any) -> tuple[dict, dict]:
        return resolve_ref(self.encode_ref)(result)

    def decode(self, cell: Cell, documents: Mapping[str, Mapping]) -> Any:
        return resolve_ref(self.decode_ref)(cell, documents)


@dataclass
class CampaignOutcome:
    """Everything one runner pass produced, cache hits included."""

    results: dict[str, Any]
    cached_ids: tuple[str, ...]
    computed_ids: tuple[str, ...]

    def aggregate_rows(self, keys: Sequence[str] | None = None) -> list[dict]:
        """Sweep-table rows in ``keys`` order (default: sorted by key)."""
        if keys is None:
            keys = sorted(self.results)
        return [self.results[key].aggregate_row() for key in keys]

    @property
    def cache_hit_fraction(self) -> float:
        total = len(self.cached_ids) + len(self.computed_ids)
        return len(self.cached_ids) / total if total else 0.0


class CampaignRunner:
    """Run a cell matrix through an executor, caching via a store.

    ``executor`` defaults to a
    :class:`~repro.runtime.executors.BatchExecutor`.
    """

    def __init__(
        self,
        cells: Sequence[Cell],
        store: ArtifactStore | None = None,
        codec: ArtifactCodec | None = None,
        executor=None,
    ) -> None:
        if not cells:
            raise ValueError("a campaign needs at least one cell")
        keys = [cell.key for cell in cells]
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate cell keys in the matrix")
        if store is not None and codec is None:
            raise ValueError(
                "a store-backed campaign needs a codec to encode and "
                "decode cell results"
            )
        self.cells = list(cells)
        self.store = store
        self.codec = codec
        self.executor = executor if executor is not None else BatchExecutor()

    def run(self) -> CampaignOutcome:
        """Execute pending cells, reload cached ones."""
        # One manifest snapshot serves both the pending/cached split
        # and every cached cell's document reads.
        manifest = self.store.manifest() if self.store is not None else {}
        cached: dict[str, Any] = {}
        pending: list[Cell] = []
        for cell in self.cells:
            entry = manifest.get(cell.key)
            if entry is not None:
                cached[cell.key] = self.codec.decode(
                    cell, self.store.get(cell.key, entry=entry)
                )
            else:
                pending.append(cell)

        # Chained cells must find their predecessor in this same matrix
        # (pending, so the executor runs it first, or cached, so its
        # decoded result ships as an upstream seed).  Catching a
        # dangling link here gives a clear error before any cell runs.
        pending_keys = {cell.key for cell in pending}
        for cell in pending:
            if (
                cell.after is not None
                and cell.after not in pending_keys
                and cell.after not in cached
            ):
                raise ValueError(
                    f"cell {cell.key!r} chains after {cell.after!r}, "
                    "which is not part of this campaign's matrix"
                )

        computed: dict[str, Any] = {}
        provenance: dict[str, dict] = {}

        def emit(cell: Cell, result: Any, already_stored: bool) -> None:
            if not already_stored and self.store is not None:
                persist_result(
                    self.store,
                    cell.key,
                    self.codec.encode,
                    result,
                    provenance.get(cell.key),
                )
            computed[cell.key] = result

        if pending:
            by_key = {cell.key: cell for cell in self.cells}
            self.executor.run(
                pending,
                emit,
                codec=self.codec,
                store=self.store,
                upstream=cached,
                upstream_cells={key: by_key[key] for key in cached},
                on_provenance=provenance.__setitem__,
            )

        results = dict(cached)
        results.update(computed)
        return CampaignOutcome(
            results=results,
            cached_ids=tuple(sorted(cached)),
            computed_ids=tuple(sorted(computed)),
        )


class Campaign:
    """Runs a config matrix, caching cells in a trace repository.

    A thin front end over :class:`CampaignRunner`: cells store as they
    complete, so an interrupted sweep keeps its finished work.
    ``executor`` overrides the strategy
    :func:`~repro.runtime.executors.executor_for` derives from
    ``workers`` (the batching single-process executor for 1, a chunked
    process pool otherwise); use
    :meth:`shard_manifests` with the ``repro worker`` / ``repro merge``
    CLI for multi-machine runs.  Subclasses set :attr:`codec` and
    :attr:`make_cells`.
    """

    #: The layer's store codec.
    codec: ArtifactCodec
    #: Maps configs to cells keyed by each config's content hash.
    make_cells: Callable[[list], list[Cell]]

    def __init__(
        self, configs: Sequence, repository=None, workers: int = 1, executor=None
    ) -> None:
        derived = executor_for(workers)  # refuses workers < 1 either way
        self.configs = list(configs)
        self.cells = self.make_cells(self.configs)
        self.runner = CampaignRunner(
            self.cells,
            store=repository.artifacts if repository else None,
            codec=self.codec,
            executor=executor if executor is not None else derived,
        )

    def shard_manifests(self, directory: str | Path, n_shards: int) -> list[Path]:
        """Write per-machine shard manifests for this matrix.

        Each manifest runs via ``python -m repro worker <manifest>
        --store <dir>``; the resulting stores merge back with
        ``python -m repro merge``.
        """
        return write_shard_manifests(
            self.cells,
            n_shards=n_shards,
            directory=directory,
            encode_ref=self.codec.encode_ref,
            decode_ref=self.codec.decode_ref,
        )

    def run(self) -> CampaignOutcome:
        """Execute pending cells, reload cached ones.

        Raises :class:`~repro.measurement.repository.RepositoryCorruptionError`
        when a cached cell's files have gone missing behind the
        manifest's back.
        """
        # The repository layer builds on the runtime: import at call time.
        from repro.measurement.repository import run_wrapping_corruption

        return run_wrapping_corruption(self.runner)


@functools.cache
def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def config_fields(config) -> dict[str, Any]:
    """A config dataclass as one flat ``{field name: value}`` dict.

    Every field of a campaign config is a JSON scalar, so this equals
    :func:`dataclasses.asdict` without its recursion and deep copies;
    it is what cell payloads and config ids hash.  A nested dataclass
    field would stay an object here, and hashing it through
    :func:`~repro.runtime.cell.content_id` would raise.
    """
    return {name: getattr(config, name) for name in _field_names(type(config))}


def config_cells(configs: Sequence, fn: str, key: Callable[[Any], str]) -> list[Cell]:
    """Configs as cells running ``fn``, keyed by ``key`` (a content hash).

    A config's ``predecessor`` becomes the cell's ``after`` link, which
    keeps a warm-fabric chain ordered, and on one shard, under every
    executor.
    """
    return [
        Cell(
            fn=fn,
            payload=config_fields(config),
            key=key(config),
            after=config.predecessor,
        )
        for config in configs
    ]


def chain_configs(base, length: int, key: Callable[[Any], str]) -> list:
    """A warm-fabric chain of ``length`` configs rooted at ``base``.

    Link ``i`` names link ``i-1`` (by ``key``, its content hash) as its
    predecessor and derives a distinct seed, so each link is a
    *different* tenant arriving on the fabric the previous tenant left
    warm: shaper budgets, stream ages, and RNG positions all carry
    over.  Chain ids are stable: each link's key covers its
    predecessor's, so extending a chain never invalidates its prefix.
    """
    if length < 1:
        raise ValueError("a chain needs at least one cell")
    configs = [base]
    for i in range(1, length):
        configs.append(
            replace(base, seed=base.seed + i, predecessor=key(configs[-1]))
        )
    return configs


def axis_seed(seed: int, *axes) -> int:
    """A matrix cell's seed from the base seed and its own axis values.

    The seed hashes the cell's axis values, not its position in the
    cross product, so cells are statistically independent yet stable:
    extending an axis later leaves every existing cell's seed, and so
    its cache key, unchanged.
    """
    cell_key = json.dumps([int(seed), *axes])
    return seed + int.from_bytes(hashlib.sha256(cell_key.encode()).digest()[:4], "big")
