"""Serving campaign cells: content-hashed configs, codec, matrices.

The serving counterpart of :mod:`repro.scenarios.orchestrate`: one
:class:`ServingConfig` fully determines one serving run (provider
incarnations, topology, arrival draws, compute noise — all from one
seeded generator), hashes to a stable ``srv-…`` id, and executes as a
:class:`~repro.runtime.cell.Cell` under every executor — serial,
process pool, the batched multistream driver (serving states ride
:func:`repro.simulator.multistream.run_cores` exactly like DAG
streams), or per-machine shard manifests via ``repro worker`` /
``repro merge``.

The experiment this layer exists for is the variability-meets-serving
question: the pseudo-provider ``"fixed"`` gives every node a
:class:`~repro.netmodel.base.ConstantRateModel` at the HPC-cloud-class
median rate — a *clean* fabric with the same mean capacity as the
resampling ``"hpccloud"`` incarnations — so a matrix over
``("hpccloud", "fixed")`` isolates whether shaper *variability* (not
mean bandwidth) turns a passing SLO into p99/p99.9 violation windows
under burst traffic.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Mapping

import numpy as np

from repro.cloud.providers import default_providers
from repro.measurement.repository import (
    TraceRepository,
    run_wrapping_corruption,
)
from repro.netmodel.base import ConstantRateModel
from repro.netmodel.state import model_from_state, model_state_dict
from repro.runtime.campaign import ArtifactCodec, CampaignRunner
from repro.runtime.cell import Cell
from repro.runtime.executors import ProcessPoolExecutor, SerialExecutor
from repro.runtime.worker import write_shard_manifests
from repro.serving.arrivals import (
    diurnal_process,
    flash_crowd_process,
    poisson_process,
)
from repro.serving.slo import SloPolicy, SloReport
from repro.serving.state import ServingState
from repro.serving.topology import ServiceTopology
from repro.simulator.cluster import Cluster, NodeSpec
from repro.simulator.engine import SparkEngine

__all__ = [
    "ServingConfig",
    "ServingCellResult",
    "ServingCampaign",
    "run_serving",
    "prepare_serving",
    "finish_serving",
    "run_servings_batched",
    "run_serving_payload",
    "run_serving_payloads_batched",
    "serving_batch_executor",
    "serving_matrix",
    "chain_serving",
    "serving_cells",
    "encode_serving_result",
    "decode_serving_result",
    "SERVING_CODEC",
    "SERVING_DEFAULT_INSTANCES",
    "FIXED_RATE_GBPS",
]

#: Clean-fabric egress rate for the ``"fixed"`` pseudo-provider: the
#: HPC-cloud-class median (its resampled marginals span ~7.7-10.4
#: Gbps), so fixed-vs-hpccloud contrasts variability, not mean capacity.
FIXED_RATE_GBPS = 9.0

#: Default instance type per provider for serving matrices.
SERVING_DEFAULT_INSTANCES: dict[str, str] = {
    "amazon": "c5.xlarge",
    "google": "gce-4core",
    "hpccloud": "hpccloud-8core",
    "fixed": "fixed-9gbps",
}

_ARRIVALS: tuple[str, ...] = ("poisson", "diurnal", "flash")
_TOPOLOGIES: tuple[str, ...] = ("line", "fanout", "three_tier")


@dataclass(frozen=True)
class ServingConfig:
    """One serving cell, fully determining its result."""

    provider_name: str = "hpccloud"
    instance_name: str = "hpccloud-8core"
    n_nodes: int = 8
    #: Call-tree shape (see :class:`~repro.serving.topology.ServiceTopology`).
    topology: str = "three_tier"
    #: Chain length for ``line``, tree depth for ``fanout``.
    depth: int = 3
    #: Fan-out per level for ``fanout`` (ignored otherwise).
    breadth: int = 2
    arrival: str = "poisson"
    #: Open-loop request rate (requests/second); 0 disables the
    #: arrival process (closed-loop-only cells).
    rate_rps: float = 20.0
    duration_s: float = 120.0
    #: Closed-loop user pool size (0 for open-loop-only cells).
    users: int = 0
    think_s: float = 1.0
    payload_scale: float = 1.0
    #: SLO targets in milliseconds; 0 disables that quantile's gate.
    slo_p50_ms: float = 0.0
    slo_p99_ms: float = 250.0
    slo_p999_ms: float = 0.0
    slo_window_s: float = 30.0
    seed: int = 0
    #: ``serving_id`` of the cell whose final fabric state seeds this
    #: cell's run (warm-fabric chains); ``None`` for a fresh fabric.
    predecessor: str | None = None

    def __post_init__(self) -> None:
        # Normalize numerics so equal configs hash equally (the same
        # contract as ScenarioConfig).
        for name in (
            "rate_rps",
            "duration_s",
            "think_s",
            "payload_scale",
            "slo_p50_ms",
            "slo_p99_ms",
            "slo_p999_ms",
            "slo_window_s",
        ):
            object.__setattr__(self, name, float(getattr(self, name)))
        for name in ("n_nodes", "depth", "breadth", "users", "seed"):
            object.__setattr__(self, name, int(getattr(self, name)))
        if self.arrival not in _ARRIVALS:
            raise ValueError(
                f"unknown arrival process {self.arrival!r}; "
                f"expected one of {_ARRIVALS}"
            )
        if self.topology not in _TOPOLOGIES:
            raise ValueError(
                f"unknown topology {self.topology!r}; "
                f"expected one of {_TOPOLOGIES}"
            )
        if self.n_nodes < 2:
            raise ValueError("n_nodes must be >= 2")
        if self.depth < 1 or self.breadth < 1:
            raise ValueError("depth and breadth must be >= 1")
        # The comparisons are written so that NaN fails them.
        if not 0.0 <= self.rate_rps < math.inf:
            raise ValueError(
                f"rate_rps must be finite and non-negative, got {self.rate_rps}"
            )
        if self.users < 0:
            raise ValueError("users cannot be negative")
        if self.rate_rps == 0 and self.users == 0:
            raise ValueError("a serving cell needs load: rate_rps, users, or both")
        for name in ("duration_s", "payload_scale", "slo_window_s"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        for name in ("think_s", "slo_p50_ms", "slo_p99_ms", "slo_p999_ms"):
            value = getattr(self, name)
            if not value >= 0.0:
                raise ValueError(f"{name} must be non-negative, got {value}")
        if self.predecessor is not None and not self.predecessor.startswith(
            "srv-"
        ):
            raise ValueError(
                f"predecessor must be a serving id, got {self.predecessor!r}"
            )

    @property
    def serving_id(self) -> str:
        """Content hash of the config: the repository cache key."""
        payload_dict = asdict(self)
        if self.predecessor is None:
            payload_dict.pop("predecessor")
        payload = json.dumps(payload_dict, sort_keys=True)
        digest = hashlib.sha256(payload.encode()).hexdigest()[:16]
        return f"srv-{digest}"

    def build_topology(self) -> ServiceTopology:
        if self.topology == "line":
            return ServiceTopology.line(self.depth)
        if self.topology == "fanout":
            return ServiceTopology.fanout(self.breadth, self.depth)
        return ServiceTopology.three_tier()

    def slo_policy(self) -> SloPolicy | None:
        """The cell's gate, or ``None`` when every target is disabled."""
        if max(self.slo_p50_ms, self.slo_p99_ms, self.slo_p999_ms) == 0:
            return None
        return SloPolicy(
            p50_ms=self.slo_p50_ms,
            p99_ms=self.slo_p99_ms,
            p999_ms=self.slo_p999_ms,
            window_s=self.slo_window_s,
        )


@dataclass
class ServingCellResult:
    """One serving cell's outcome, store-round-trippable."""

    config: ServingConfig
    n_requests: int
    n_completed: int
    makespan_s: float
    #: Run-level latency summary (count/mean/max/sum + P² quantiles).
    latency: dict
    #: Tumbling-window quantile rows the SLO gate evaluated.
    windows: list
    slo: SloReport | None
    #: Per-node link-model snapshots at finish (chain seeds).
    fabric_state: list | None = None
    cached: bool = False
    #: Event-loop steps (provenance only; never stored in documents).
    n_steps: int | None = None

    @property
    def slo_violations(self) -> int:
        """Violation count (0 without a policy) — provenance hook."""
        return 0 if self.slo is None else len(self.slo.violations)

    @property
    def slo_passed(self) -> bool | None:
        return None if self.slo is None else self.slo.passed

    def aggregate_row(self) -> dict:
        """One sweep-table row: config axes plus latency/SLO verdicts."""

        def ms(key: str):
            value = self.latency.get(key)
            if value is None or (
                isinstance(value, float) and value != value
            ):
                return None
            return round(value * 1000.0, 3)

        return {
            "serving": self.config.serving_id,
            "provider": self.config.provider_name,
            "instance": self.config.instance_name,
            "topology": self.config.topology,
            "arrival": self.config.arrival,
            "rate_rps": self.config.rate_rps,
            "users": self.config.users,
            "chained": self.config.predecessor is not None,
            "n_requests": self.n_requests,
            "p50_ms": ms("p50"),
            "p99_ms": ms("p99"),
            "p999_ms": ms("p999"),
            "max_ms": ms("max_s"),
            "slo_pass": self.slo_passed,
            "slo_violations": self.slo_violations,
        }


def _build_arrivals(config: ServingConfig, rng: np.random.Generator):
    """The cell's open-loop arrival iterator (``None`` when rate is 0).

    The diurnal and flash shapes derive every parameter from the
    configured rate and duration — ``rate_rps`` is the *peak*: diurnal
    swings between a quarter of it and all of it over one full cycle;
    flash idles at a fifth of it and spikes to it for the middle fifth
    of the run.
    """
    if config.rate_rps == 0:
        return None
    if config.arrival == "diurnal":
        return diurnal_process(
            rng,
            base_rps=config.rate_rps / 4.0,
            peak_rps=config.rate_rps,
            period_s=config.duration_s,
            duration_s=config.duration_s,
        )
    if config.arrival == "flash":
        return flash_crowd_process(
            rng,
            base_rps=config.rate_rps / 5.0,
            spike_rps=config.rate_rps,
            spike_start_s=config.duration_s * 0.4,
            spike_len_s=config.duration_s * 0.2,
            duration_s=config.duration_s,
        )
    return poisson_process(rng, config.rate_rps, config.duration_s)


@dataclass
class _PreparedServing:
    """A cell built and ready to run: the prepare/finish seam.

    :func:`run_serving` is prepare → ``state.execute()`` → finish; the
    batched path swaps the middle for one
    :func:`~repro.simulator.multistream.run_cores` call over many
    cells' states.  All RNG-consuming construction happens in prepare,
    so the two paths are bit-identical per cell.
    """

    config: ServingConfig
    state: ServingState


def prepare_serving(
    config: ServingConfig, upstream: "ServingCellResult | None" = None
) -> _PreparedServing:
    """Build one cell's cluster, fabric, topology, and serving state."""
    rng = np.random.default_rng(config.seed)
    if config.predecessor is not None:
        if upstream is None:
            raise ValueError(
                f"cell {config.serving_id} chains after "
                f"{config.predecessor} but no upstream result was supplied"
            )
        if upstream.fabric_state is None:
            raise ValueError(
                f"predecessor {config.predecessor} carries no fabric state"
            )
        if (
            upstream.config.provider_name != config.provider_name
            or upstream.config.instance_name != config.instance_name
        ):
            raise ValueError(
                f"chained cell {config.serving_id} targets "
                f"{config.provider_name}/{config.instance_name} but its "
                f"predecessor ran {upstream.config.provider_name}/"
                f"{upstream.config.instance_name}; a warm-fabric chain "
                "stays on one provider incarnation"
            )
        if len(upstream.fabric_state) != config.n_nodes:
            raise ValueError(
                f"predecessor fabric has {len(upstream.fabric_state)} "
                f"nodes, this cell needs {config.n_nodes}"
            )
        models = [model_from_state(s) for s in upstream.fabric_state]
    elif config.provider_name == "fixed":
        models = [
            ConstantRateModel(FIXED_RATE_GBPS) for _ in range(config.n_nodes)
        ]
    else:
        provider = default_providers()[config.provider_name]
        models = [
            provider.link_model(config.instance_name, rng)
            for _ in range(config.n_nodes)
        ]
    cluster = Cluster(
        n_nodes=config.n_nodes,
        node_spec=NodeSpec(),
        link_model_factory=lambda node: models[node],
    )
    fabric = cluster.build_fabric()
    engine = SparkEngine(cluster, rng=rng)
    state = ServingState(
        engine,
        config.build_topology(),
        fabric,
        duration_s=config.duration_s,
        # Lazy: arrival gaps draw from the same cell generator as the
        # compute noise, interleaved in event order — deterministic,
        # and identical between the serial and batched drivers.
        arrivals=_build_arrivals(config, rng),
        users=config.users,
        think_s=config.think_s,
        payload_scale=config.payload_scale,
        slo_policy=config.slo_policy(),
    )
    return _PreparedServing(config=config, state=state)


def finish_serving(
    prepared: _PreparedServing, outcome
) -> ServingCellResult:
    """Assemble a :class:`ServingCellResult` from a finished run."""
    return ServingCellResult(
        config=prepared.config,
        n_requests=outcome.n_requests,
        n_completed=outcome.n_completed,
        makespan_s=outcome.makespan_s,
        latency=dict(outcome.latency),
        windows=list(outcome.windows),
        slo=outcome.slo,
        fabric_state=[
            model_state_dict(m) for m in prepared.state.fabric.egress_models
        ],
        n_steps=outcome.n_steps,
    )


def run_serving(
    config: ServingConfig, upstream: "ServingCellResult | None" = None
) -> ServingCellResult:
    """Execute one serving cell end to end (pure function of config)."""
    prepared = prepare_serving(config, upstream=upstream)
    return finish_serving(prepared, prepared.state.execute())


def run_servings_batched(
    configs: "list[ServingConfig]",
    upstreams: "list[ServingCellResult | None] | None" = None,
) -> "list[ServingCellResult]":
    """Run independent serving cells through the lockstep batched driver.

    Bit-identical to ``[run_serving(c, u) for ...]`` per cell; all
    cells' shaper-fleet work batches through one concatenated
    super-fleet per fleet class, exactly like
    :func:`repro.scenarios.orchestrate.run_scenarios_batched`.
    """
    from repro.simulator.multistream import run_cores

    if upstreams is None:
        upstreams = [None] * len(configs)
    if len(upstreams) != len(configs):
        raise ValueError("one upstream entry (or None) per config required")
    prepared = [
        prepare_serving(config, upstream=upstream)
        for config, upstream in zip(configs, upstreams)
    ]
    groups: dict[type, list[int]] = {}
    for index, prep in enumerate(prepared):
        groups.setdefault(type(prep.state.fabric.fleet), []).append(index)
    results: list[ServingCellResult | None] = [None] * len(configs)
    for indices in groups.values():
        outcomes = run_cores([prepared[i].state for i in indices])
        for i, outcome in zip(indices, outcomes):
            results[i] = finish_serving(prepared[i], outcome)
    return results  # type: ignore[return-value]


def chain_serving(base: ServingConfig, length: int) -> list[ServingConfig]:
    """A warm-fabric chain of ``length`` serving cells rooted at ``base``."""
    if length < 1:
        raise ValueError("a chain needs at least one cell")
    configs = [base]
    for i in range(1, length):
        configs.append(
            replace(
                base,
                seed=base.seed + i,
                predecessor=configs[-1].serving_id,
            )
        )
    return configs


def serving_matrix(
    providers: tuple[str, ...] = ("hpccloud", "fixed"),
    arrivals: tuple[str, ...] = ("poisson", "flash"),
    rates_rps: tuple[float, ...] = (20.0,),
    topologies: tuple[str, ...] = ("three_tier",),
    n_nodes: int = 8,
    duration_s: float = 120.0,
    users: int = 0,
    payload_scale: float = 1.0,
    slo_p99_ms: float = 250.0,
    slo_p999_ms: float = 0.0,
    slo_window_s: float = 30.0,
    seed: int = 0,
    instances: dict[str, str] | None = None,
    chain_length: int = 1,
) -> list[ServingConfig]:
    """Cross product of the serving axes, one config per cell.

    Cell seeds derive from the base seed and the cell's own axis values
    (not its position), so extending an axis later never changes a
    pre-existing cell's seed or cache key — the same stability contract
    as :func:`repro.scenarios.orchestrate.scenario_matrix`.
    """
    if chain_length < 1:
        raise ValueError("chain_length must be >= 1")
    instances = {**SERVING_DEFAULT_INSTANCES, **(instances or {})}
    configs = []
    for provider in providers:
        for arrival in arrivals:
            for rate in rates_rps:
                for topology in topologies:
                    cell_key = json.dumps(
                        [
                            int(seed),
                            provider,
                            instances[provider],
                            arrival,
                            float(rate),
                            topology,
                        ]
                    )
                    cell_seed = seed + int.from_bytes(
                        hashlib.sha256(cell_key.encode()).digest()[:4], "big"
                    )
                    base = ServingConfig(
                        provider_name=provider,
                        instance_name=instances[provider],
                        n_nodes=n_nodes,
                        topology=topology,
                        arrival=arrival,
                        rate_rps=rate,
                        duration_s=duration_s,
                        users=users,
                        payload_scale=payload_scale,
                        slo_p99_ms=slo_p99_ms,
                        slo_p999_ms=slo_p999_ms,
                        slo_window_s=slo_window_s,
                        seed=cell_seed,
                    )
                    configs.extend(chain_serving(base, chain_length))
    return configs


# ----------------------------------------------------------------------
# runtime plumbing: cells and the store codec
# ----------------------------------------------------------------------
def run_serving_payload(
    payload: Mapping, upstream: "ServingCellResult | None" = None
) -> ServingCellResult:
    """Cell function: reconstruct the config and run the cell."""
    config = ServingConfig(**payload)
    if upstream is None:
        return run_serving(config)
    return run_serving(config, upstream=upstream)


def run_serving_payloads_batched(
    payloads: "list[Mapping]", upstreams: "list[ServingCellResult | None]"
) -> "list[ServingCellResult]":
    """Batch-runner hook for :class:`repro.runtime.executors.BatchExecutor`."""
    configs = [ServingConfig(**payload) for payload in payloads]
    return run_servings_batched(configs, upstreams)


def serving_batch_executor(batch_size: int = 32):
    """A :class:`~repro.runtime.executors.BatchExecutor` wired for serving."""
    from repro.runtime.executors import BatchExecutor

    return BatchExecutor(run_serving_payloads_batched, batch_size=batch_size)


def encode_serving_result(result: ServingCellResult) -> tuple[dict, dict]:
    """Codec encoder: a serving cell as store documents.

    Everything the aggregate row and the SLO verdict need rides in one
    ``serving`` document; the fabric snapshot travels as its own
    document so chained successors can reload it (the scenario-layer
    convention).  Telemetry arrays and ``n_steps`` are deliberately
    not stored — stored bytes stay independent of sampling resolution
    and engine-internals accounting.
    """
    doc = {
        "n_requests": result.n_requests,
        "n_completed": result.n_completed,
        "makespan_s": result.makespan_s,
        "latency": result.latency,
        "windows": result.windows,
        "slo": None if result.slo is None else result.slo.to_dict(),
    }
    documents = {"serving": doc}
    if result.fabric_state is not None:
        documents["fabric"] = {"models": result.fabric_state}
    return documents, {}


def decode_serving_result(
    cell: Cell, documents: Mapping
) -> ServingCellResult:
    """Codec decoder: rebuild a :class:`ServingCellResult` from the store."""
    config = ServingConfig(**cell.payload)
    doc = documents["serving"]
    slo_doc = doc.get("slo")
    result = ServingCellResult(
        config=config,
        n_requests=int(doc["n_requests"]),
        n_completed=int(doc["n_completed"]),
        makespan_s=float(doc["makespan_s"]),
        latency=dict(doc["latency"]),
        windows=list(doc["windows"]),
        slo=None if slo_doc is None else SloReport.from_dict(slo_doc),
        cached=True,
    )
    fabric_doc = documents.get("fabric")
    if fabric_doc is not None:
        result.fabric_state = list(fabric_doc["models"])
    return result


#: The serving layer's store codec, referenced by import path so shard
#: manifests can name it across machines.
SERVING_CODEC = ArtifactCodec(
    encode_ref="repro.serving.scenario:encode_serving_result",
    decode_ref="repro.serving.scenario:decode_serving_result",
)


def serving_cells(configs: "list[ServingConfig]") -> "list[Cell]":
    """Map serving configs to runtime cells (keyed by ``serving_id``)."""
    return [
        Cell(
            fn="repro.serving.scenario:run_serving_payload",
            payload=asdict(config),
            key=config.serving_id,
            after=config.predecessor,
        )
        for config in configs
    ]


class ServingCampaign:
    """Runs a serving matrix, caching cells in a trace repository.

    The serving twin of
    :class:`~repro.scenarios.orchestrate.ScenarioCampaign`: a thin
    adapter over :class:`~repro.runtime.campaign.CampaignRunner` with
    the serving codec.  Pass ``executor=serving_batch_executor()`` to
    run independent cells through the lockstep batched driver, or use
    :meth:`shard_manifests` with the ``repro worker`` / ``repro
    merge`` CLI for multi-machine runs.
    """

    def __init__(
        self,
        configs: "list[ServingConfig]",
        repository: TraceRepository | None = None,
        workers: int = 1,
        executor=None,
    ) -> None:
        if not configs:
            raise ValueError("a campaign needs at least one serving cell")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        ids = [c.serving_id for c in configs]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate serving configs in the matrix")
        self.configs = list(configs)
        self.repository = repository
        self.workers = workers
        if executor is None:
            executor = (
                SerialExecutor()
                if workers == 1
                else ProcessPoolExecutor(workers)
            )
        self.executor = executor

    @property
    def cells(self) -> "list[Cell]":
        return serving_cells(self.configs)

    def shard_manifests(
        self, directory: str | Path, n_shards: int
    ) -> "list[Path]":
        """Write per-machine shard manifests for this matrix."""
        return write_shard_manifests(
            self.cells,
            n_shards=n_shards,
            directory=directory,
            encode_ref=SERVING_CODEC.encode_ref,
            decode_ref=SERVING_CODEC.decode_ref,
        )

    def run(self) -> "dict[str, ServingCellResult]":
        """Execute pending cells, reload cached ones; results by id."""
        runner = CampaignRunner(
            self.cells,
            store=self.repository.artifacts if self.repository else None,
            codec=SERVING_CODEC,
            executor=self.executor,
        )
        outcome = run_wrapping_corruption(runner)
        return dict(outcome.results)
