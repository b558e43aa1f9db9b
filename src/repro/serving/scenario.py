"""Serving campaign cells: content-hashed configs, codec, matrices.

One :class:`ServingConfig` fully determines one serving run (provider
incarnations, topology, arrival draws, compute noise — all from one
seeded generator), hashes to a stable ``srv-…`` id, and executes as a
:class:`~repro.runtime.cell.Cell` under every executor — serial,
process pool, the batched multistream driver, or per-machine shard
manifests via ``repro worker`` / ``repro merge``.  The campaign
plumbing is shared with the DAG scenario layer: the campaign front end,
chain builder, and matrix seeds live in :mod:`repro.runtime.campaign`,
the predecessor checks in :mod:`repro.netmodel.state`, and the batched
driver in :mod:`repro.simulator.multistream`.

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

import itertools
import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Mapping

import numpy as np

from repro.cloud.providers import default_providers
from repro.netmodel.base import ConstantRateModel
from repro.netmodel.state import chained_models, model_state_dict
from repro.runtime.campaign import (
    ArtifactCodec,
    Campaign,
    axis_seed,
    chain_configs,
    config_cells,
    config_fields,
)
from repro.runtime.cell import Cell, content_id
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
from repro.simulator.fabric import Fabric
from repro.simulator.multistream import run_cells

__all__ = [
    "ServingConfig",
    "ServingCellResult",
    "ServingCampaign",
    "run_serving",
    "prepare_serving",
    "finish_serving",
    "run_servings_batched",
    "run_serving_payload",
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
        payload_dict = config_fields(self)
        if self.predecessor is None:
            payload_dict.pop("predecessor")
        return content_id("srv", payload_dict)

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

    :func:`run_serving` is prepare → ``state.execute()`` → finish;
    :func:`run_servings_batched` swaps the middle for a batched run.
    Every RNG draw happens in prepare, so both are bit-identical per cell.
    """

    config: ServingConfig
    state: ServingState

    @property
    def fabric(self) -> Fabric:
        return self.state.fabric


def prepare_serving(
    config: ServingConfig, upstream: "ServingCellResult | None" = None
) -> _PreparedServing:
    """Build one cell's cluster, fabric, topology, and serving state."""
    rng = np.random.default_rng(config.seed)
    if config.predecessor is not None:
        models = chained_models(config, upstream, config.serving_id)
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
        # and identical whether the cell runs alone or batched.
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
    """Run cells through :func:`repro.simulator.multistream.run_cells`.

    Bit-identical per cell to ``run_serving(config, upstream)``.
    """
    return run_cells(configs, upstreams, prepare_serving, finish_serving)


def chain_serving(base: ServingConfig, length: int) -> list[ServingConfig]:
    """A warm-fabric chain (:func:`repro.runtime.campaign.chain_configs`)."""
    return chain_configs(base, length, attrgetter("serving_id"))


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
    (:func:`repro.runtime.campaign.axis_seed`), so extending an axis
    later never changes an existing cell's seed or cache key.
    """
    if chain_length < 1:
        raise ValueError("chain_length must be >= 1")
    instances = {**SERVING_DEFAULT_INSTANCES, **(instances or {})}
    configs = []
    for provider, arrival, rate, topology in itertools.product(
        providers, arrivals, rates_rps, topologies
    ):
        instance = instances[provider]
        base = ServingConfig(
            provider_name=provider,
            instance_name=instance,
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
            seed=axis_seed(seed, provider, instance, arrival, float(rate), topology),
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
    return run_serving(ServingConfig(**payload), upstream=upstream)


def _run_serving_payloads(payloads: list, upstreams: list) -> list:
    """Batched form of :func:`run_serving_payload`."""
    configs = [ServingConfig(**payload) for payload in payloads]
    return run_servings_batched(configs, upstreams)


run_serving_payload.batched = _run_serving_payloads


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
    return config_cells(
        configs,
        "repro.serving.scenario:run_serving_payload",
        attrgetter("serving_id"),
    )


class ServingCampaign(Campaign):
    """Runs a serving matrix; see :class:`repro.runtime.campaign.Campaign`."""

    codec = SERVING_CODEC
    make_cells = staticmethod(serving_cells)
