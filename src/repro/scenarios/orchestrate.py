"""Campaign orchestration: scenario matrices, caching, parallelism.

KheOps-style campaign economics: a variability study is only as broad
as the number of (provider, instance, arrival pattern, scheduler)
cells it can afford to run, so the orchestrator makes cells cheap —

* every :class:`ScenarioConfig` is content-hashed into a stable
  ``scenario_id``, so a :class:`~repro.measurement.repository.TraceRepository`
  can skip cells that already ran (re-running a sweep after adding one
  arrival rate only executes the new column);
* pending cells run through a pluggable :mod:`repro.runtime` executor —
  in-process batches through the lockstep multistream driver (the
  default), a chunked ``multiprocessing`` pool, or per-machine shard
  manifests (``python -m repro worker``) — and each cell is a pure
  function of its config, so the execution strategy never changes the
  results, only the wall clock;
* per-cell results aggregate through :mod:`repro.stats` into CoV and
  CONFIRM-widening verdicts, the same statistics the paper reports.

:class:`ScenarioCampaign` is the DAG-scenario
:class:`repro.runtime.campaign.Campaign`: it maps configs to
:class:`~repro.runtime.cell.Cell`\\ s (keyed by ``scenario_id``, so
pre-runtime repositories stay warm) and decodes stored artifacts back
into :class:`ScenarioResult`\\ s.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Mapping

import numpy as np

from repro.cloud.providers import default_providers
from repro.netmodel.state import chained_models, model_state_dict
from repro.simulator.fabric import Fabric
from repro.measurement.campaign import CampaignConfig, CampaignResult
from repro.measurement.repository import (
    campaign_from_documents,
    campaign_to_documents,
)
from repro.runtime.campaign import (
    ArtifactCodec,
    Campaign,
    CampaignOutcome,
    axis_seed,
    chain_configs,
    config_cells,
    config_fields,
)
from repro.runtime.cell import Cell, content_id
from repro.runtime.executors import BatchExecutor
from repro.scenarios.generate import (
    RandomDagConfig,
    WorkloadMix,
    burst_arrivals,
    job_stream,
    poisson_arrivals,
    synthesize_deadlines,
)
from repro.simulator.cluster import Cluster, NodeSpec
from repro.simulator.engine import SCHEDULERS, SparkEngine
from repro.simulator.multistream import run_cells
from repro.stats.confirm import confirm_curve
from repro.stats.cov import coefficient_of_variation
from repro.trace import BandwidthTrace

__all__ = [
    "ScenarioConfig",
    "ScenarioResult",
    "ScenarioCampaign",
    "CampaignOutcome",
    "run_scenario",
    "run_scenarios_batched",
    "prepare_scenario",
    "finish_scenario",
    "run_scenario_payload",
    "batch_executor",
    "scenario_matrix",
    "chain_scenarios",
    "scenario_cells",
    "encode_scenario_result",
    "decode_scenario_result",
    "SCENARIO_CODEC",
    "DEFAULT_INSTANCES",
]

#: Default instance type per provider, matching the Table 3 catalog.
DEFAULT_INSTANCES: dict[str, str] = {
    "amazon": "c5.xlarge",
    "google": "gce-4core",
    "hpccloud": "hpccloud-8core",
}

#: Workload keyword -> generator mix.
_MIXES: dict[str, WorkloadMix] = {
    "mixed": WorkloadMix(),
    "random": WorkloadMix(1.0, 0.0, 0.0),
    "tpch": WorkloadMix(0.0, 1.0, 0.0),
    "hibench": WorkloadMix(0.0, 0.0, 1.0),
}

#: Arrival-process keywords.
_ARRIVALS: tuple[str, ...] = ("poisson", "burst")


@dataclass(frozen=True)
class ScenarioConfig:
    """One cell of a scenario matrix, fully determining its result."""

    provider_name: str = "amazon"
    instance_name: str = "c5.xlarge"
    n_nodes: int = 8
    slots: int = 4
    n_jobs: int = 4
    #: Poisson rate (jobs/minute) or burst cadence, per ``arrival``.
    arrival_rate_per_min: float = 2.0
    arrival: str = "poisson"
    scheduler: str = "fifo"
    workload: str = "mixed"
    data_scale: float = 1.0
    seed: int = 0
    #: Mean multiplicative deadline slack; 0 disables deadlines (jobs
    #: arrive without one and miss telemetry reports ``None``).
    deadline_slack: float = 0.0
    #: ``scenario_id`` of the cell whose final fabric/shaper state
    #: seeds this cell's run (warm-fabric chains); ``None`` for a
    #: fresh fabric.
    predecessor: str | None = None

    def __post_init__(self) -> None:
        # Normalize numeric fields so equal configs hash equally:
        # json.dumps renders 1 and 1.0 differently, and the scenario_id
        # contract is "same fields => same id".
        object.__setattr__(
            self, "arrival_rate_per_min", float(self.arrival_rate_per_min)
        )
        object.__setattr__(self, "data_scale", float(self.data_scale))
        object.__setattr__(self, "deadline_slack", float(self.deadline_slack))
        for name in ("n_nodes", "slots", "n_jobs", "seed"):
            object.__setattr__(self, name, int(getattr(self, name)))
        if self.scheduler not in SCHEDULERS:
            raise ValueError(
                f"unknown scheduler {self.scheduler!r}; expected one of {SCHEDULERS}"
            )
        if self.arrival not in _ARRIVALS:
            raise ValueError(
                f"unknown arrival process {self.arrival!r}; "
                f"expected one of {_ARRIVALS}"
            )
        if self.workload not in _MIXES:
            raise ValueError(
                f"unknown workload {self.workload!r}; "
                f"expected one of {sorted(_MIXES)}"
            )
        if self.n_nodes < 2 or self.slots < 1 or self.n_jobs < 1:
            raise ValueError("n_nodes >= 2, slots >= 1, n_jobs >= 1 required")
        # The comparisons are written so that NaN fails them.
        for name in ("arrival_rate_per_min", "data_scale"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not self.deadline_slack >= 0.0:
            raise ValueError(
                f"deadline_slack must be non-negative, got {self.deadline_slack}"
            )
        if self.predecessor is not None and not self.predecessor.startswith(
            "scn-"
        ):
            raise ValueError(
                f"predecessor must be a scenario id, got {self.predecessor!r}"
            )

    @property
    def scenario_id(self) -> str:
        """Content hash of the config: the repository cache key.

        Two configs share an id exactly when every field matches, so a
        stored result can stand in for re-execution.  Fields still at
        their defaults that did not exist when a repository was
        populated (``deadline_slack``, ``predecessor``) are dropped
        from the hash, so pre-existing caches stay warm.
        """
        payload_dict = config_fields(self)
        if self.deadline_slack == 0.0:
            payload_dict.pop("deadline_slack")
        if self.predecessor is None:
            payload_dict.pop("predecessor")
        return content_id("scn", payload_dict)


@dataclass
class ScenarioResult:
    """Per-job outcomes of one scenario cell."""

    config: ScenarioConfig
    #: Submission times, in submit order (seconds from stream start).
    submits: np.ndarray
    #: Per-job response times aligned with :attr:`submits`.
    runtimes: np.ndarray
    makespan_s: float
    #: Job names, absent when reloaded from a repository cache.
    job_names: tuple[str, ...] | None = None
    cached: bool = False
    #: Absolute per-job deadlines aligned with :attr:`submits`, or
    #: ``None`` when the cell ran without deadline synthesis.
    deadlines: np.ndarray | None = None
    #: Per-tenant slowdowns (response over ideal service time).
    slowdowns: np.ndarray | None = None
    #: Per-node link-model snapshots captured when the stream finished
    #: (:func:`repro.netmodel.state.model_state_dict`); what a chained
    #: successor cell seeds its fabric from.
    fabric_state: list[dict] | None = None
    #: Engine event-loop steps the cell cost (``None`` when reloaded
    #: from cache).  Deliberately *not* encoded into store documents —
    #: it feeds execution provenance (manifest meta), so stored bytes
    #: stay independent of engine-internals accounting.
    n_steps: int | None = None

    def deadline_miss_rate(self) -> float | None:
        """Fraction of deadlined jobs finishing late; None without deadlines."""
        if self.deadlines is None:
            return None
        finite = np.isfinite(self.deadlines)
        if not finite.any():
            return None
        finishes = self.submits[finite] + self.runtimes[finite]
        return float(np.mean(finishes > self.deadlines[finite] + 1e-9))

    def aggregate_row(self) -> dict:
        """One sweep-table row: config axes plus CoV/CONFIRM verdicts.

        Values are rounded so rows compare bit-for-bit across workers
        and across cache reload (JSON round-trips floats exactly).
        """
        cov = (
            coefficient_of_variation(self.runtimes)
            if self.runtimes.size > 1
            else 0.0
        )
        ci_widened = None
        if self.runtimes.size >= 12:
            ci_widened = confirm_curve(self.runtimes).widening_detected()
        miss_rate = self.deadline_miss_rate()
        return {
            "scenario": self.config.scenario_id,
            "provider": self.config.provider_name,
            "instance": self.config.instance_name,
            "arrival": self.config.arrival,
            "rate_per_min": self.config.arrival_rate_per_min,
            "scheduler": self.config.scheduler,
            "workload": self.config.workload,
            "chained": self.config.predecessor is not None,
            "n_jobs": int(self.runtimes.size),
            "mean_runtime_s": round(float(np.mean(self.runtimes)), 3),
            "p50_runtime_s": round(float(np.median(self.runtimes)), 3),
            "max_runtime_s": round(float(np.max(self.runtimes)), 3),
            "makespan_s": round(float(self.makespan_s), 3),
            "cov": round(float(cov), 4),
            "ci_widened": ci_widened,
            "miss_rate": None if miss_rate is None else round(miss_rate, 4),
            "mean_slowdown": (
                None
                if self.slowdowns is None
                else round(float(np.mean(self.slowdowns)), 3)
            ),
        }

    # -- repository round-trip ---------------------------------------------
    def to_campaign_result(self) -> CampaignResult:
        """Encode the cell as a storable campaign (runtimes as a trace).

        Deadlines and slowdowns ride along as extra traces when
        present, so a cache reload reproduces the same aggregate row a
        fresh computation would.
        """
        config = CampaignConfig(
            provider_name=self.config.provider_name,
            instance_name=self.config.instance_name,
            duration_s=float(self.makespan_s),
            patterns=(),
            seed=self.config.seed,
        )
        result = CampaignResult(config=config)
        extras = {"deadlines": self.deadlines, "slowdowns": self.slowdowns}
        for name, values in [("runtimes", self.runtimes), *extras.items()]:
            if values is None:
                continue
            result.traces[name] = BandwidthTrace(
                times=self.submits,
                values=np.asarray(values, dtype=float),
                label=f"scenario-{name}/{self.config.scenario_id}",
                durations=np.ones_like(self.runtimes),
            )
        return result

    @classmethod
    def from_campaign_result(
        cls, config: ScenarioConfig, stored: CampaignResult
    ) -> "ScenarioResult":
        """Rebuild a cell from its stored trace (cache hit)."""
        trace = stored.trace("runtimes")

        def optional(name: str) -> np.ndarray | None:
            if name not in stored.traces:
                return None
            return np.asarray(stored.trace(name).values, dtype=float)

        return cls(
            config=config,
            submits=np.asarray(trace.times, dtype=float),
            runtimes=np.asarray(trace.values, dtype=float),
            makespan_s=float(stored.config.duration_s),
            job_names=None,
            cached=True,
            deadlines=optional("deadlines"),
            slowdowns=optional("slowdowns"),
        )


def run_scenario(
    config: ScenarioConfig,
    upstream: "ScenarioResult | None" = None,
    recorder=None,
) -> ScenarioResult:
    """Execute one scenario cell end to end.

    A pure function of ``config`` (plus, for chained cells, the
    predecessor's result): provider incarnations, the arrival process,
    the job mix, and the engine's compute noise all derive from one
    seeded generator, so the same config always produces the same
    result regardless of where (or how parallel) it runs.  Deadlines
    draw from a *separate* generator derived from the seed, so turning
    deadline synthesis on never perturbs the workload stream itself.

    The fabric is built once, up front: a provider hands out one model
    class per instance type (token buckets for EC2 incarnations,
    per-core QoS for GCE, ...), so homogeneous cells get the vectorized
    shaper fleet (:func:`repro.netmodel.fleet.build_fleet`) and
    anything exotic falls back to the scalar adapter — either way the
    cell's result is bit-identical.

    When ``config.predecessor`` names another cell, ``upstream`` must
    be that cell's result: the fabric is rebuilt from its persisted
    per-node shaper snapshots (same incarnations, same budgets, same
    RNG positions — back-to-back tenants on a warm fabric, the
    Figure 19 carry-over at campaign scale) instead of drawing fresh
    VMs.

    ``recorder`` forwards to :meth:`SparkEngine.run_stream
    <repro.simulator.engine.SparkEngine.run_stream>` — an
    :class:`~repro.obs.ObsRecorder` observes the cell's stream without
    changing its result.
    """
    prepared = prepare_scenario(config, upstream=upstream)
    outcome = prepared.engine.run_stream(
        prepared.stream,
        scheduler=config.scheduler,
        fabric=prepared.fabric,
        recorder=recorder,
    )
    return finish_scenario(prepared, outcome)


@dataclass
class _PreparedScenario:
    """A cell built and ready to stream: the prepare/finish seam.

    :func:`run_scenario` is prepare → ``engine.run_stream`` → finish;
    :func:`run_scenarios_batched` swaps the middle for a batched run.
    Every RNG draw happens in prepare, in serial order, so the two
    paths are bit-identical per cell.
    """

    config: ScenarioConfig
    engine: SparkEngine
    stream: list
    fabric: Fabric

    @property
    def state(self):
        """A fresh unrun stream state for the cell, for the batched driver."""
        return self.engine.stream_state(
            self.stream, fabric=self.fabric, scheduler=self.config.scheduler
        )


def prepare_scenario(
    config: ScenarioConfig, upstream: "ScenarioResult | None" = None
) -> _PreparedScenario:
    """Build one cell's engine, workload stream, and fabric."""
    rng = np.random.default_rng(config.seed)
    if config.predecessor is not None:
        models = chained_models(config, upstream, config.scenario_id)
    else:
        provider = default_providers()[config.provider_name]
        models = [
            provider.link_model(config.instance_name, rng)
            for _ in range(config.n_nodes)
        ]
    cluster = Cluster(
        n_nodes=config.n_nodes,
        node_spec=NodeSpec(slots=config.slots),
        link_model_factory=lambda node: models[node],
    )
    fabric = cluster.build_fabric()
    if config.arrival == "burst":
        per_burst = max(config.n_jobs // 2, 1)
        n_bursts = -(-config.n_jobs // per_burst)  # ceil
        times = burst_arrivals(
            rng,
            n_bursts=n_bursts,
            jobs_per_burst=per_burst,
            burst_spacing_s=60.0 / config.arrival_rate_per_min * per_burst,
        )[: config.n_jobs]
    else:
        times = poisson_arrivals(
            rng, rate_per_min=config.arrival_rate_per_min, n_jobs=config.n_jobs
        )
    stream = job_stream(
        rng,
        times,
        n_nodes=config.n_nodes,
        slots=config.slots,
        data_scale=config.data_scale,
        mix=_MIXES[config.workload],
        dag_config=RandomDagConfig(),
    )
    if config.deadline_slack > 0:
        deadline_rng = np.random.default_rng([config.seed, 0xDEAD11E5])
        stream = synthesize_deadlines(
            deadline_rng,
            stream,
            n_nodes=config.n_nodes,
            slots=config.slots,
            mean_slack=config.deadline_slack,
        )
    engine = SparkEngine(cluster, rng=rng)
    return _PreparedScenario(
        config=config, engine=engine, stream=list(stream), fabric=fabric
    )


def finish_scenario(prepared: _PreparedScenario, outcome) -> ScenarioResult:
    """Assemble a :class:`ScenarioResult` from a finished stream."""
    config = prepared.config
    deadlines = None
    if config.deadline_slack > 0:
        # Read back from the results (submit order) rather than the
        # stream, so alignment never depends on arrival-time ordering.
        deadlines = np.asarray([r.deadline_s for r in outcome.job_results])
    return ScenarioResult(
        config=config,
        submits=np.asarray([r.submit_s for r in outcome.job_results]),
        runtimes=outcome.runtimes(),
        makespan_s=outcome.makespan_s,
        job_names=tuple(r.job_name for r in outcome.job_results),
        deadlines=deadlines,
        slowdowns=outcome.slowdowns(),
        fabric_state=[
            model_state_dict(m) for m in prepared.fabric.egress_models
        ],
        n_steps=outcome.n_steps,
    )


def run_scenarios_batched(
    configs: "list[ScenarioConfig]",
    upstreams: "list[ScenarioResult | None] | None" = None,
) -> "list[ScenarioResult]":
    """Run cells through :func:`repro.simulator.multistream.run_cells`.

    Bit-identical per cell to ``run_scenario(config, upstream)``.
    """
    return run_cells(configs, upstreams, prepare_scenario, finish_scenario)


def chain_scenarios(base: ScenarioConfig, length: int) -> list[ScenarioConfig]:
    """A warm-fabric chain (:func:`repro.runtime.campaign.chain_configs`)."""
    return chain_configs(base, length, attrgetter("scenario_id"))


def scenario_matrix(
    providers: tuple[str, ...] = ("amazon", "google"),
    arrival_rates: tuple[float, ...] = (1.0, 4.0),
    schedulers: tuple[str, ...] = ("fifo", "fair"),
    workloads: tuple[str, ...] = ("mixed",),
    n_jobs: int = 4,
    n_nodes: int = 8,
    slots: int = 4,
    data_scale: float = 1.0,
    seed: int = 0,
    instances: dict[str, str] | None = None,
    deadline_slack: float = 0.0,
    chain_length: int = 1,
) -> list[ScenarioConfig]:
    """Cross product of the requested axes, one config per cell.

    Each cell's seed derives from the base ``seed`` and the cell's own
    axis values (:func:`repro.runtime.campaign.axis_seed`), so extending
    an axis later leaves every existing ``scenario_id`` unchanged.

    ``deadline_slack`` > 0 synthesizes per-job deadlines in every cell
    (reported as miss rates; ordering-relevant under the "edf"
    scheduler), and ``chain_length`` > 1 expands every cell into a
    warm-fabric chain (see :func:`chain_scenarios`).
    """
    if chain_length < 1:
        raise ValueError("chain_length must be >= 1")
    instances = {**DEFAULT_INSTANCES, **(instances or {})}
    configs = []
    for provider, rate, scheduler, workload in itertools.product(
        providers, arrival_rates, schedulers, workloads
    ):
        instance = instances[provider]
        base = ScenarioConfig(
            provider_name=provider,
            instance_name=instance,
            n_nodes=n_nodes,
            slots=slots,
            n_jobs=n_jobs,
            arrival_rate_per_min=rate,
            scheduler=scheduler,
            workload=workload,
            data_scale=data_scale,
            seed=axis_seed(
                seed, provider, instance, float(rate), scheduler, workload
            ),
            deadline_slack=deadline_slack,
        )
        configs.extend(chain_scenarios(base, chain_length))
    return configs


# ----------------------------------------------------------------------
# runtime plumbing: cells and the store codec
# ----------------------------------------------------------------------
def run_scenario_payload(
    payload: Mapping, upstream: ScenarioResult | None = None
) -> ScenarioResult:
    """Cell function: reconstruct the config and run the scenario.

    ``upstream`` is the predecessor's decoded result for chained cells
    (the runtime passes it when the cell's ``after`` is set).  Its
    batched form, ``run_scenario_payload.batched``, is what the
    default :class:`~repro.runtime.executors.BatchExecutor` runs for
    independent cells; both forms build every cell through the
    module-global :func:`prepare_scenario`, looked up at call time, so
    a test that patches it reaches the cell on either path.
    """
    config = ScenarioConfig(**payload)
    if upstream is None:
        return run_scenario(config)
    return run_scenario(config, upstream=upstream)


def _run_scenario_payloads(payloads: list, upstreams: list) -> list:
    """Batched form of :func:`run_scenario_payload`."""
    configs = [ScenarioConfig(**payload) for payload in payloads]
    return run_scenarios_batched(configs, upstreams)


run_scenario_payload.batched = _run_scenario_payloads


def batch_executor(batch_size: int = 32) -> BatchExecutor:
    """A :class:`~repro.runtime.executors.BatchExecutor` for scenario cells.

    The campaign default already batches scenario cells; this sets the
    batch size::

        ScenarioCampaign(configs, executor=batch_executor(8)).run()

    The same loop runs every cell at every batch size, and results —
    rows, checksums, cache keys — are bit-identical to
    ``batch_executor(1)``, the one-at-a-time reference; only the wall
    clock changes.
    """
    return BatchExecutor(batch_size)


def encode_scenario_result(result: ScenarioResult) -> tuple[dict, dict]:
    """Codec encoder: a scenario cell as trace-repository documents.

    The per-node fabric snapshot travels as an extra ``fabric``
    document (not a trace), so chained successors can reload it and
    legacy readers that only walk ``patterns`` are unaffected.
    """
    documents, meta = campaign_to_documents(result.to_campaign_result())
    if result.fabric_state is not None:
        documents["fabric"] = {"models": result.fabric_state}
    return documents, meta


def decode_scenario_result(cell: Cell, documents: Mapping) -> ScenarioResult:
    """Codec decoder: rebuild a :class:`ScenarioResult` from the store."""
    config = ScenarioConfig(**cell.payload)
    result = ScenarioResult.from_campaign_result(
        config, campaign_from_documents(documents)
    )
    fabric_doc = documents.get("fabric")
    if fabric_doc is not None:
        result.fabric_state = list(fabric_doc["models"])
    return result


#: The scenario layer's store codec, referenced by import path so shard
#: manifests can name it across machines.
SCENARIO_CODEC = ArtifactCodec(
    encode_ref="repro.scenarios.orchestrate:encode_scenario_result",
    decode_ref="repro.scenarios.orchestrate:decode_scenario_result",
)


def scenario_cells(configs: list[ScenarioConfig]) -> list[Cell]:
    """Map scenario configs to runtime cells keyed by ``scenario_id``.

    The key predates the runtime layer, so older repositories stay warm.
    """
    return config_cells(
        configs,
        "repro.scenarios.orchestrate:run_scenario_payload",
        attrgetter("scenario_id"),
    )


class ScenarioCampaign(Campaign):
    """Runs a scenario matrix; see :class:`repro.runtime.campaign.Campaign`."""

    codec = SCENARIO_CODEC
    make_cells = staticmethod(scenario_cells)
