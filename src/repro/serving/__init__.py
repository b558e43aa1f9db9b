"""Request serving over the shaped fabric: load, call trees, SLO gates.

The paper's lens is batch analytics, but the mechanism it isolates —
per-node egress shapers whose hidden state (token budgets, QoS tiers,
resampled rate processes) decides application performance — governs
*serving* workloads even more directly: a microservice request's tail
latency is the maximum over its fan-out's network hops, so one node's
depleted shaper becomes every request's p99.9.  This package asks the
paper's question at request scale: **is serving tail latency
reproducible on variable cloud networks?**

Built on the workload-agnostic event core
(:class:`repro.simulator.core.EventCore`), sharing the fabric, the
cluster model, and the campaign runtime with the DAG engine:

* :mod:`repro.serving.topology` — microservice call trees
  (:class:`ServiceTopology`: line / fanout / three-tier) with per-call
  compute cost and request/response payloads;
* :mod:`repro.serving.arrivals` — lazy open-loop arrival processes at
  production rates (Poisson, diurnal, flash crowd) that never
  materialize an arrival list;
* :mod:`repro.serving.state` — the serving engine: open-loop arrivals
  and/or closed-loop users with think time, per-hop fabric flows, P²
  streaming latency telemetry;
* :mod:`repro.serving.slo` — SLO gating: sliding-window p50/p99/p99.9
  targets, violation windows, ``repro_slo_*`` metrics;
* :mod:`repro.serving.scenario` — content-hashed campaign cells
  (``srv-…``), matrices, warm-fabric chains, and the store codec for
  ``repro worker`` / ``repro merge`` sharding.

Quickstart::

    import numpy as np
    from repro.cloud.providers import default_providers
    from repro.serving import (
        ServiceTopology, SloPolicy, poisson_process, serve,
    )
    from repro.simulator import Cluster, NodeSpec, SparkEngine

    rng = np.random.default_rng(7)
    provider = default_providers()["amazon"]
    cluster = Cluster(
        8, NodeSpec(), lambda n: provider.link_model("c5.xlarge", rng)
    )
    engine = SparkEngine(cluster, rng=rng)
    result = serve(
        engine,
        ServiceTopology.three_tier(),
        duration_s=60.0,
        arrivals=poisson_process(rng, rate_rps=20.0, duration_s=60.0),
        slo_policy=SloPolicy(p99_ms=250.0),
    )
    print(result.latency["p99"], result.slo.passed)

From the shell: ``python -m repro serve --fast`` (single run with an
SLO verdict table) or ``python -m repro scenario --workload serving``
(a whole provider x arrival matrix).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.serving.arrivals": (
        "diurnal_process",
        "flash_crowd_process",
        "poisson_process",
    ),
    "repro.serving.scenario": (
        "FIXED_RATE_GBPS",
        "SERVING_CODEC",
        "SERVING_DEFAULT_INSTANCES",
        "ServingCampaign",
        "ServingCellResult",
        "ServingConfig",
        "chain_serving",
        "run_serving",
        "run_servings_batched",
        "serving_cells",
        "serving_matrix",
    ),
    "repro.serving.slo": ("SloPolicy", "SloReport", "SloViolation"),
    "repro.serving.state": ("ServingResult", "ServingState", "serve"),
    "repro.serving.topology": ("ServiceSpec", "ServiceTopology"),
}
__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)

__all__ = [
    "ServiceSpec",
    "ServiceTopology",
    "poisson_process",
    "diurnal_process",
    "flash_crowd_process",
    "SloPolicy",
    "SloReport",
    "SloViolation",
    "ServingState",
    "ServingResult",
    "serve",
    "ServingConfig",
    "ServingCellResult",
    "ServingCampaign",
    "run_serving",
    "run_servings_batched",
    "serving_matrix",
    "chain_serving",
    "serving_cells",
    "SERVING_CODEC",
    "SERVING_DEFAULT_INSTANCES",
    "FIXED_RATE_GBPS",
]
