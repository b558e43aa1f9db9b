"""Scenario subsystem: randomized workloads, streams, and campaigns.

The paper's fixed suites (Terasort, HiBench, TPC-DS) demonstrate that
token-bucket state decides application performance; this package asks
the follow-up question — *does that hold across workloads, timings,
and schedulers we didn't hand-pick?* — by generating scenarios instead
of replaying them:

* :mod:`repro.scenarios.generate` — seeded random DAG jobs,
  TPC-H-like query templates, and Poisson/burst arrival processes;
* :mod:`repro.scenarios.orchestrate` — content-hashed scenario cells
  executed through the :mod:`repro.runtime` layer (serial, chunked
  process pool, or per-machine shard manifests via ``repro worker`` /
  ``repro merge``), cached in a
  :class:`~repro.measurement.repository.TraceRepository`, and
  aggregated into CoV/CONFIRM sweep tables.

Quickstart::

    import numpy as np
    from repro.scenarios import (
        ScenarioCampaign, poisson_arrivals, job_stream, scenario_matrix,
    )

    # One multi-tenant stream, by hand:
    rng = np.random.default_rng(7)
    stream = job_stream(rng, poisson_arrivals(rng, rate_per_min=2.0, n_jobs=4),
                        n_nodes=8, data_scale=0.05)
    # ... run it with SparkEngine(cluster).run_stream(stream, scheduler="fair")

    # Or a whole provider x rate x scheduler sweep, cached and parallel:
    configs = scenario_matrix(providers=("amazon", "google"), seed=7)
    outcome = ScenarioCampaign(configs, workers=4).run()
    for row in outcome.aggregate_rows():
        print(row)

From the shell: ``python -m repro scenario --fast --seed 7``.
"""

from repro._lazy import lazy_exports
from repro.scenarios.generate import (
    TPCH_LIKE_QUERIES,
    RandomDagConfig,
    WorkloadMix,
    burst_arrivals,
    burst_arrivals_iter,
    job_stream,
    poisson_arrivals,
    poisson_arrivals_iter,
    random_job,
    synthesize_deadlines,
    tpch_like_job,
)

_EXPORTS = {
    "repro.scenarios.orchestrate": (
        "DEFAULT_INSTANCES",
        "SCENARIO_CODEC",
        "CampaignOutcome",
        "ScenarioCampaign",
        "ScenarioConfig",
        "ScenarioResult",
        "chain_scenarios",
        "run_scenario",
        "run_scenario_payload",
        "scenario_cells",
        "scenario_matrix",
    ),
    # Service-scenario generation lives in repro.serving (it builds on the
    # event core, not the DAG engine) but is part of the scenario surface:
    # serving cells are content-hashed, chain- and batch-executor
    # compatible, and mix with DAG cells in one campaign directory.
    "repro.serving.scenario": (
        "SERVING_CODEC",
        "ServingCampaign",
        "ServingConfig",
        "run_serving",
        "serving_cells",
        "serving_matrix",
    ),
}
__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)

__all__ = [
    "RandomDagConfig",
    "WorkloadMix",
    "random_job",
    "tpch_like_job",
    "TPCH_LIKE_QUERIES",
    "poisson_arrivals",
    "burst_arrivals",
    "poisson_arrivals_iter",
    "burst_arrivals_iter",
    "job_stream",
    "ScenarioConfig",
    "ScenarioResult",
    "ScenarioCampaign",
    "CampaignOutcome",
    "run_scenario",
    "run_scenario_payload",
    "scenario_cells",
    "chain_scenarios",
    "scenario_matrix",
    "synthesize_deadlines",
    "SCENARIO_CODEC",
    "DEFAULT_INSTANCES",
    "ServingConfig",
    "ServingCampaign",
    "run_serving",
    "serving_cells",
    "serving_matrix",
    "SERVING_CODEC",
]
