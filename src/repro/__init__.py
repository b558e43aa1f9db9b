"""repro — Is Big Data Performance Reproducible in Modern Cloud Networks?

A full reproduction of the NSDI 2020 measurement/methodology study by
Uta et al., packaged as a reusable library:

* :mod:`repro.netmodel` — generative models of cloud network behaviour
  (EC2 token buckets, GCE per-core QoS, private-cloud contention,
  virtual-NIC effects);
* :mod:`repro.cloud` — provider profiles and instance catalogs;
* :mod:`repro.emulator` — the ``tc``-style bandwidth emulation rig;
* :mod:`repro.measurement` — iperf/RTT probes, week-long campaigns,
  and baseline fingerprinting;
* :mod:`repro.simulator` — a discrete-event Spark-like cluster engine
  with single-job and multi-tenant job-stream execution under five
  slot schedulers (FIFO, fair, checkpoint-preempting fair, SRPT, and
  deadline/EDF with per-tenant slowdown and miss telemetry), plus a
  batched multi-stream runner (:mod:`repro.simulator.multistream`)
  that advances many independent cells through one concatenated
  shaper super-fleet in lockstep;
* :mod:`repro.serving` — a request-serving layer on the same event
  core and fabric: microservice call trees
  (:class:`~repro.serving.topology.ServiceTopology`), lazy open-loop
  arrival processes at production rates (Poisson, diurnal, flash
  crowd) plus closed-loop user pools with think time, per-hop
  request/response flows through the shaped fabric, and SLO gating —
  sliding-window p50/p99/p99.9 targets over streaming quantile
  telemetry, with violation windows, ``repro_slo_*`` gauges, and
  content-hashed ``srv-…`` campaign cells;
* :mod:`repro.workloads` — HiBench and TPC-DS workload models;
* :mod:`repro.scenarios` — randomized workload generation (random DAG
  jobs, TPC-H-like templates, Poisson/burst arrivals, synthesized
  per-job deadlines) and parallel, cache-aware scenario-campaign
  orchestration, including warm-fabric chains: a cell may name a
  predecessor whose persisted shaper state seeds its run
  (back-to-back tenants, the Figure 19 carry-over at campaign scale);
* :mod:`repro.runtime` — the unified campaign execution layer beneath
  scenario and serving sweeps, figure sweeps, and the bench
  suite: content-hashed :class:`~repro.runtime.cell.Cell` units
  (optionally chained via ``after``), a crash-safe content-addressed
  :class:`~repro.runtime.store.ArtifactStore` with an integrity audit
  (``repro store verify``), pluggable serial / process-pool /
  multi-machine shard executors (``python -m repro worker`` +
  ``merge``; chains stay whole on one shard and resume mid-chain from
  their store), and a fault-tolerant supervisor (``repro campaign
  run``): leased, heartbeat-renewed workers, death detection, retries
  with backoff, poison-cell quarantine into ``failures.json``, idle
  work stealing, and a seeded chaos harness proving that a campaign
  killed anywhere converges byte-identically to a serial run;
* :mod:`repro.obs` — observability across engine, fabric, and
  runtime: Prometheus-style metrics with an in-simulation scraper,
  streaming P² sliding-window latency quantiles, job/stage/task-group
  /flow span tracing exportable as Chrome trace-event JSON, per-cell
  execution provenance in store manifests, structured worker logging,
  and ``python -m repro campaign status`` for live progress /
  throughput / ETA / stragglers of a sharded campaign (``--prom``
  emits Prometheus text exposition).  Inert by default: with no
  recorder attached the simulator pays one ``is not None`` check per
  event step and results are bit-identical either way;
* :mod:`repro.stats` — nonparametric CIs, CONFIRM, assumption tests;
* :mod:`repro.survey` — the literature-survey pipeline of Section 2;
* :mod:`repro.core` — the variability-aware experimentation
  methodology (design, execution, analysis, guidelines);
* :mod:`repro.paper` — one module per figure/table, regenerating the
  paper's evaluation.

Performance architecture
------------------------

The simulator is built as two speed layers, both gated bit-exact
(identical RNG streams, identical IEEE-754 operation order) by the
golden trace and ``repro bench --check``:

1. **Struct-of-arrays hot loops.**  The fabric keeps flows as
   parallel numpy arrays plus per-node flow lists (its water-filling
   topology, kept incrementally as flows arrive and complete), and
   :mod:`repro.netmodel.fleet` batches every node's egress shaper into
   one vectorized model —
   :class:`~repro.netmodel.fleet.TokenBucketFleet`,
   :class:`~repro.netmodel.fleet.PerCoreQosFleet`, and friends — so a
   step costs a handful of array ops instead of a Python loop over
   links.  Each hot loop has one implementation: a list loop for few
   flows and numpy sweeps above ``_SWEEP_CUTOVER``.
2. **Batched multi-stream execution.**
   :func:`repro.simulator.multistream.run_cores` stitches many
   independent cells' fleets into one concatenated super-fleet and
   advances all cells' event cores (DAG streams or serving) per
   lockstep round with a single ``horizons`` / ``advance`` call pair,
   ``advance`` taking one ``dt`` per link — the SoA trick applied
   across cells — which amortizes per-cell numpy dispatch and makes
   million-cell campaign matrices cheap.  The campaign runtime's
   default single-process batch executor sends runs of independent
   cells through it; per-cell results are byte-identical to serial
   runs.

Performance is measured by ``perfbench/`` (repeated fresh-process
passes, calibrated host times, per-layer traces).
``python -m repro bench --check`` is CI's checksum and wall-time gate
against the ``smoke`` section of ``BENCH_engine.json``.

Quickstart::

    import numpy as np
    from repro.cloud import Ec2Provider
    from repro.emulator import FULL_SPEED
    from repro.measurement import BandwidthProbe

    provider = Ec2Provider()
    model = provider.link_model("c5.xlarge", np.random.default_rng(0))
    trace = BandwidthProbe(model, FULL_SPEED).run(duration_s=3600.0)
    print(trace.box_summary())   # the token-bucket drop is visible

Scenario sweeps (randomized multi-job workloads across providers,
arrival rates, and schedulers) run from the shell::

    python -m repro scenario --fast --seed 7 --workers 4
    python -m repro scenario --schedulers fifo,fair,preempt,srpt,edf \
        --deadline-slack 1.5 --chain 2   # deadline misses on warm fabrics

Serving runs the paper's question at request scale: is tail latency
reproducible when the fabric's shaper state is variable?  One
SLO-gated run from the shell, or a provider-contrast sweep::

    python -m repro serve --fast --arrival flash --seed 1
    python -m repro scenario --workload serving --providers hpccloud,fixed

(the ``fixed`` pseudo-provider pins every link at the hpccloud-class
median rate, so the contrast isolates variability, not mean capacity).
Or in code::

    from repro.serving import ServingConfig, run_serving

    result = run_serving(ServingConfig(arrival="flash", rate_rps=90.0,
                                       n_nodes=4, duration_s=60.0,
                                       slo_p99_ms=500.0, seed=1))
    print(result.slo.passed, result.slo_violations)

Campaigns shard across machines through the runtime layer — write
per-machine manifests, run each with the worker CLI, merge the stores
back (byte-identical to a serial run)::

    python -m repro scenario --fast --shards 4 --shard-dir shards/
    python -m repro worker shards/shard-0.json --store shard0-store
    python -m repro merge shard*-store --store campaign-store

and report live progress while the workers run::

    python -m repro campaign status shards/          # table + stragglers
    python -m repro campaign status shards/ --prom   # Prometheus text

or hand the whole thing to the fault-tolerant supervisor, which
launches the workers itself, replaces any that die (SIGKILL included),
quarantines cells that fail every retry, and merges at the end::

    python -m repro campaign run shards/ --store campaign-store
    python -m repro store verify campaign-store      # integrity audit
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
