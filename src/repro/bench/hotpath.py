"""The simulator hot-path cases behind the ``repro bench --check`` gate.

Nine cases bracket the fluid-fabric core, each at one CI-sized
workload (the case names are the ledger's, kept from when they ran
larger):

* ``stream_16x200`` — a 16-node multi-tenant Poisson stream under the
  fair scheduler with token-bucket shapers: water-filling, horizons,
  shaper advances, scheduling and telemetry together.
* ``stream_fair_preempt`` — the same stream under the
  checkpoint-preempting fair scheduler.
* ``waterfill_10k`` — 1,000 simultaneous flows across 64 nodes,
  timing :meth:`~repro.simulator.fabric.Fabric.compute_rates` alone.
* ``shaper_64_tb`` / ``percore_64`` — 64-node sweeps through
  tier-oscillating token buckets and per-core QoS links, each run
  through the vectorized fleet and the scalar-adapter loop, which must
  agree bit for bit.
* ``multistream_32cell`` — the batched multi-stream runner raced
  against serial per-cell runs, which must agree bit for bit.
* ``campaign_overhead`` — a fully cached scenario campaign: pure
  orchestration per cell.
* ``obs_overhead`` — the stream bare vs under a full
  :class:`~repro.obs.recorder.ObsRecorder`, which must not move the
  checksum.
* ``serving_openloop`` — a three-tier serving cell under flash-crowd
  open-loop load.

Each case returns a ``checksum`` derived from simulation output, so a
wall time is only compared between identical computations.
:func:`run_check` gates a fresh run against the ``smoke`` section of
``BENCH_engine.json``; that file's ``baseline``/``current`` rows are
frozen history that no code writes.

Tier-1 pins the literal outputs of the five cheap cases
(``tests/test_bench.py``).  The four stream-sized cases are too slow
for tier-1; these tests pin their code paths instead:

* ``stream_16x200`` and ``obs_overhead`` — the golden trace
  (``tests/simulator/test_golden_trace.py``), with its scalar-adapter
  and recorder-attached legs;
* ``stream_fair_preempt`` —
  ``tests/simulator/test_schedulers.py::TestPreemptiveFair::test_preempt_deterministic``;
* ``multistream_32cell`` — the serial == batched suite in
  ``tests/simulator/test_multistream.py``.
"""

from __future__ import annotations

import gc
import json
import math
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable

import numpy as np

from repro.netmodel import (
    ConstantRateModel,
    ScalarFleetAdapter,
    TokenBucketModel,
    TokenBucketParams,
)
from repro.netmodel.percore import PerCoreQosModel
from repro.scenarios.generate import job_stream, poisson_arrivals
from repro.simulator import Cluster, Fabric, NodeSpec, SparkEngine

__all__ = [
    "DEFAULT_RESULTS_PATH",
    "bench_stream",
    "bench_campaign_overhead",
    "bench_fleet_vs_scalar",
    "bench_multistream",
    "bench_obs_overhead",
    "bench_serving_openloop",
    "bench_waterfill",
    "run_suite",
    "run_bench",
    "run_check",
    "check_results",
    "load_results",
    "record_smoke",
    "workload_params",
]

#: The results ledger, resolved against the current working directory
#: (run benchmarks from the repository root).
DEFAULT_RESULTS_PATH = Path("BENCH_engine.json")

_SCHEMA = 1

#: Shaper constants for the stream benchmark: c5.xlarge-like bucket,
#: small enough (600 Gbit) that tier transitions actually occur.
_STREAM_BUCKET = TokenBucketParams(
    peak_gbps=10.0,
    capped_gbps=1.0,
    replenish_gbps=0.95,
    capacity_gbit=600.0,
)


def bench_stream(
    n_nodes: int = 16,
    slots: int = 4,
    n_jobs: int = 20,
    rate_per_min: float = 6.0,
    data_scale: float = 0.3,
    seed: int = 1234,
    scheduler: str = "fair",
    recorder=None,
) -> dict:
    """Time one multi-tenant stream execution end to end.

    ``recorder`` attaches an :class:`~repro.obs.recorder.ObsRecorder`
    to the run; the recorder only reads simulation state, so the
    checksum must not move (``bench_obs_overhead`` enforces that).
    """
    rng = np.random.default_rng(seed)
    cluster = Cluster(
        n_nodes=n_nodes,
        node_spec=NodeSpec(slots=slots),
        link_model_factory=lambda node: TokenBucketModel(_STREAM_BUCKET),
    )
    times = poisson_arrivals(rng, rate_per_min=rate_per_min, n_jobs=n_jobs)
    stream = job_stream(
        rng, times, n_nodes=n_nodes, slots=slots, data_scale=data_scale
    )
    engine = SparkEngine(cluster, rng=rng)
    start = time.perf_counter()
    result = engine.run_stream(stream, scheduler=scheduler, recorder=recorder)
    wall_s = time.perf_counter() - start
    return {
        "wall_s": round(wall_s, 4),
        "n_nodes": n_nodes,
        "n_jobs": n_jobs,
        "scheduler": scheduler,
        "makespan_s": round(float(result.makespan_s), 6),
        "samples": int(result.sample_times.size),
        "n_steps": int(result.n_steps),
        "checksum": round(float(np.sum(result.runtimes())), 6),
    }


#: Oscillating bucket for the shaper-heavy case: replenish slightly
#: above the cap, so throttled nodes climb back over the resume
#: threshold and flip tiers forever (the Figure 18 straggler dynamic).
_OSC_BUCKET = dict(
    peak_gbps=10.0,
    capped_gbps=1.0,
    replenish_gbps=1.05,
    capacity_gbit=40.0,
    resume_threshold_gbit=1.0,
)


def _oscillating_buckets(n_nodes: int) -> list[TokenBucketModel]:
    """Token buckets whose sender budgets start in two phase groups.

    Members of a group sit a float residue apart (the near-tie
    fragmentation pattern event-horizon coalescing absorbs); every
    other node idles at a full bucket.
    """
    models = []
    n_senders = 0
    for i in range(n_nodes):
        if i % 8 == 0:
            start = 2.0 + (n_senders % 2) * 16.0 + n_senders * 1e-10
            n_senders += 1
        else:
            start = None  # full bucket, idles at capacity
        params = TokenBucketParams(**_OSC_BUCKET, initial_budget_gbit=start)
        models.append(TokenBucketModel(params))
    return models


def _staggered_percore(n_nodes: int) -> list[PerCoreQosModel]:
    """GCE per-core QoS links with staggered resample intervals.

    The staggering desynchronizes the efficiency redraws, so every
    event step is small and its cost is the QoS layer itself.
    """
    return [
        PerCoreQosModel(
            cores=4, interval_s=2.0 + 0.13 * (i % 8), seed=1000 + i
        )
        for i in range(n_nodes)
    ]


def _run_fleet_sweep(
    models: list,
    duration_s: float,
    max_step_s: float,
    scalar_fleet: bool,
    state: str,
) -> dict:
    """Integrate never-completing pair flows through ``models``.

    One flow per group of 8 nodes keeps the water-filling trivial, so
    the per-step cost is the link-model layer: every model must be
    gathered, horizon-bounded and advanced each step, the O(N) scalar
    loop the fleets replace.  ``scalar_fleet`` forces that loop through
    :class:`~repro.netmodel.fleet.ScalarFleetAdapter`.  The checksum
    adds the fleet's ``state`` (``"budgets"`` or ``"limits"``) to the
    final egress rates.
    """
    n_nodes = len(models)
    egress = ScalarFleetAdapter(models) if scalar_fleet else models
    fabric = Fabric(egress, [10.0] * n_nodes)
    for i in range(0, n_nodes - 1, 8):
        fabric.add_flow(i, i + 1, 1e15)
    t = 0.0
    steps = 0
    start_t = time.perf_counter()
    while t < duration_s:
        fabric.compute_rates()
        remaining = duration_s - t
        dt = min(fabric.horizon(), max_step_s, remaining)
        if dt <= 0.0:
            dt = min(1e-6, remaining)
        fabric.advance(dt)
        t += dt
        steps += 1
    wall_s = time.perf_counter() - start_t
    fleet_state = getattr(fabric.fleet, state)()
    assert fleet_state is not None
    checksum = round(
        float(np.sum(fabric.node_egress_rates()) + np.sum(fleet_state)), 6
    )
    return {"wall_s": round(wall_s, 4), "n_steps": steps, "checksum": checksum}


def bench_fleet_vs_scalar(
    build_models: Callable[[int], list],
    state: str,
    max_step_s: float,
    n_nodes: int = 64,
    duration_s: float = 300.0,
) -> dict:
    """One fleet sweep through the vectorized fleet and the scalar loop.

    The two paths are bit-exact by construction (per-node RNG streams
    are fleet-independent), so a checksum or step-count mismatch fails
    the case and ``fleet_speedup`` is the pure vectorization win.
    """
    fleet_run, scalar_run = (
        _run_fleet_sweep(
            build_models(n_nodes), duration_s, max_step_s, scalar_fleet, state
        )
        for scalar_fleet in (False, True)
    )
    if scalar_run["checksum"] != fleet_run["checksum"]:
        raise AssertionError(
            "fleet and scalar-adapter paths diverged: "
            f"{fleet_run['checksum']} != {scalar_run['checksum']}"
        )
    if scalar_run["n_steps"] != fleet_run["n_steps"]:
        raise AssertionError(
            "fleet and scalar-adapter paths stepped differently: "
            f"{fleet_run['n_steps']} != {scalar_run['n_steps']}"
        )
    row = dict(fleet_run)
    row["n_nodes"] = n_nodes
    row["duration_s"] = duration_s
    row["scalar_wall_s"] = scalar_run["wall_s"]
    row["fleet_speedup"] = (
        round(scalar_run["wall_s"] / fleet_run["wall_s"], 2)
        if fleet_run["wall_s"] > 0
        else float("inf")
    )
    return row


#: Shaper for the multi-stream cells: a small, oscillating bucket
#: (replenish above the cap, tight resume threshold) so each cell's
#: event schedule is dominated by tier-flip transitions — the regime
#: where per-cell numpy dispatch, not arithmetic, is the serial cost.
_MS_BUCKET = TokenBucketParams(
    peak_gbps=10.0,
    capped_gbps=1.0,
    replenish_gbps=1.05,
    capacity_gbit=3.0,
    resume_threshold_gbit=0.5,
)


def bench_multistream(
    n_cells: int = 8,
    n_nodes: int = 2,
    n_jobs: int = 2,
    data_scale: float = 20.0,
    sample_interval_s: float = 600.0,
    seed: int = 7777,
) -> dict:
    """Batched multi-stream runner vs N serial ``run_stream`` calls.

    Builds ``n_cells`` independent shaper-transition-dominated scenario
    cells twice from the same seeds, runs one set serially and the
    other through :func:`~repro.simulator.core.run_cores` in one call
    (one concatenated super-fleet, lockstep rounds), and demands the
    per-cell results be *byte-identical* — every runtime array, step
    count, and makespan — before reporting ``batch_speedup``.  The
    gated ``wall_s`` is the batched time: the cost model for cheap
    million-cell campaigns.

    The cell shape is the campaign sweet spot: tiny clusters (where a
    serial step is almost all fixed-size numpy dispatch, the cost the
    batch amortizes) running long transfers against an oscillating
    bucket (``_MS_BUCKET`` replenishes above its cap, so shaper tier
    flips dominate the event schedule), with telemetry sampling made
    sparse so both paths measure simulation, not recording.
    """
    from repro.simulator.core import run_cores

    def build_cells() -> list[tuple[SparkEngine, list]]:
        cells = []
        for i in range(n_cells):
            rng = np.random.default_rng(seed + i)
            cluster = Cluster(
                n_nodes=n_nodes,
                node_spec=NodeSpec(slots=1),
                link_model_factory=lambda node: TokenBucketModel(_MS_BUCKET),
            )
            times = poisson_arrivals(rng, rate_per_min=4.0, n_jobs=n_jobs)
            stream = job_stream(
                rng, times, n_nodes=n_nodes, slots=1, data_scale=data_scale
            )
            engine = SparkEngine(
                cluster, rng=rng, sample_interval_s=sample_interval_s
            )
            cells.append((engine, list(stream)))
        return cells

    # Each leg is timed ``repeats`` times on freshly built (identical-
    # seed) cells and the best wall kept — the timeit convention; the
    # machine's noise is upward contention spikes, and taking the min
    # symmetrically estimates both legs' true cost without biasing the
    # ratio.  Results are deterministic, so any repeat's outputs serve
    # for the byte-identity check.
    repeats = 2
    serial_wall_s = math.inf
    serial = None
    for _ in range(repeats):
        serial_cells = build_cells()
        gc.collect()
        start = time.perf_counter()
        result = [
            engine.run_stream(stream, scheduler="fair")
            for engine, stream in serial_cells
        ]
        wall = time.perf_counter() - start
        if wall < serial_wall_s:
            serial_wall_s, serial = wall, result

    wall_s = math.inf
    batched = None
    for _ in range(repeats):
        batch_cells = build_cells()
        gc.collect()
        start = time.perf_counter()
        result = run_cores(
            [
                engine.stream_state(stream, scheduler="fair")
                for engine, stream in batch_cells
            ]
        )
        wall = time.perf_counter() - start
        if wall < wall_s:
            wall_s, batched = wall, result

    for i, (a, b) in enumerate(zip(serial, batched)):
        if (
            not np.array_equal(a.runtimes(), b.runtimes())
            or a.n_steps != b.n_steps
            or a.makespan_s != b.makespan_s
        ):
            raise AssertionError(
                f"batched cell {i} diverged from its serial run: "
                f"steps {b.n_steps} vs {a.n_steps}, "
                f"makespan {b.makespan_s} vs {a.makespan_s}"
            )
    return {
        "wall_s": round(wall_s, 4),
        "serial_wall_s": round(serial_wall_s, 4),
        "batch_speedup": (
            round(serial_wall_s / wall_s, 2) if wall_s > 0 else float("inf")
        ),
        "n_cells": n_cells,
        "n_nodes": n_nodes,
        "n_jobs": n_jobs,
        "data_scale": data_scale,
        "sample_interval_s": sample_interval_s,
        "n_steps": sum(r.n_steps for r in serial),
        "checksum": round(
            float(sum(float(np.sum(r.runtimes())) for r in serial)), 6
        ),
    }


def bench_waterfill(
    n_flows: int = 1_000,
    n_nodes: int = 64,
    rounds: int = 2,
    seed: int = 99,
) -> dict:
    """Time the max-min water-filling kernel on a dense flow set."""
    rng = np.random.default_rng(seed)
    fabric = Fabric(
        egress_models=[ConstantRateModel(10.0) for _ in range(n_nodes)],
        ingress_caps_gbps=[10.0] * n_nodes,
    )
    pairs = rng.integers(0, n_nodes, size=(n_flows, 2))
    volumes = rng.uniform(1.0, 100.0, size=n_flows)
    for (src, dst), volume in zip(pairs.tolist(), volumes.tolist()):
        if src == dst:
            dst = (dst + 1) % n_nodes
        fabric.add_flow(src, dst, volume)
    start = time.perf_counter()
    for _ in range(rounds):
        fabric.invalidate_rates()
        fabric.compute_rates()
    wall_s = (time.perf_counter() - start) / rounds
    return {
        "wall_s": round(wall_s, 6),
        "n_flows": n_flows,
        "n_nodes": n_nodes,
        "rounds": rounds,
        "checksum": round(float(np.sum(fabric.node_egress_rates())), 6),
    }


def bench_campaign_overhead(n_cells: int = 8, seed: int = 4321) -> dict:
    """Time the runtime orchestration layer itself, per cached cell.

    A store is populated with ``n_cells`` deliberately tiny scenario
    cells (untimed), then a second :class:`ScenarioCampaign` run over
    the same matrix is timed: every cell is a cache hit, so the wall
    clock is pure orchestration — manifest snapshot, per-cell document
    reads, decode, aggregation — the overhead each of the paper's
    thousands of campaign cells pays on top of its simulation.  The
    checksum sums the aggregate rows' mean runtimes, so a drift means
    the cache round-trip changed what it reproduces.
    """
    from repro.measurement.repository import TraceRepository
    from repro.scenarios.orchestrate import ScenarioCampaign, ScenarioConfig

    configs = [
        ScenarioConfig(
            n_nodes=2,
            slots=1,
            n_jobs=1,
            data_scale=0.01,
            arrival_rate_per_min=4.0,
            seed=seed + i,
        )
        for i in range(n_cells)
    ]
    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as tmp:
        repository = TraceRepository(Path(tmp) / "store")
        ScenarioCampaign(configs, repository=repository).run()
        start = time.perf_counter()
        outcome = ScenarioCampaign(configs, repository=repository).run()
        wall_s = time.perf_counter() - start
    if len(outcome.cached_ids) != n_cells:
        raise AssertionError(
            f"expected {n_cells} cache hits, got {len(outcome.cached_ids)}"
        )
    rows = outcome.aggregate_rows()
    return {
        "wall_s": round(wall_s, 4),
        "n_cells": n_cells,
        "per_cell_ms": round(wall_s / n_cells * 1_000.0, 3),
        "cache_hits": len(outcome.cached_ids),
        "checksum": round(sum(row["mean_runtime_s"] for row in rows), 6),
    }


def bench_obs_overhead(n_jobs: int = 20, seed: int = 1234) -> dict:
    """Price full observability against the recorder-off hot path.

    Runs the ``stream_16x200`` workload twice — once bare, once with a
    full :class:`~repro.obs.recorder.ObsRecorder` (metrics scraping,
    latency/queueing quantiles, job/stage/task-group/flow spans) — and
    reports both wall times plus the relative cost.  The recorder only
    *reads* engine and fabric state, so both runs must produce the
    same checksum and step count; a divergence means observability
    perturbed the simulation and the run fails outright.

    ``wall_s`` (the recorder-off time) is what the ledger's wall-time
    gate pins, so a regression on the *disabled* path — the one every
    production campaign cell pays — fails ``bench --check`` even
    though ``overhead_pct`` itself is too noisy to gate directly.
    """
    from repro.obs.recorder import ObsRecorder

    off = bench_stream(n_jobs=n_jobs, seed=seed)
    recorder = ObsRecorder(scrape_interval_s=5.0, window_s=300.0)
    on = bench_stream(n_jobs=n_jobs, seed=seed, recorder=recorder)
    if on["checksum"] != off["checksum"]:
        raise AssertionError(
            "observability perturbed the simulation: checksum "
            f"{on['checksum']} != {off['checksum']} with recorder attached"
        )
    if on["n_steps"] != off["n_steps"]:
        raise AssertionError(
            "observability perturbed the simulation: n_steps "
            f"{on['n_steps']} != {off['n_steps']} with recorder attached"
        )
    overhead_pct = (
        round((on["wall_s"] - off["wall_s"]) / off["wall_s"] * 100.0, 2)
        if off["wall_s"] > 0
        else float("inf")
    )
    return {
        "wall_s": off["wall_s"],
        "obs_wall_s": on["wall_s"],
        "overhead_pct": overhead_pct,
        "n_jobs": n_jobs,
        "n_steps": off["n_steps"],
        "spans": len(recorder.tracer.records()),
        "scrapes": int(recorder.series()["active_flows"].times.size),
        "checksum": off["checksum"],
    }


def bench_serving_openloop(
    n_nodes: int = 4,
    rate_rps: float = 40.0,
    duration_s: float = 30.0,
    seed: int = 1234,
) -> dict:
    """Time one open-loop serving cell end to end.

    The request-layer counterpart of ``stream_16x200``: a three-tier
    call tree on resampling hpccloud incarnations under a flash-crowd
    arrival process, so the gate tracks what the event core costs
    when its schedule is timer-heap pops and per-hop request flows
    instead of stage barriers.  The checksum sums every completed
    request's latency — it covers arrival draws, placement, compute
    noise, and the shaped fabric at once.
    """
    from repro.serving.scenario import ServingConfig, run_serving

    config = ServingConfig(
        provider_name="hpccloud",
        instance_name="hpccloud-8core",
        n_nodes=n_nodes,
        topology="three_tier",
        arrival="flash",
        rate_rps=rate_rps,
        duration_s=duration_s,
        slo_p99_ms=250.0,
        slo_window_s=10.0,
        seed=seed,
    )
    start = time.perf_counter()
    result = run_serving(config)
    wall_s = time.perf_counter() - start
    return {
        "wall_s": round(wall_s, 4),
        "n_nodes": n_nodes,
        "rate_rps": rate_rps,
        "duration_s": duration_s,
        "n_requests": result.n_requests,
        "n_steps": result.n_steps,
        "slo_violations": result.slo_violations,
        "checksum": round(float(result.latency["sum_s"]), 6),
    }


#: The case registry, in run order.  Every case runs at its functions'
#: default workload, the size the ``smoke`` reference was recorded at.
_CASES: dict[str, Callable[[], dict]] = {
    "stream_16x200": bench_stream,
    "stream_fair_preempt": lambda: bench_stream(scheduler="preempt"),
    "waterfill_10k": bench_waterfill,
    "shaper_64_tb": lambda: bench_fleet_vs_scalar(
        _oscillating_buckets, "budgets", max_step_s=0.1
    ),
    "percore_64": lambda: bench_fleet_vs_scalar(
        _staggered_percore, "limits", max_step_s=0.5
    ),
    "multistream_32cell": bench_multistream,
    "campaign_overhead": bench_campaign_overhead,
    "obs_overhead": bench_obs_overhead,
    "serving_openloop": bench_serving_openloop,
}


def run_suite() -> dict[str, dict]:
    """Run every case once, serially, in registry order."""
    return {name: case() for name, case in _CASES.items()}


def _print_rows(results: dict[str, dict]) -> None:
    for name, row in results.items():
        print(f"{name}: " + "  ".join(f"{k}={v}" for k, v in row.items()))


# ----------------------------------------------------------------------
# results ledger
# ----------------------------------------------------------------------
def load_results(path: Path | str = DEFAULT_RESULTS_PATH) -> dict:
    """Read the ledger; an absent file is an empty ledger."""
    path = Path(path)
    if not path.exists():
        return {
            "schema": _SCHEMA,
            "baseline": None,
            "current": None,
            "smoke": None,
            "speedup": {},
        }
    return json.loads(path.read_text())


def record_smoke(
    results: dict[str, dict], path: Path | str = DEFAULT_RESULTS_PATH
) -> dict:
    """Record ``results`` as the ledger's ``smoke`` reference.

    Every other section is rewritten exactly as it was read.
    """
    path = Path(path)
    ledger = load_results(path)
    ledger["smoke"] = {"label": "", "results": results}
    ledger["schema"] = _SCHEMA
    path.write_text(json.dumps(ledger, indent=2, sort_keys=True) + "\n")
    return ledger


#: Keys a benchmark row *measures* (timings, derived ratios, and
#: simulation outputs).  Everything else in a row is a workload
#: parameter — the knobs that define what was benchmarked — and two
#: rows are only comparable when those agree exactly.
_MEASURED_KEYS = frozenset(
    {
        "wall_s",
        "obs_wall_s",
        "scalar_wall_s",
        "serial_wall_s",
        "overhead_pct",
        "fleet_speedup",
        "batch_speedup",
        "per_cell_ms",
        "checksum",
        "makespan_s",
        "samples",
        "n_steps",
        "spans",
        "scrapes",
        "cache_hits",
        "n_requests",
        "slo_violations",
    }
)


def workload_params(row: dict) -> dict:
    """The workload-defining subset of a benchmark result row.

    The ``--check`` gate refuses to compare rows whose workload params
    differ: a wall-clock ratio between a 200-job run and a 20-job run
    (or two runs labelled with different node counts) is not a
    regression, it is a units error.  Checksums alone cannot catch
    every such mismatch — a relabelled workload can keep a stale
    checksum in the ledger — so the params are compared first.
    """
    return {k: v for k, v in row.items() if k not in _MEASURED_KEYS}


# ----------------------------------------------------------------------
# regression gate
# ----------------------------------------------------------------------
def check_results(
    results: dict[str, dict],
    reference: dict | None,
    wall_tolerance: float = 1.25,
) -> list[str]:
    """Compare a fresh suite run against a recorded reference entry.

    Returns human-readable failure strings: one per recorded case the
    run did not produce, and one per run case that is not recorded (a
    gate that silently skips either would pass a registry that lost a
    case).  Among cases present on both sides, one per case whose
    workload params no longer match the recorded row (the comparison
    itself would be meaningless — re-record the ledger), whose checksum
    drifted from the recorded value (the simulation now computes
    something different), or whose wall time exceeds ``wall_tolerance``
    times the recorded wall time (performance regression).
    """
    failures: list[str] = []
    ref_results = (reference or {}).get("results") or {}
    for name in ref_results:
        if name not in results:
            failures.append(
                f"{name}: recorded in the reference but missing from the run"
            )
    for name, row in results.items():
        ref = ref_results.get(name)
        if ref is None:
            failures.append(
                f"{name}: not in the recorded reference — re-record the "
                "ledger with --save-smoke"
            )
            continue
        params = workload_params(row)
        ref_params = workload_params(ref)
        if params != ref_params:
            failures.append(
                f"{name}: workload params differ from the recorded "
                f"reference ({params} != {ref_params}); refusing the "
                "checksum/wall comparison — re-record the ledger"
            )
            continue
        if row.get("checksum") != ref.get("checksum"):
            failures.append(
                f"{name}: checksum drifted "
                f"({row.get('checksum')} != recorded {ref.get('checksum')})"
            )
        ref_wall = ref.get("wall_s")
        wall = row.get("wall_s")
        if ref_wall and wall and wall > wall_tolerance * ref_wall:
            failures.append(
                f"{name}: wall time regressed "
                f"({wall:.4f}s > {wall_tolerance:.2f}x recorded {ref_wall:.4f}s)"
            )
    return failures


def run_check(
    path: Path | str = DEFAULT_RESULTS_PATH,
    wall_tolerance: float = 1.25,
) -> int:
    """Run the suite and gate it against the ledger (non-zero on drift).

    The reference is the ledger's ``smoke`` section (recorded with
    ``--save-smoke``); the ledger itself is never modified.  Checksum
    drift always fails; wall-time regressions fail beyond
    ``wall_tolerance`` (relax it on noisy shared runners).
    """
    # Validate the reference before burning time on the suite.
    reference = load_results(path).get("smoke")
    if not reference:
        print(
            f"error: no 'smoke' reference in {path}; record one with "
            "`python -m repro bench --save-smoke` first",
            file=sys.stderr,
        )
        return 2
    results = run_suite()
    _print_rows(results)
    failures = check_results(results, reference, wall_tolerance=wall_tolerance)
    if failures:
        for failure in failures:
            print(f"BENCH CHECK FAILED: {failure}", file=sys.stderr)
        return 1
    print(
        f"bench check ok: {len(results)} case(s) within {wall_tolerance:.2f}x "
        "of the 'smoke' reference, checksums unchanged"
    )
    return 0


def run_bench(
    path: Path | str = DEFAULT_RESULTS_PATH, save_smoke: bool = False
) -> int:
    """Run the suite and print its rows; ``save_smoke`` records them."""
    results = run_suite()
    _print_rows(results)
    if save_smoke:
        record_smoke(results, path)
        print(f"recorded smoke reference in {path}")
    return 0
