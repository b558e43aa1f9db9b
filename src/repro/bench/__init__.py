"""The ``repro bench`` wall-time and checksum gate.

Nine CI-sized hot-path cases (multi-tenant streams under the fair and
preempting schedulers, a water-filling microbench, shaper and per-core
QoS fleet-vs-scalar sweeps, batched vs serial multi-stream cells, a
cached campaign, the stream under a full observability recorder, and
an open-loop serving cell) run once each.  ``python -m repro bench
--check`` exits non-zero when any case's workload params or checksum
differ from the ``smoke`` section of ``BENCH_engine.json``, when the
run and the reference name different cases, or when a wall time
exceeds ``--wall-tolerance`` times the recorded one.
``--save-smoke`` re-records that section.

The repository's benchmark is ``perfbench/`` (repeated fresh-process
passes, calibrated host times, per-layer traces); this gate stays only
because it is CI's wall-time check.  See
:mod:`repro.bench.hotpath` for the cases and the tier-1 tests that pin
them.
"""

from repro.bench.hotpath import (
    DEFAULT_RESULTS_PATH,
    bench_campaign_overhead,
    bench_fleet_vs_scalar,
    bench_multistream,
    bench_obs_overhead,
    bench_serving_openloop,
    bench_stream,
    bench_waterfill,
    check_results,
    load_results,
    record_smoke,
    run_bench,
    run_check,
    run_suite,
    workload_params,
)

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
