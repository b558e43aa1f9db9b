"""Batched multi-stream execution: many cells, one super-fleet.

A campaign matrix is hundreds of *independent* small simulations, and
for small cells the serial cost of each event step is dominated by
numpy ufunc dispatch on tiny arrays — above all the shaper fleet's
``horizons``/``advance`` pair, paid per cell per step.
``repro.simulator.core.run_cores``, handed many cells at once,
amortizes that dispatch: it concatenates every cell's shaper fleet
into one super-fleet and advances all live cells in lockstep rounds
with a single batched fleet call pair per round, while each cell
still steps by its own event horizon.  Per-cell arithmetic, RNG
draws, and event order are untouched, so results are byte-identical
to serial ``run_stream`` calls — the identity this example asserts
before printing a speedup.

Two entry points are shown:

1. the raw runner — build each cell's ``SparkEngine.stream_state``,
   call ``run_cores`` once on all of them;
2. the campaign form — ``ScenarioCampaign(configs)`` runs a whole
   cached scenario matrix through the same machinery by default
   (chained cells run one at a time), checked here against
   ``BatchExecutor(1)``, the one-at-a-time reference.

Run with:  python examples/multistream_campaign.py
"""

import time

import numpy as np

from repro.bench.hotpath import _MS_BUCKET
from repro.netmodel import TokenBucketModel
from repro.runtime import BatchExecutor
from repro.scenarios.generate import job_stream, poisson_arrivals
from repro.scenarios.orchestrate import ScenarioCampaign, ScenarioConfig
from repro.simulator import Cluster, NodeSpec, SparkEngine
from repro.simulator.core import run_cores

N_CELLS = 16


def build_cells():
    """Small shaper-transition-heavy cells: the batching sweet spot."""
    cells = []
    for i in range(N_CELLS):
        rng = np.random.default_rng(100 + i)
        cluster = Cluster(
            n_nodes=2,
            node_spec=NodeSpec(slots=1),
            link_model_factory=lambda node: TokenBucketModel(_MS_BUCKET),
        )
        times = poisson_arrivals(rng, rate_per_min=4.0, n_jobs=2)
        stream = job_stream(rng, times, n_nodes=2, slots=1, data_scale=5.0)
        engine = SparkEngine(cluster, rng=rng, sample_interval_s=600.0)
        cells.append((engine, list(stream)))
    return cells


def raw_runner() -> None:
    print(f"-- raw runner: {N_CELLS} cells, serial vs batched --")
    start = time.perf_counter()
    serial = [
        engine.run_stream(stream, scheduler="fair")
        for engine, stream in build_cells()
    ]
    serial_wall = time.perf_counter() - start

    cells = build_cells()
    start = time.perf_counter()
    batched = run_cores(
        [engine.stream_state(stream, scheduler="fair") for engine, stream in cells]
    )
    batch_wall = time.perf_counter() - start

    # Byte-identity is the contract, not an approximation: every
    # runtime array, step count, and makespan must match exactly.
    for a, b in zip(serial, batched):
        assert np.array_equal(a.runtimes(), b.runtimes())
        assert a.n_steps == b.n_steps and a.makespan_s == b.makespan_s
    steps = sum(r.n_steps for r in serial)
    print(f"  serial : {serial_wall:6.2f}s  ({steps} steps)")
    print(f"  batched: {batch_wall:6.2f}s  (byte-identical results)")
    if batch_wall > 0:
        print(f"  speedup: {serial_wall / batch_wall:.2f}x")


def campaign_form() -> None:
    print(f"\n-- campaign form: ScenarioCampaign, batched by default --")
    configs = [
        ScenarioConfig(
            n_nodes=2,
            slots=1,
            n_jobs=2,
            arrival_rate_per_min=4.0,
            scheduler="fair",
            data_scale=0.5,
            seed=200 + i,
        )
        for i in range(N_CELLS)
    ]
    serial = ScenarioCampaign(configs, executor=BatchExecutor(1)).run().results
    batched = ScenarioCampaign(configs).run().results
    assert serial.keys() == batched.keys()
    for key, a in serial.items():
        b = batched[key]
        assert np.array_equal(a.runtimes, b.runtimes)
        assert a.makespan_s == b.makespan_s
    print(
        f"  {len(batched)} cells batched; per-cell results identical "
        "to the serial campaign"
    )


def main() -> None:
    raw_runner()
    campaign_form()


if __name__ == "__main__":
    main()
