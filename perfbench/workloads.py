"""The benchmark's workloads: inputs from a seed, one timed pass, its outputs.

Each workload drives only public entry points of the program.  Building
a workload (the constructor) is its set-up: importing the modules it
uses and building its inputs.  :meth:`run_pass` runs one pass and
returns a :class:`Pass`: the host seconds of the timed region, the
calibrated seconds of the same region (see ``calibrate.py``), the
units of work done (jobs, requests or cells), the simulation outputs
that are pinned in ``pins.json``, and any invariant that failed.
Simulated statistics are correctness outputs: every pass of a run must
produce the same outputs.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Input sizes per workload (what one pass simulates).  dag_stream keeps
#: about 100 flows live, above the 64 where the fabric's water-fill
#: leaves its scalar path; the other workloads stay below it.
DAG_STREAM = dict(
    provider_name="amazon",
    instance_name="c5.large",
    n_nodes=24,
    slots=4,
    n_jobs=8,
    app="terasort",
    arrival_rate_per_min=30.0,
    scheduler="fair",
    data_scale=3.0,
)
SERVING_FLASH = dict(
    provider_name="hpccloud",
    instance_name="hpccloud-8core",
    n_nodes=8,
    topology="three_tier",
    arrival="flash",
    rate_rps=90.0,
    duration_s=30.0,
    slo_p99_ms=60.0,
    slo_window_s=5.0,
)
#: Independent clusters per dag_stream pass, each running the stream above.
DAG_CLUSTERS = 2
CAMPAIGN = dict(
    providers=("amazon", "google", "hpccloud"),
    schedulers=("fifo", "fair"),
    arrival_rates=(2.0, 4.0, 8.0, 16.0),
    workloads=("hibench",),
    n_jobs=6,
    n_nodes=4,
)
CAMPAIGN_SHARDS = 2
#: Warm passes re-read the merged store this many times per pass.
WARM_READS_PER_PASS = 20


@dataclass
class Pass:
    wall_s: float
    cal_s: float
    units: int
    outputs: dict
    problems: list = field(default_factory=list)
    #: Share of cells served from the store (campaign workloads).
    cache_hit_frac: float = 0.0


def _runtimes_checksum(results) -> float:
    """Sum over cells (in key order) of each cell's summed runtimes."""
    return round(
        sum(float(np.sum(results[key].runtimes)) for key in sorted(results)), 6
    )


class DagStream:
    """Terasort job streams on shaped clusters: build, then run_stream.

    Every job is the same HiBench app, so the seed varies what the paper
    varies (provider incarnations, arrival times, compute noise) and not
    the job mix: with a random mix of apps, the concurrent flow count,
    and with it the host cost of a pass, swings by a quarter between
    seeds.  Even so, one stream's step count moves by about 5% with the
    seed, and its host cost with it; a pass therefore runs independent
    streams on ``DAG_CLUSTERS`` clusters, which averages that out.
    """

    unit = "jobs"

    def __init__(self, seed: int, workdir: Path, timer) -> None:
        self.seed = seed
        self.timer = timer
        self._built = self._build()

    def _build(self) -> list:
        """Per cluster: incarnations, fabric, arrivals, jobs and engine."""
        from repro.cloud.providers import default_providers
        from repro.scenarios.generate import poisson_arrivals
        from repro.simulator.cluster import Cluster, NodeSpec
        from repro.simulator.engine import SparkEngine
        from repro.workloads.hibench import HIBENCH_APPS

        size = DAG_STREAM
        provider = default_providers()[size["provider_name"]]
        build_job = HIBENCH_APPS[size["app"]]
        built = []
        for index in range(DAG_CLUSTERS):
            rng = np.random.default_rng([self.seed, index])
            models = [
                provider.link_model(size["instance_name"], rng)
                for _ in range(size["n_nodes"])
            ]
            cluster = Cluster(
                n_nodes=size["n_nodes"],
                node_spec=NodeSpec(slots=size["slots"]),
                link_model_factory=models.__getitem__,
            )
            times = poisson_arrivals(
                rng, rate_per_min=size["arrival_rate_per_min"], n_jobs=size["n_jobs"]
            )
            stream = [
                (
                    float(t),
                    build_job(
                        n_nodes=size["n_nodes"],
                        slots=size["slots"],
                        data_scale=size["data_scale"],
                    ),
                )
                for t in times
            ]
            built.append(
                (SparkEngine(cluster, rng=rng), stream, cluster.build_fabric())
            )
        return built

    def run_pass(self) -> Pass:
        built = self._built or self._build()
        self._built = None
        results, wall, cal = self.timer(
            lambda: [
                engine.run_stream(
                    stream, scheduler=DAG_STREAM["scheduler"], fabric=fabric
                )
                for engine, stream, fabric in built
            ]
        )
        runtimes = np.concatenate([result.runtimes() for result in results])
        problems = []
        expected = DAG_CLUSTERS * DAG_STREAM["n_jobs"]
        if len(runtimes) != expected:
            problems.append(f"{len(runtimes)} of {expected} jobs finished")
        if not np.all(np.isfinite(runtimes) & (runtimes > 0)):
            problems.append("non-finite or non-positive job runtime")
        return Pass(
            wall,
            cal,
            len(runtimes),
            {
                "checksum": round(float(np.sum(runtimes)), 6),
                "n_steps": sum(int(result.n_steps) for result in results),
                "makespan_s": round(max(float(r.makespan_s) for r in results), 6),
            },
            problems,
        )


class ServingFlash:
    """Open-loop flash-crowd serving in simulated time: prepare, then execute."""

    unit = "requests"

    def __init__(self, seed: int, workdir: Path, timer) -> None:
        from repro.serving import scenario

        self._scenario = scenario
        self.timer = timer
        self.config = scenario.ServingConfig(seed=seed, **SERVING_FLASH)
        self._prepared = scenario.prepare_serving(self.config)

    def run_pass(self) -> Pass:
        prepared = self._prepared or self._scenario.prepare_serving(self.config)
        self._prepared = None
        result, wall, cal = self.timer(prepared.state.execute)
        problems = []
        if result.n_completed != result.n_requests or result.n_requests == 0:
            problems.append(
                f"{result.n_completed} of {result.n_requests} requests completed"
            )
        return Pass(
            wall,
            cal,
            int(result.n_completed),
            {
                "n_requests": int(result.n_requests),
                "latency_sum_s": round(float(result.latency["sum_s"]), 9),
                "n_steps": int(result.n_steps),
                "slo_violations": (
                    0 if result.slo is None else len(result.slo.violations)
                ),
            },
            problems,
        )


class _Campaign:
    """The campaign matrix shared by the three campaign workloads."""

    unit = "cells"

    def __init__(self, seed: int, workdir: Path, timer) -> None:
        from repro.scenarios import orchestrate

        self._orchestrate = orchestrate
        self.timer = timer
        self.workdir = workdir
        self.configs = orchestrate.scenario_matrix(seed=seed, **CAMPAIGN)
        self.cells = orchestrate.scenario_cells(self.configs)
        self._passes = 0

    def sharded_run(self, root: Path) -> dict:
        """Cold ``repro campaign run`` in-process: manifests to merged store."""
        from repro.runtime import worker

        codec = self._orchestrate.SCENARIO_CODEC
        manifests = worker.write_shard_manifests(
            self.cells,
            n_shards=CAMPAIGN_SHARDS,
            directory=root / "manifests",
            encode_ref=codec.encode_ref,
            decode_ref=codec.decode_ref,
        )
        shard_roots = []
        for index, manifest in enumerate(manifests):
            shard_root = root / f"shard-{index}"
            worker.run_manifest(manifest, shard_root, echo=None, audit_resume=True)
            shard_roots.append(shard_root)
        return worker.merge_stores(shard_roots, root / "merged")

    def store_outputs(self, root: Path) -> tuple[dict, list, int]:
        """Checksum and content hash of a merged store, problems, cells stored."""
        from repro.runtime.store import ArtifactStore

        store = ArtifactStore(root)
        problems = []
        stored = set(store.keys())
        missing = [cell for cell in self.cells if cell.key not in stored]
        if missing:
            problems.append(f"{len(missing)} cells missing from the merged store")
        report = store.verify()
        if not report.ok:
            problems.append(f"store verify: {len(report.problems)} problems")
        results = {
            cell.key: self._orchestrate.decode_scenario_result(
                cell, store.get(cell.key)
            )
            for cell in self.cells
            if cell.key in stored
        }
        outputs = {
            "checksum": _runtimes_checksum(results),
            "content_hash": store.content_hash(),
        }
        return outputs, problems, len(results)

    def _pass_dir(self) -> Path:
        self._passes += 1
        path = self.workdir / f"pass-{self._passes}"
        shutil.rmtree(path, ignore_errors=True)
        return path


class CampaignSharded(_Campaign):
    """2-shard cold campaign: write manifests, run each shard, merge."""

    def run_pass(self) -> Pass:
        root = self._pass_dir()
        try:
            summary, wall, cal = self.timer(lambda: self.sharded_run(root))
            outputs, problems, stored = self.store_outputs(root / "merged")
        finally:
            shutil.rmtree(root, ignore_errors=True)
        if summary["content_hash"] != outputs["content_hash"]:
            problems.append("merge summary hash differs from the store's")
        return Pass(wall, cal, stored, outputs, problems)


class CampaignBatched(_Campaign):
    """The same matrix through the batched multistream executor, no store."""

    def run_pass(self) -> Pass:
        campaign = self._orchestrate.ScenarioCampaign(
            self.configs, executor=self._orchestrate.batch_executor()
        )
        outcome, wall, cal = self.timer(campaign.run)
        problems = []
        if len(outcome.results) != len(self.cells):
            problems.append(
                f"{len(outcome.results)} of {len(self.cells)} cells returned"
            )
        return Pass(
            wall,
            cal,
            len(outcome.results),
            {"checksum": _runtimes_checksum(outcome.results)},
            problems,
        )

    def cross_check(self) -> list:
        """The batched result of one cell must equal its serial run."""
        config = self.configs[0]
        batched = self._orchestrate.run_scenarios_batched([config])[0]
        serial = self._orchestrate.run_scenario(config)
        if not np.array_equal(batched.runtimes, serial.runtimes):
            return [f"batched != serial for cell {config.scenario_id}"]
        return []


class CampaignWarm(_Campaign):
    """Cache-hit reads: repeated ScenarioCampaign.run over a merged store."""

    def __init__(self, seed: int, workdir: Path, timer) -> None:
        super().__init__(seed, workdir, timer)
        from repro.measurement.repository import TraceRepository

        root = workdir / "warm"
        shutil.rmtree(root, ignore_errors=True)
        self.sharded_run(root)
        self.cold_outputs, self.cold_problems, _ = self.store_outputs(
            root / "merged"
        )
        self.repository = TraceRepository(root / "merged")

    def run_pass(self) -> Pass:
        def reads():
            return [
                self._orchestrate.ScenarioCampaign(
                    self.configs, repository=self.repository
                ).run()
                for _ in range(WARM_READS_PER_PASS)
            ]

        outcomes, wall, cal = self.timer(reads)
        problems = list(self.cold_problems)
        hits = sum(len(outcome.cached_ids) for outcome in outcomes)
        if hits != WARM_READS_PER_PASS * len(self.cells):
            problems.append(
                f"{hits} cache hits of {WARM_READS_PER_PASS * len(self.cells)}"
            )
        checksum = _runtimes_checksum(outcomes[-1].results)
        if checksum != self.cold_outputs["checksum"]:
            problems.append("warm reads differ from the cold results")
        total = sum(
            len(o.cached_ids) + len(o.computed_ids) for o in outcomes
        )
        return Pass(wall, cal, hits, dict(self.cold_outputs), problems, hits / total)


WORKLOADS = {
    "dag_stream": DagStream,
    "serving_flash": ServingFlash,
    "campaign_sharded": CampaignSharded,
    "campaign_batched": CampaignBatched,
    "campaign_warm": CampaignWarm,
}
