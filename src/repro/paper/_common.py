"""Shared helpers for the figure reproductions."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.cloud.providers import Ec2Provider, GceProvider, HpcCloudProvider
from repro.netmodel.base import LinkModel
from repro.netmodel.distributions import QuantileDistribution
from repro.netmodel.stochastic import UniformQuantileSamplingModel
from repro.netmodel.token_bucket import TokenBucketModel, TokenBucketParams
from repro.runtime.campaign import CampaignRunner
from repro.runtime.cell import Cell
from repro.runtime.executors import executor_for
from repro.simulator.cluster import Cluster

__all__ = [
    "C5_XLARGE_BUCKET",
    "token_bucket_cluster",
    "ballani_cluster",
    "gce_cluster",
    "hpccloud_cluster",
    "run_replay_cells",
]


def run_replay_cells(
    fn_ref: str, payloads: Sequence[dict], workers: int = 1
) -> list:
    """Run a figure's replay sweep through the :mod:`repro.runtime` layer.

    ``fn_ref`` names a module-level cell function (``"module:callable"``)
    and each payload fully determines one sweep cell (budgets, seeds,
    repetition counts); results come back in payload order.  Because
    every cell seeds its own generator from the payload, ``workers``
    changes only the wall clock, never the numbers — the same contract
    ``--seed`` gives the CLI everywhere else.  Payloads must be
    distinct (they are content-hashed into cell keys).  ``workers < 1``
    raises :class:`ValueError`.
    """
    executor = executor_for(workers)
    cells = [Cell(fn=fn_ref, payload=payload) for payload in payloads]
    outcome = CampaignRunner(cells, executor=executor).run()
    return [outcome.results[cell.key] for cell in cells]

#: The c5.xlarge shaper constants used throughout Section 4's
#: emulation (high 10 Gbps, low 1 Gbps, ~1 Gbit/s replenish).
C5_XLARGE_BUCKET = TokenBucketParams(
    peak_gbps=10.0,
    capped_gbps=1.0,
    replenish_gbps=0.95,
    capacity_gbit=5_400.0,
)


def token_bucket_cluster(
    budget_gbit: float,
    n_nodes: int = 12,
    params: TokenBucketParams = C5_XLARGE_BUCKET,
    slots: int = 4,
) -> Cluster:
    """The Section 4 testbed: per-node c5.xlarge-style token buckets."""

    def factory(node: int) -> LinkModel:
        return TokenBucketModel(params.with_budget(budget_gbit))

    return Cluster.emulation_testbed(n_nodes, factory, slots=slots)


def ballani_cluster(
    distribution: QuantileDistribution,
    sample_interval_s: float = 5.0,
    n_nodes: int = 16,
    seed: int = 0,
    slots: int = 4,
) -> Cluster:
    """The Section 2.1 emulation: 16 machines, per-node bandwidth
    redrawn from a Ballani distribution every ``sample_interval_s``."""

    def factory(node: int) -> LinkModel:
        return UniformQuantileSamplingModel(
            distribution, interval_s=sample_interval_s, seed=seed * 1_000 + node
        )

    return Cluster.emulation_testbed(n_nodes, factory, slots=slots)


def gce_cluster(
    cores: int = 8, n_nodes: int = 12, seed: int = 0, slots: int = 4
) -> Cluster:
    """A cluster of GCE instances (per-core QoS egress models)."""
    provider = GceProvider()
    instance = f"gce-{cores}core"

    def factory(node: int) -> LinkModel:
        rng = np.random.default_rng(seed * 1_000 + node)
        return provider.link_model(instance, rng)

    return Cluster.emulation_testbed(n_nodes, factory, slots=slots)


def hpccloud_cluster(
    cores: int = 8, n_nodes: int = 12, seed: int = 0, slots: int = 4
) -> Cluster:
    """A cluster of HPCCloud nodes (AR(1) contention egress models)."""
    provider = HpcCloudProvider()
    instance = f"hpccloud-{cores}core"

    def factory(node: int) -> LinkModel:
        rng = np.random.default_rng(seed * 1_000 + node)
        return provider.link_model(instance, rng)

    return Cluster.emulation_testbed(n_nodes, factory, slots=slots)
