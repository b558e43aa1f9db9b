"""Experiment execution under a design's reset policy.

:class:`ExperimentRunner` is generic: any callable that produces one
scalar measurement per invocation can be repeated under a design.
:class:`SimulatorExperiment` adapts the Spark simulator: each
invocation runs one job, and the reset policy maps onto fabric
handling — fresh fabrics (fresh VMs), idle rests (bucket refill), or
carried-over state (the Figure 19 flaw).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np

from repro.core.design import ExperimentDesign, ResetPolicy
from repro.simulator.cluster import Cluster
from repro.simulator.engine import SparkEngine, rest_fabric
from repro.simulator.fabric import Fabric
from repro.simulator.tasks import JobSpec

__all__ = ["Experiment", "ExperimentRunner", "SimulatorExperiment"]


class Experiment(Protocol):
    """One measurable experiment."""

    def measure(self) -> float:
        """Run once and return the measurement (e.g. runtime seconds)."""

    def reset(self) -> None:
        """Restore pristine state (fresh VMs)."""

    def rest(self, duration_s: float) -> None:
        """Leave the infrastructure idle for ``duration_s``."""


@dataclass
class _CallableExperiment:
    """Wraps a plain callable into the Experiment protocol."""

    fn: Callable[[], float]

    def measure(self) -> float:
        return float(self.fn())

    def reset(self) -> None:  # plain callables are stateless
        pass

    def rest(self, duration_s: float) -> None:
        pass


class ExperimentRunner:
    """Runs an experiment repeatedly under an
    :class:`~repro.core.design.ExperimentDesign`."""

    def __init__(self, design: ExperimentDesign) -> None:
        self.design = design

    def collect(self, experiment: Experiment | Callable[[], float]) -> np.ndarray:
        """Collect ``design.repetitions`` measurements in order.

        The returned array preserves collection order, which downstream
        CONFIRM analysis requires.
        """
        if callable(experiment) and not hasattr(experiment, "measure"):
            experiment = _CallableExperiment(experiment)
        samples = np.empty(self.design.repetitions)
        for i in range(self.design.repetitions):
            if i > 0:
                if self.design.reset_policy is ResetPolicy.FRESH:
                    experiment.reset()
                elif self.design.reset_policy is ResetPolicy.REST:
                    experiment.rest(self.design.rest_s)
            samples[i] = experiment.measure()
        return samples


class SimulatorExperiment:
    """A big-data job on a shaped cluster, as a repeatable experiment.

    ``budget_gbit`` optionally forces every node's token-bucket budget
    at each reset, reproducing the Figure 19 protocol ("at the
    beginning of each repetition, we reset the token budget").

    ``run_noise_cov`` adds a run-level lognormal factor to the measured
    runtime.  The simulator isolates *network* variability; experiments
    the paper ran directly on clouds (Figure 13) additionally see CPU,
    memory-bandwidth and I/O contention that varies per run — this knob
    models those other sources explicitly rather than pretending they
    do not exist.
    """

    def __init__(
        self,
        cluster: Cluster,
        job: JobSpec,
        rng: np.random.Generator | None = None,
        budget_gbit: float | None = None,
        node_data_skew: list[float] | None = None,
        run_noise_cov: float = 0.0,
    ) -> None:
        if run_noise_cov < 0:
            raise ValueError("run_noise_cov cannot be negative")
        self.cluster = cluster
        self.job = job
        self.rng = rng or np.random.default_rng(0)
        self.budget_gbit = budget_gbit
        self.run_noise_cov = float(run_noise_cov)
        self.engine = SparkEngine(
            cluster, rng=self.rng, node_data_skew=node_data_skew
        )
        self.fabric: Fabric = cluster.build_fabric()
        self._apply_budget()

    def _apply_budget(self) -> None:
        if self.budget_gbit is None:
            return
        for model in self.fabric.egress_models:
            if hasattr(model, "set_budget"):
                model.set_budget(self.budget_gbit)
        # The budgets changed behind the fabric's back.
        self.fabric.invalidate_rates()

    def measure(self) -> float:
        """Run the job once on the current fabric; returns runtime."""
        result = self.engine.run(self.job, fabric=self.fabric)
        runtime = result.runtime_s
        if self.run_noise_cov > 0:
            import math

            sigma = math.sqrt(math.log(1.0 + self.run_noise_cov**2))
            runtime *= float(
                self.rng.lognormal(mean=-(sigma**2) / 2.0, sigma=sigma)
            )
        return runtime

    def reset(self) -> None:
        """Fresh VMs: a brand-new fabric (and budget, if forced)."""
        self.fabric = self.cluster.build_fabric()
        self._apply_budget()

    def rest(self, duration_s: float) -> None:
        """Idle the network so shapers refill."""
        rest_fabric(self.fabric, duration_s)

    def set_budget(self, budget_gbit: float) -> None:
        """Force every shaper's budget (Figure 19's depletion ladder)."""
        self.budget_gbit = budget_gbit
        self._apply_budget()
