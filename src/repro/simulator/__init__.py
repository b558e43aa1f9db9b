"""A discrete-event, fluid-flow simulator of a Spark-like cluster.

Section 4 runs HiBench and TPC-DS on a 12-node Spark cluster whose
network is shaped by the emulated EC2 token bucket.  The application-
level phenomena the paper reports — budget-dependent slowdowns
(Figures 15-17), shaper-induced stragglers (Figure 18), and non-iid
repetitions (Figure 19) — all arise from the *interaction* between the
stage/shuffle structure of the jobs and the per-node shapers.  This
package models exactly that interaction:

* :mod:`repro.simulator.core` — the workload-agnostic event-driven
  core (:class:`EventCore` + the :class:`WorkloadSource` hook
  protocol) shared by the DAG stream engine and ``repro.serving``;
* :mod:`repro.simulator.fabric` — fluid flows with max-min fair
  sharing, bounded by per-node egress shapers (any
  :class:`~repro.netmodel.base.LinkModel`) and ingress capacities;
* :mod:`repro.simulator.cluster` — node and cluster descriptions;
* :mod:`repro.simulator.tasks` — tasks, stages, and job DAGs;
* :mod:`repro.simulator.engine` — the DAG scheduler / execution engine
  producing runtimes and per-node utilization/budget telemetry.

**Hot-path design (array-based fabric).**  Campaign throughput is
gated by the event loop's per-step cost, so the innermost state is
struct-of-arrays: the fabric keeps flow ``src``/``dst``/``remaining``/
``rate`` in flat numpy arrays (insertion-ordered; :class:`Flow`
objects are handles into them).  Water-filling, the flow
completion-bound scan, and the flow advance each have one
implementation in the fabric: a list loop up to ``_SWEEP_CUTOVER`` live
flows and numpy sweeps above it, with the same arithmetic for every
flow count.  Per event step the cost is

* one lazy water-filling — skipped entirely unless a flow arrived or
  completed, a shaper ceiling moved, or a caller invalidated rates;
  otherwise O(bottlenecks x flows);
* O(changed flows) topology upkeep: a flow arrival or
  completion appends to or removes from its two nodes' flow lists,
  which the water-filling reads as its resources instead of rebuilding
  them from every live flow;
* one cached per-node egress aggregation (``bincount``), shared by
  telemetry, ``horizon``, and ``advance`` instead of recomputed
  thrice;
* one ``horizons`` and one ``advance`` call on the node shapers'
  fleet (:mod:`repro.netmodel.fleet`), not one call per model;
* O(1) scheduler bookkeeping: runnable stages are maintained
  incrementally at stage-completion/launch-exhaustion events, and
  launch passes are skipped on steps where no slot was freed, no
  stage became runnable, and no job arrived.

Telemetry appends into growable preallocated numpy buffers.  The
refactor is *bit-exact* against the reference implementation — the
golden-trace test (``tests/simulator/test_golden_trace.py``) pins
pre-refactor outputs, and determinism tests guarantee same seed ⇒
identical timings.  ``python -m repro bench --check`` gates the
checksums and wall times of nine CI-sized hot-path cases (streams, a
1000-flow water-fill, fleet sweeps, batched cells, serving) against
``BENCH_engine.json``; ``perfbench/`` is the repeated, per-layer
benchmark.

**Result telemetry is read-only.**
:meth:`~repro.simulator.core.EventCore.telemetry` trims the buffers
into one read-only copy per result.  A stream result's per-job
telemetry arrays are windows (views) of the stream's, so a result holds
its samples once, not once per job, and no caller can write through one
job's window into another's.
"""

from repro.simulator.cluster import Cluster, NodeSpec
from repro.simulator.core import EventCore, WorkloadSource
from repro.simulator.engine import (
    SCHEDULERS,
    JobResult,
    SparkEngine,
    StreamResult,
)
from repro.simulator.fabric import Fabric, Flow
from repro.simulator.tasks import JobSpec, StageSpec

__all__ = [
    "EventCore",
    "WorkloadSource",
    "Fabric",
    "Flow",
    "Cluster",
    "NodeSpec",
    "JobSpec",
    "StageSpec",
    "SparkEngine",
    "JobResult",
    "StreamResult",
    "SCHEDULERS",
]
