"""Batched multi-stream runner: many cells, one super-fleet, lockstep.

A campaign matrix is hundreds of *independent* small simulations, and
profiles of serial campaign execution show the per-event-step cost is
dominated not by arithmetic but by numpy ufunc dispatch on tiny
per-cell arrays — above all the shaper fleet's ``horizons`` and
``advance`` calls (a handful of vector ops over 4-16 links, paid per
cell per step).  This module amortizes that dispatch across cells: the
struct-of-arrays trick applied one level up.

This is the cold campaign path: the single-process executor
(:class:`~repro.runtime.executors.BatchExecutor`, the default of
``CampaignRunner``, ``Campaign(workers=1)`` and ``run_manifest`` at one
worker) hands runs of independent scenario and serving cells to
:func:`run_cells` through their cell functions' batched forms.

:func:`run_streams` builds each cell's engine state exactly as
:meth:`~repro.simulator.engine.SparkEngine.run_stream` would, then
stitches the cells' shaper fleets into one concatenated super-fleet
(:func:`~repro.netmodel.fleet.concat_fleets`) whose arrays the
per-cell fleets alias as slice views.  The driver then advances all
live cells in lockstep rounds:

1. per cell: the engine step prologue (rates, telemetry, next
   engine-side event) — pure per-cell Python, unchanged;
2. **one** ``horizons`` call on the super-fleet over every cell's
   egress rates, sliced back per cell for the horizon combine in
   :meth:`~repro.simulator.fabric.Fabric.horizon`;
3. **one** fleet ``advance`` call with a per-link ``dt`` vector — each
   cell steps by *its own* event horizon; lockstep synchronizes
   Python-level rounds, never simulated clocks;
4. per cell: flow integration and the engine step epilogue.

Per-cell floating-point arithmetic, RNG draw order, and event order
are exactly the serial path's — every batched fleet operation is
elementwise in ``dt``, and the per-cell combines are selection-only —
so results are bit-identical to N ``run_stream`` calls (pinned by
tests/simulator/test_multistream.py across every scheduler).

Cells that finish early stay in the super-fleet as zero-``dt`` no-op
links until the last cell completes; a zero-``dt`` advance provably
leaves budgets, tiers, and clocks untouched regardless of the offered
rates.  Constraints: every cell's fleet must be the same concrete
class (:func:`run_cells` groups heterogeneous matrices by fleet class
first), and recorders are unsupported (attach one by running the cell
serially).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.netmodel.fleet import concat_fleets
from repro.simulator.core import EventCore
from repro.simulator.engine import SparkEngine, StreamResult, _StreamState
from repro.simulator.fabric import Fabric

__all__ = ["StreamTask", "stream_state", "run_streams", "run_cores", "run_cells"]


@dataclass
class StreamTask:
    """One cell of a batched run: the ``run_stream`` argument tuple."""

    engine: SparkEngine
    arrivals: Sequence[tuple]
    scheduler: str = "fifo"
    #: Optional pre-built fabric (warm shaper state carry-in); built
    #: from the engine's cluster when None, as ``run_stream`` does.
    fabric: Fabric | None = field(default=None)


def stream_state(task: StreamTask) -> _StreamState:
    """The event core ``run_stream`` would build for ``task``, unrun."""
    arrivals = list(task.arrivals)
    SparkEngine.validate_stream(arrivals, task.scheduler)
    fabric = task.fabric
    if fabric is None:
        fabric = task.engine.cluster.build_fabric()
    return _StreamState(
        task.engine, arrivals, fabric, scheduler=task.scheduler, recorder=None
    )


def run_streams(tasks: Sequence[StreamTask]) -> list[StreamResult]:
    """Run every task's stream, batched; results match serial order.

    Equivalent to ``[t.engine.run_stream(t.arrivals, fabric=t.fabric,
    scheduler=t.scheduler) for t in tasks]`` — bit-identically, per
    cell — but with all cells' shaper-fleet work batched through one
    concatenated super-fleet.

    Raises ValueError when the tasks' fleets are not all the same
    concrete class; callers with mixed matrices should use
    :func:`run_cells`, which groups by fleet class.
    """
    return run_cores([stream_state(task) for task in tasks])


def run_cores(states: "Sequence[EventCore]") -> list:
    """Advance pre-built event cores in lockstep; one result per core.

    The workload-agnostic batched driver: any
    :class:`~repro.simulator.core.EventCore` subclass — DAG stream
    states, serving states — rides the same super-fleet lockstep,
    because the driver only speaks the core's begin / step_prologue /
    step_epilogue / all_done / finish protocol plus the fabric's
    batched shaper interface.  Equivalent to
    ``[state.execute() for state in states]`` bit-identically per core
    (see the module docstring for why); per-core step budgets come
    from ``state.max_steps``.

    Constraints are :func:`run_streams`'s: every core's fleet must be
    the same concrete class, and recorders must be detached.
    """
    states = list(states)
    if not states:
        return []
    super_fleet = concat_fleets([state.fabric.fleet for state in states])
    n_cells = len(states)
    sizes = np.array([state.fabric.n_nodes for state in states], dtype=np.intp)
    offsets = np.zeros(n_cells + 1, dtype=np.intp)
    np.cumsum(sizes, out=offsets[1:])
    lo = offsets[:-1].tolist()
    hi = offsets[1:].tolist()
    n_links = int(offsets[-1])
    # Egress and dt staging for the batched fleet calls.  Each cell's
    # fabric maintains its egress cache directly in its slice of
    # ``all_egress`` (see ``Fabric._egress_raw``), so the prologue
    # never copies egress vectors around.  Finished cells keep dt 0 —
    # a zero-dt advance is a no-op for every fleet class whatever the
    # egress values, so they ride along (egress slice stale, never
    # read back) until the whole batch drains.
    all_egress = np.zeros(n_links, dtype=float)
    for state, cell_lo, cell_hi in zip(states, lo, hi):
        fabric = state.fabric
        fabric._egress_cache = None
        fabric._egress_out = all_egress[cell_lo:cell_hi]
    # Per-link dt expansion: one indexed gather per round instead of a
    # fresh np.repeat allocation.
    cell_of_link = np.repeat(np.arange(n_cells, dtype=np.intp), sizes)
    dt_links = np.empty(n_links, dtype=float)
    changed_buf = np.empty(n_cells, dtype=bool)
    dt_buf = np.zeros(n_cells, dtype=float)
    # Per-cell dt lives in a plain list (read and written every round
    # per cell); it is copied into ``dt_buf`` once per round for the
    # batched fleet call.
    dt_cells = [0.0] * n_cells
    events_in = [math.inf] * n_cells
    steps_left = [state.max_steps for state in states]
    for state in states:
        state.begin()
    active = [ci for ci in range(n_cells) if not states[ci].all_done]
    while active:
        for ci in active:
            state = states[ci]
            events_in[ci] = state.step_prologue()
            # Refills the cell's slice of all_egress in place (no-op
            # when the cached egress is still valid).
            state.fabric._egress_raw()
        shaper_all = super_fleet.horizons(all_egress).tolist()
        for ci in active:
            state = states[ci]
            horizon = state.fabric.horizon(shaper_all[lo[ci] : hi[ci]])
            dt = min(horizon, events_in[ci])
            if math.isinf(dt):
                raise state.deadlock_error()
            if math.isnan(dt):
                raise state.nan_step_error(horizon, events_in[ci])
            dt_cells[ci] = dt if dt > 0.0 else 0.0
        dt_buf[:] = dt_cells
        np.take(dt_buf, cell_of_link, out=dt_links)
        changed_links = super_fleet.advance(dt_links, all_egress)
        changed_cells = (
            None
            if changed_links is None
            else np.logical_or.reduceat(
                changed_links, offsets[:-1], out=changed_buf
            ).tolist()
        )
        still_active = []
        for ci in active:
            state = states[ci]
            dt = dt_cells[ci]
            limit_changed = (
                changed_cells[ci] if changed_cells is not None else False
            )
            completed_flows = state.fabric._advance_flows(dt, limit_changed)
            state.step_epilogue(dt, completed_flows)
            if state.all_done:
                # Park the cell: zero dt makes its links no-ops in
                # every subsequent batched round (whatever its stale
                # egress slice holds, a zero-dt advance changes no
                # fleet state and its horizons are never read).
                dt_cells[ci] = 0.0
                continue
            steps_left[ci] -= 1
            if steps_left[ci] <= 0:
                raise state.step_budget_error()
            still_active.append(ci)
        active = still_active
    for state in states:
        # Unhook the staging views so fabrics that outlive the batch
        # (warm-state carry-out) allocate their own egress buffers.
        state.fabric._egress_out = None
    return [state.finish() for state in states]


def run_cells(
    configs: Sequence, upstreams: Sequence | None, prepare: Callable, finish: Callable
) -> list:
    """Prepare campaign cells, run them batched, finish them; in order.

    ``prepare(config, upstream=...)`` builds a cell with a ``fabric``
    and a ``state``, its unrun :class:`~repro.simulator.core.EventCore`;
    ``finish(prepared, outcome)`` makes the cell's result.  Cells are
    grouped by fleet class, as the super-fleet requires, and each group
    is one :func:`run_cores` call; the cells are independent, so each
    result is bit-identical to the cell's serial run.
    """
    if upstreams is None:
        upstreams = [None] * len(configs)
    if len(upstreams) != len(configs):
        raise ValueError("one upstream entry (or None) per config required")
    prepared = [
        prepare(config, upstream=upstream)
        for config, upstream in zip(configs, upstreams)
    ]
    groups: dict[type, list[int]] = {}
    for index, prep in enumerate(prepared):
        groups.setdefault(type(prep.fabric.fleet), []).append(index)
    results: list = [None] * len(prepared)
    for indices in groups.values():
        outcomes = run_cores([prepared[i].state for i in indices])
        for i, outcome in zip(indices, outcomes):
            results[i] = finish(prepared[i], outcome)
    return results
