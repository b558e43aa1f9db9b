"""The workload-agnostic event-driven core of the fluid simulation.

Historically the event loop lived inside the engine's ``_StreamState``,
interleaved with DAG-job bookkeeping.  This module is that loop with
the workload factored out: :class:`EventCore` owns simulated time, the
timer heap, telemetry sampling, observability dispatch, and the
begin / step-prologue / step-epilogue / finish protocol the batched
multistream driver also speaks — while everything *workload-shaped*
(what arrives, what a timer completion means, what gets dispatched
onto the fabric) happens through the :class:`WorkloadSource` hooks a
subclass implements.

Two workloads ride the core today:

* ``repro.simulator.engine._StreamState`` — DAG job streams under the
  fifo/fair/preempt/srpt/edf schedulers.  The split is purely
  structural: every statement of the pre-split loop runs in the same
  order with the same operands, so golden traces, scheduler
  checksums, and ``repro bench --check`` results are bit-identical to
  the monolithic implementation.
* ``repro.serving.state.ServingState`` — open/closed-loop request
  serving over microservice call trees (per-hop fabric flows, think
  timers, SLO latency telemetry).

An event step is::

    events_in = state.step_prologue()        # rates, telemetry, bound
    dt = min(fabric.horizon(), events_in)    # piecewise-exact step
    completed = fabric.advance(dt)
    state.step_epilogue(dt, completed)       # timers, arrivals, dispatch

:meth:`EventCore.execute` drives that loop serially;
:func:`repro.simulator.multistream.run_cores` drives many cores in
lockstep through one concatenated shaper super-fleet.  Both produce
bit-identical results because the per-core arithmetic is unchanged —
only who calls the hooks differs.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Protocol, runtime_checkable

import numpy as np

__all__ = ["EventCore", "WorkloadSource", "MAX_STEPS"]

#: Safety valve: steps one workload unit (job, request pool) may need.
MAX_STEPS = 5_000_000


@runtime_checkable
class WorkloadSource(Protocol):
    """The hook surface a workload implements over :class:`EventCore`.

    The core feeds three event kinds into the step loop — admissions,
    timer completions, and flow completions — and the workload decides
    what each means.  Hooks are named for their generic role; the DAG
    stream engine maps them to job admission / task-compute completion
    / shuffle-flow completion, the serving layer to request admission /
    service-compute (or think-time) completion / RPC-hop completion.
    """

    @property
    def all_done(self) -> bool:
        """True when no further event can produce work."""
        ...

    def _next_arrival_time(self) -> float:
        """Absolute time of the next external arrival (inf when none).

        Bounds the step size so admissions happen exactly on time;
        the default core implementation returns ``math.inf`` (purely
        timer/flow-driven workloads).
        """
        ...

    def _admit_arrivals(self) -> None:
        """Admit every external arrival due at (or epsilon-past) now."""
        ...

    def _try_launch(self) -> None:
        """Dispatch admitted-but-unlaunched work onto slots/fabric.

        Called whenever an event step set ``_sched_dirty`` (an
        admission, completion, or preemption changed what could run).
        """
        ...

    def _on_timer(self, payload: object) -> None:
        """Handle one due timer.  ``payload.cancelled`` timers are
        discarded by the core before this is called."""
        ...

    def _on_flow_complete(self, flow: object) -> None:
        """Handle one fabric flow that finished during the last step."""
        ...

    def _build_result(self) -> object:
        """Assemble the workload's result object (called by finish)."""
        ...


class EventCore:
    """Generic event-driven state: time, timers, telemetry, the loop.

    Subclasses implement the :class:`WorkloadSource` hooks.  ``engine``
    supplies the cluster (node count for telemetry), the RNG, and the
    telemetry sampling interval; ``fabric`` is the shared network the
    workload's flows traverse.  ``recorder`` attaches an
    :class:`~repro.obs.ObsRecorder`; it is normalized to ``None`` when
    absent or disabled so the hot path pays exactly one identity check
    per event, and it only reads state — results are bit-identical
    with and without one.
    """

    def __init__(self, engine, fabric, recorder=None) -> None:
        self.engine = engine
        self.fabric = fabric
        self.now = 0.0
        self._obs = (
            recorder
            if recorder is not None and getattr(recorder, "enabled", True)
            else None
        )
        # Dispatch passes are pure no-ops unless an event changed what
        # could run since the last pass; the flag lets flow-only event
        # steps skip scheduling.
        self._sched_dirty = True
        #: The timer heap: ``(due_time, seq, payload)`` triples.  The
        #: monotone sequence number makes equal-time pops stable, and
        #: payloads expose ``cancelled`` so withdrawn timers (e.g. a
        #: preempted task group's queued completions) are discarded
        #: lazily at the heap.
        self.timer_heap: list[tuple[float, int, object]] = []
        self._timer_counter = itertools.count()
        #: When True, the step prologue purges cancelled entries from
        #: the heap head so they never bound the step size.  Only
        #: workloads that actually cancel timers (the preemptive
        #: scheduler) pay for the purge scan.
        self._purge_cancelled = False
        #: Step budget for :meth:`execute` and the batched driver;
        #: subclasses scale it by their workload size.
        self.max_steps = MAX_STEPS
        # Telemetry: growable preallocated buffers, one row per sample.
        capacity = 1024
        n_nodes = engine.cluster.n_nodes
        self._n_samples = 0
        self._n_steps = 0
        self._t_buf = np.empty(capacity)
        self._rate_buf = np.empty((capacity, n_nodes))
        self._budget_buf: np.ndarray | None = (
            np.empty((capacity, n_nodes)) if self._budgets_available() else None
        )
        self._last_sample_t = -math.inf

    # -- workload hooks (overridden per WorkloadSource) --------------------
    @property
    def all_done(self) -> bool:
        raise NotImplementedError

    def _next_arrival_time(self) -> float:
        return math.inf

    def _admit_arrivals(self) -> None:
        pass

    def _try_launch(self) -> None:
        pass

    def _on_timer(self, payload) -> None:
        raise NotImplementedError

    def _on_flow_complete(self, flow) -> None:
        raise NotImplementedError

    def _build_result(self):
        raise NotImplementedError

    # -- timers ------------------------------------------------------------
    def schedule_timer(self, due_time: float, payload) -> None:
        """Queue ``payload`` to fire at ``due_time`` (absolute seconds)."""
        heapq.heappush(
            self.timer_heap, (due_time, next(self._timer_counter), payload)
        )

    # -- telemetry ---------------------------------------------------------
    def _budgets_available(self) -> bool:
        return self.fabric.fleet.budgets() is not None

    def _record(self, force: bool = False) -> None:
        """Record the current rate assignment, valid from ``now`` onward.

        Called after :meth:`Fabric.compute_rates` and *before*
        :meth:`Fabric.advance`, so the sample describes the upcoming
        piecewise-constant segment rather than a stale assignment.
        """
        if (
            not force
            and self.now - self._last_sample_t
            < self.engine.sample_interval_s - 1e-12
        ):
            return
        self._last_sample_t = self.now
        k = self._n_samples
        if k == self._t_buf.shape[0]:
            self._grow_telemetry()
        self._t_buf[k] = self.now
        self._rate_buf[k, :] = self.fabric._egress_raw()
        if self._budget_buf is not None:
            self._budget_buf[k, :] = self.fabric.fleet.budgets()
        self._n_samples = k + 1

    def _grow_telemetry(self) -> None:
        capacity = 2 * self._t_buf.shape[0]
        k = self._n_samples
        for name in ("_t_buf", "_rate_buf", "_budget_buf"):
            old = getattr(self, name)
            if old is None:
                continue
            new = np.empty((capacity,) + old.shape[1:])
            new[:k] = old[:k]
            setattr(self, name, new)

    # -- main loop ---------------------------------------------------------
    #
    # The event loop is split into begin / step_prologue / step_epilogue
    # / finish helpers so the serial loop below and the batched
    # multistream driver (repro.simulator.multistream) share one
    # definition of an event step.  Only the middle differs: the serial
    # loop asks its own fabric for horizon() and advance(), the batched
    # driver computes horizons and shaper advances for all cells in one
    # super-fleet call and hands each cell its own dt.  Helper order is
    # exactly the pre-split loop body, so serial traces are unchanged.

    def begin(self) -> None:
        """Admit and dispatch everything runnable at t=0."""
        self._admit_arrivals()
        self._try_launch()
        self._sched_dirty = False

    def step_prologue(self) -> float:
        """Open an event step: rates, telemetry, engine-event bound.

        Computes (or confirms) the rate assignment, samples telemetry,
        and returns the seconds until the next engine-side event —
        timer completion or external arrival — relative to ``now`` (inf
        when neither is pending).  The caller combines it with the
        fabric horizon to pick the step size.
        """
        self._n_steps += 1
        self.fabric.compute_rates()
        self._record()
        if self._obs is not None:
            self._obs.maybe_scrape(self)
        timer_heap = self.timer_heap
        if self._purge_cancelled:
            # Entries of cancelled payloads are discarded lazily;
            # purge them from the head so they never bound the
            # step size.
            heappop = heapq.heappop
            while timer_heap and timer_heap[0][2].cancelled:
                heappop(timer_heap)
        next_timer = timer_heap[0][0] if timer_heap else math.inf
        return min(
            next_timer - self.now, self._next_arrival_time() - self.now
        )

    def step_epilogue(self, dt: float, completed_flows: list) -> None:
        """Close an event step after the fabric advanced by ``dt``."""
        self.now += dt
        for flow in completed_flows:
            self._on_flow_complete(flow)
        # Drain every timer due at (or epsilon-past) the new time
        # as one batch, then run a single dispatch pass for all of it.
        timer_heap = self.timer_heap
        heappop = heapq.heappop
        due_threshold = self.now + 1e-9
        while timer_heap and timer_heap[0][0] <= due_threshold:
            payload = heappop(timer_heap)[2]
            if not payload.cancelled:
                self._on_timer(payload)
        self._admit_arrivals()
        if self._sched_dirty:
            self._sched_dirty = False
            self._try_launch()

    def _state_dump(self) -> str:
        """Time, steps taken, live flows and the next timer."""
        next_timer = self.timer_heap[0][0] if self.timer_heap else math.inf
        return (
            f"t={self.now} after {self._n_steps} steps: {self.fabric._n} "
            f"live flows, next timer at t={next_timer}"
        )

    def deadlock_error(self) -> RuntimeError:
        """The error ``execute`` and ``run_cores`` raise when no event is due.

        Workloads override it to append their queued work.
        """
        fabric = self.fabric
        stalled = int(np.count_nonzero(fabric._rate[: fabric._n] == 0.0))
        return RuntimeError(
            f"deadlock at {self._state_dump()}, {stalled} flows at zero "
            "rate; no flow, timer or arrival can make progress"
        )

    def step_budget_error(self) -> RuntimeError:
        """The error both drivers raise when ``max_steps`` runs out."""
        return RuntimeError(
            f"step budget exhausted at {self._state_dump()}; stream did "
            "not converge"
        )

    def nan_step_error(self, horizon: float, events_in: float) -> RuntimeError:
        """The error both drivers raise when the step length is NaN.

        A NaN horizon (from a shaper model, say) would otherwise reach
        the fabric's ``dt`` check in ``execute`` and be clamped to a
        zero step, forever, in ``run_cores``.
        """
        return RuntimeError(
            f"NaN step at {self._state_dump()}: fabric horizon {horizon}, "
            f"events_in {events_in}"
        )

    def finish(self):
        """Final sample, observability teardown, result assembly."""
        self.fabric.compute_rates()
        self._record(force=True)
        if self._obs is not None:
            self._obs.finalize(self)
            self.fabric.set_recorder(None)
        return self._build_result()

    def execute(self):
        self.begin()
        fabric = self.fabric
        obs = self._obs
        for _ in range(self.max_steps):
            if self.all_done:
                break
            events_in = self.step_prologue()
            horizon = fabric.horizon()
            dt = min(horizon, events_in)
            if math.isinf(dt):
                raise self.deadlock_error()
            if math.isnan(dt):
                raise self.nan_step_error(horizon, events_in)
            dt = max(dt, 0.0)
            if obs is not None:
                # Shaper transitions fire from inside advance(); stamp
                # them at the end of the step being integrated.
                obs.now = self.now + dt
            completed_flows = fabric.advance(dt)
            self.step_epilogue(dt, completed_flows)
        else:
            raise self.step_budget_error()
        return self.finish()
