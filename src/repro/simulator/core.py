"""The workload-agnostic event-driven core of the fluid simulation.

:class:`EventCore` owns simulated time, the timer heap, telemetry
sampling, observability dispatch, and the begin / step-prologue /
step-epilogue / finish protocol; everything *workload-shaped* (what
arrives, what a timer completion means, what gets dispatched onto the
fabric) happens through the :class:`WorkloadSource` hooks a subclass
implements.

Two workloads ride the core today:

* ``repro.simulator.engine._StreamState`` — DAG job streams under the
  fifo/fair/preempt/srpt/edf schedulers.
* ``repro.serving.state.ServingState`` — open/closed-loop request
  serving over microservice call trees (per-hop fabric flows, think
  timers, SLO latency telemetry).

An event step is::

    events_in = state.step_prologue()        # rates, telemetry, bound
    dt = min(horizon, events_in)             # piecewise-exact step
    completed = <advance shapers and flows by dt>
    state.step_epilogue(dt, completed)       # timers, arrivals, dispatch

:func:`run_cores` is the one loop that steps cores.  It writes the
per-core work once — prologue, the choice of ``dt`` with its deadlock
and NaN checks, the epilogue, the step budget and parking — and
branches on the core count in two places only, where the horizon is
taken and where the fabric advances:

* one core asks its own fabric: :meth:`~repro.simulator.fabric.Fabric.horizon`,
  which skips the shaper fleet while its cached floor clears the next
  flow completion, and :meth:`~repro.simulator.fabric.Fabric.advance`;
* two or more cores advance in lockstep rounds through one
  concatenated shaper super-fleet (:func:`~repro.netmodel.fleet.concat_fleets`):
  one ``horizons`` and one per-link-``dt`` ``advance`` call per round
  for every core, which amortizes numpy dispatch across campaign
  cells.  Each core still steps by its own ``dt``; lockstep
  synchronizes Python-level rounds, never simulated clocks.

Both branches run the same per-core arithmetic in the same order (the
fleet operations are elementwise in ``dt`` and the horizon combine only
selects among float64 values), so a core's result does not depend on
how many cores share its call.  :meth:`EventCore.execute` is the
one-core call.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro.netmodel.fleet import concat_fleets

__all__ = ["EventCore", "WorkloadSource", "MAX_STEPS", "run_cores"]

#: Safety valve: steps one workload unit (job, request pool) may need.
MAX_STEPS = 5_000_000


def _read_only(buf: np.ndarray) -> np.ndarray:
    """A non-writeable copy of ``buf``; its views are non-writeable too."""
    arr = buf.copy()
    arr.flags.writeable = False
    return arr


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
        #: Step budget: :func:`run_cores` refuses a core still running
        #: after this many steps; subclasses scale it by their
        #: workload size.
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

    def telemetry(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """The samples recorded so far, trimmed, copied and read-only.

        Returns ``(sample_times, egress_rates, budgets)``: the sample
        times, then ``[node, sample]`` egress rates (Gbps) and budgets
        (Gbit; ``None`` when the shapers expose no budget).  ``now``
        never decreases, so neither do the sample times.  Each array is
        a fresh copy and none is writeable, so results may hand out
        windows (views) of them without one caller being able to write
        into another's telemetry.
        """
        k = self._n_samples
        budgets = self._budget_buf
        return (
            _read_only(self._t_buf[:k]),
            _read_only(self._rate_buf[:k]).T,
            None if budgets is None else _read_only(budgets[:k]).T,
        )

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

    # -- step protocol -----------------------------------------------------
    #
    # run_cores (below) drives every core through these helpers; it
    # alone chooses dt and advances the fabric between prologue and
    # epilogue.

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
        """The error :func:`run_cores` raises when no event is due.

        Workloads override it to append their queued work.
        """
        fabric = self.fabric
        stalled = int(np.count_nonzero(fabric._rate[: fabric._n] == 0.0))
        return RuntimeError(
            f"deadlock at {self._state_dump()}, {stalled} flows at zero "
            "rate; no flow, timer or arrival can make progress"
        )

    def step_budget_error(self) -> RuntimeError:
        """The error :func:`run_cores` raises when ``max_steps`` runs out."""
        return RuntimeError(
            f"step budget exhausted at {self._state_dump()}; stream did "
            "not converge"
        )

    def nan_step_error(self, horizon: float, events_in: float) -> RuntimeError:
        """The error :func:`run_cores` raises when the step length is NaN.

        A NaN horizon (from a shaper model, say) would otherwise be
        clamped to a zero step, forever.
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
        """Run this core to completion alone; returns its result."""
        return run_cores([self])[0]


def run_cores(states: Sequence[EventCore]) -> list:
    """Run event cores to completion; one result per core, in order.

    Every core — DAG stream states, serving states, any
    :class:`EventCore` subclass — steps through the same loop, and its
    result is bit-identical whatever else shares the call (see the
    module docstring).  A core that steps ``max_steps`` times and is
    not done raises :meth:`~EventCore.step_budget_error`; one that
    finishes on its last budgeted step completes.

    With two or more cores, every core's fleet must be the same
    concrete class and no recorder may be attached
    (:func:`~repro.netmodel.fleet.concat_fleets` raises ValueError).
    """
    states = list(states)
    if not states:
        return []
    # The selection on core count: a lone core (lockstep None) runs on
    # its own fabric, which keeps the serial shaper-floor skip.
    lockstep = _Lockstep(states) if len(states) > 1 else None
    alone = states[0]
    n_cores = len(states)
    events_in = [math.inf] * n_cores
    horizons = [math.inf] * n_cores
    dt_cores = [0.0] * n_cores
    completed: list[list] = [[] for _ in states]
    for state in states:
        state.begin()
    active = [ci for ci, state in enumerate(states) if not state.all_done]
    while active:
        for ci in active:
            events_in[ci] = states[ci].step_prologue()
        if lockstep is None:
            horizons[0] = alone.fabric.horizon()
        else:
            lockstep.horizons(active, horizons)
        for ci in active:
            horizon = horizons[ci]
            dt = min(horizon, events_in[ci])
            if math.isinf(dt):
                raise states[ci].deadlock_error()
            if math.isnan(dt):
                raise states[ci].nan_step_error(horizon, events_in[ci])
            dt_cores[ci] = dt if dt > 0.0 else 0.0
        if lockstep is None:
            if alone._obs is not None:
                # Shaper transitions fire from inside advance(); stamp
                # them at the end of the step being integrated.
                alone._obs.now = alone.now + dt_cores[0]
            completed[0] = alone.fabric.advance(dt_cores[0])
        else:
            lockstep.advance(active, dt_cores, completed)
        finished = False
        for ci in active:
            state = states[ci]
            state.step_epilogue(dt_cores[ci], completed[ci])
            if state.all_done:
                # Park the core: a zero dt makes its links no-ops in
                # every later lockstep round.
                dt_cores[ci] = 0.0
                finished = True
            elif state._n_steps >= state.max_steps:
                raise state.step_budget_error()
        if finished:
            active = [ci for ci in active if not states[ci].all_done]
    if lockstep is not None:
        lockstep.release()
    return [state.finish() for state in states]


class _Lockstep:
    """Shaper work of two or more cores as one super-fleet per round.

    The cores' fleets are stitched into one concatenated super-fleet
    whose arrays the per-core fleets alias as slice views.  Each core's
    fabric keeps its egress cache directly in its slice of
    ``egress`` (see ``Fabric._egress_raw``), so the per-round
    ``horizons`` and ``advance`` calls read every core's offered rates
    without copying.  A parked core keeps dt 0: a zero-dt advance
    changes no fleet state whatever its stale egress slice holds, and
    its horizons are never read.
    """

    def __init__(self, states: list[EventCore]) -> None:
        self.states = states
        self.fleet = concat_fleets([state.fabric.fleet for state in states])
        n_cores = len(states)
        sizes = np.array([state.fabric.n_nodes for state in states], dtype=np.intp)
        offsets = np.zeros(n_cores + 1, dtype=np.intp)
        np.cumsum(sizes, out=offsets[1:])
        self.starts = offsets[:-1]
        self.lo = offsets[:-1].tolist()
        self.hi = offsets[1:].tolist()
        n_links = int(offsets[-1])
        self.egress = np.zeros(n_links, dtype=float)
        for state, lo, hi in zip(states, self.lo, self.hi):
            fabric = state.fabric
            fabric._egress_cache = None
            fabric._egress_out = self.egress[lo:hi]
        # Per-link dt expansion: one indexed gather per round instead
        # of a fresh np.repeat allocation.
        self.core_of_link = np.repeat(np.arange(n_cores, dtype=np.intp), sizes)
        self.dt_links = np.empty(n_links, dtype=float)
        self.dt_buf = np.zeros(n_cores, dtype=float)
        self.changed_buf = np.empty(n_cores, dtype=bool)
        self.unchanged = [False] * n_cores

    def horizons(self, active: list[int], out: list[float]) -> None:
        """Write each active core's horizon into ``out``, from one
        super-fleet call."""
        states = self.states
        for ci in active:
            # Refills the core's slice of egress in place (a no-op
            # while its cached egress is valid).
            states[ci].fabric._egress_raw()
        shaper_all = self.fleet.horizons(self.egress).tolist()
        lo, hi = self.lo, self.hi
        for ci in active:
            out[ci] = states[ci].fabric.horizon(shaper_all[lo[ci] : hi[ci]])

    def advance(
        self, active: list[int], dt_cores: list[float], out: list[list]
    ) -> None:
        """Advance every core by its own dt; write each active core's
        completed flows into ``out``."""
        self.dt_buf[:] = dt_cores
        np.take(self.dt_buf, self.core_of_link, out=self.dt_links)
        changed_links = self.fleet.advance(self.dt_links, self.egress)
        changed = (
            self.unchanged
            if changed_links is None
            else np.logical_or.reduceat(
                changed_links, self.starts, out=self.changed_buf
            ).tolist()
        )
        states = self.states
        for ci in active:
            out[ci] = states[ci].fabric._advance_flows(dt_cores[ci], changed[ci])

    def release(self) -> None:
        """Unhook the staging views, so fabrics that outlive the run
        (warm-state carry-out) allocate their own egress buffers."""
        for state in self.states:
            state.fabric._egress_out = None
