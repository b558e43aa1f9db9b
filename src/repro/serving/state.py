"""The serving workload over the event core: requests as call trees.

:class:`ServingState` implements the
:class:`~repro.simulator.core.WorkloadSource` hooks for
microservice-style request serving on the same fluid fabric the DAG
engine uses:

* **arrivals** are requests — open-loop from a lazy arrival-time
  iterator (:mod:`repro.serving.arrivals`; millions of requests never
  materialize a list), closed-loop from a pool of users that think for
  ``think_s`` between requests, or both at once;
* **timers** are service-compute completions and user think times;
* **flows** are RPC hops: a remote call's request payload travels
  ``caller-node -> callee-node`` on the fabric, the response travels
  back, and both contend with every other request's hops under the
  per-node egress shapers — which is precisely how shaper state turns
  into tail latency.

A request enters at the topology's entry service, each service
computes (lognormal around its mean, the engine's task-noise model)
then fans out to its children in parallel, and a call responds once
every child's response has arrived; the request completes when the
entry service responds.  Per-request latency (completion minus nominal
arrival — open-loop requests queue-squash included) streams into
:class:`~repro.obs.quantiles.WindowedQuantiles`, so the
:class:`~repro.serving.slo.SloPolicy` gate runs on P² estimates, never
on a stored latency list.

Replica placement is deterministic: every service is deployable on
every node, and call k to service s lands on node
``(s_index + k) % n_nodes`` — round-robin per service, offset by the
service's position so co-named tiers spread instead of stacking.
Compute is fluid (no per-node concurrency cap): the contended resource
in this model is the shaped network, matching the paper's focus.
Calls between co-located services skip the fabric entirely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.obs.quantiles import WindowedQuantiles
from repro.simulator.core import EventCore
from repro.serving.slo import SloPolicy, SloReport
from repro.serving.topology import ServiceSpec, ServiceTopology

__all__ = ["ServingState", "ServingResult", "serve"]

#: Flow-direction markers for :attr:`_Call.phase`.
_REQ, _RESP = 0, 1


class _Request:
    """One end-user request: nominal arrival time plus its issuer."""

    __slots__ = ("t_arrival", "user")

    def __init__(self, t_arrival: float, user: "_User | None") -> None:
        self.t_arrival = t_arrival
        self.user = user


class _Call:
    """One service invocation inside a request's call tree.

    Doubles as the compute-completion timer payload and as the fabric
    flow tag for its request/response hops; ``cancelled`` is the timer
    contract (serving never withdraws timers, so it stays False).
    """

    __slots__ = ("request", "spec", "node", "parent", "pending_children", "phase")

    cancelled = False

    def __init__(
        self,
        request: _Request,
        spec: ServiceSpec,
        node: int,
        parent: "_Call | None",
    ) -> None:
        self.request = request
        self.spec = spec
        self.node = node
        self.parent = parent
        self.pending_children = 0
        self.phase = _REQ

    def fire(self, state: "ServingState") -> None:
        state._compute_done(self)


class _User:
    """One closed-loop user; its timer firing means 'done thinking'."""

    __slots__ = ()

    cancelled = False

    def fire(self, state: "ServingState") -> None:
        state._user_issue(self)


@dataclass
class ServingResult:
    """Everything one serving run produced.

    The telemetry arrays (:attr:`sample_times`, ``[node, sample]``
    :attr:`egress_rates` and :attr:`budgets`) are read-only.
    """

    #: Requests admitted (open-loop arrivals plus user issues).
    n_requests: int
    #: Requests that completed their full call tree.
    n_completed: int
    #: Sim time the last event finished (may exceed the load duration:
    #: in-flight requests drain after arrivals stop).
    makespan_s: float
    #: Run-level latency summary: ``count``, ``mean_s``, ``max_s``,
    #: ``sum_s``, and the whole-run P² ``p50``/``p99``/``p999``.
    latency: dict
    #: Tumbling-window quantile rows
    #: (:meth:`~repro.obs.quantiles.WindowedQuantiles.rows`).
    windows: list
    #: SLO verdict, or ``None`` when no policy gated the run.
    slo: SloReport | None
    sample_times: np.ndarray
    egress_rates: np.ndarray
    budgets: np.ndarray | None
    n_steps: int = 0

    @property
    def slo_violations(self) -> int:
        """Violation count (0 without a policy) — provenance hook."""
        return 0 if self.slo is None else len(self.slo.violations)


class ServingState(EventCore):
    """Event-core workload: open/closed-loop request serving.

    ``engine`` supplies the cluster, the RNG (compute-noise draws), and
    the telemetry sampling interval — the same
    :class:`~repro.simulator.engine.SparkEngine` container the DAG
    workload uses, so serving and batch cells mix in one campaign.
    ``arrivals`` is a lazily-consumed iterable of absolute request
    times (open loop); ``users``/``think_s`` add a closed-loop pool
    whose members issue at t=0 and re-issue after thinking, retiring
    once ``duration_s`` has passed.
    """

    def __init__(
        self,
        engine,
        topology: ServiceTopology,
        fabric,
        *,
        duration_s: float,
        arrivals=None,
        users: int = 0,
        think_s: float = 1.0,
        payload_scale: float = 1.0,
        slo_policy: SloPolicy | None = None,
    ) -> None:
        super().__init__(engine, fabric)
        if duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if users < 0 or think_s < 0:
            raise ValueError("users and think_s cannot be negative")
        if payload_scale <= 0:
            raise ValueError("payload_scale must be positive")
        if arrivals is None and users == 0:
            raise ValueError(
                "a serving run needs load: an arrival process, users, or both"
            )
        self.topology = topology
        self._specs = topology.services
        self._entry = topology.entry
        self._duration_s = float(duration_s)
        self._think_s = float(think_s)
        self._payload_scale = float(payload_scale)
        self._slo_policy = slo_policy
        n_nodes = engine.cluster.n_nodes
        self._n_nodes = n_nodes
        # Deterministic replica placement: per-service round-robin
        # cursors, offset by service position (see module docstring).
        self._rr = {
            name: index % n_nodes
            for index, name in enumerate(topology.services)
        }
        # Open-loop arrivals: peek-ahead over the lazy iterator.
        self._arrival_iter = iter(arrivals) if arrivals is not None else None
        self._pending_arrival: float | None = (
            next(self._arrival_iter, None)
            if self._arrival_iter is not None
            else None
        )
        self._arrivals_done = self._pending_arrival is None
        # Closed-loop users issue their first request at t=0 via the
        # ordinary timer path, so begin()/epilogue ordering is shared
        # with every other event source.
        self._live_users = users
        for _ in range(users):
            self.schedule_timer(0.0, _User())
        self._in_flight = 0
        self._n_requests = 0
        self._n_completed = 0
        window_s = slo_policy.window_s if slo_policy is not None else 30.0
        self._latencies = WindowedQuantiles(window_s)
        self._lat_sum = 0.0
        self._lat_max = 0.0

    # -- placement & sampling ----------------------------------------------
    def _place(self, name: str) -> int:
        node = self._rr[name]
        self._rr[name] = (node + 1) % self._n_nodes
        return node

    def _sample_compute(self, spec: ServiceSpec) -> float:
        """Lognormal service time; the engine's task-noise model at ms scale."""
        mean_s = spec.compute_ms / 1000.0
        if mean_s == 0.0:
            return 0.0
        cov = spec.compute_cov
        if cov == 0.0:
            return mean_s
        sigma = math.sqrt(math.log(1.0 + cov**2))
        mu = math.log(mean_s) - sigma**2 / 2.0
        return float(self.engine.rng.lognormal(mean=mu, sigma=sigma))

    # -- request lifecycle -------------------------------------------------
    def _issue_request(self, t_nominal: float, user: "_User | None") -> None:
        request = _Request(t_nominal, user)
        self._n_requests += 1
        self._in_flight += 1
        # The root call arrives directly: the client sits off-fabric,
        # so only service-to-service hops consume shaped egress.
        root = _Call(request, self._specs[self._entry], self._place(self._entry), None)
        self._start_compute(root)

    def _start_compute(self, call: _Call) -> None:
        self.schedule_timer(self.now + self._sample_compute(call.spec), call)

    def _compute_done(self, call: _Call) -> None:
        children = call.spec.children
        if not children:
            self._respond(call)
            return
        call.pending_children = len(children)
        for name in children:
            spec = self._specs[name]
            child = _Call(call.request, spec, self._place(name), call)
            volume = spec.request_gbit * self._payload_scale
            if child.node != call.node and volume > 1e-12:
                self.fabric.add_flow(call.node, child.node, volume, tag=child)
            else:
                self._start_compute(child)

    def _respond(self, call: _Call) -> None:
        parent = call.parent
        if parent is None:
            self._finish_request(call.request)
            return
        volume = call.spec.response_gbit * self._payload_scale
        if call.node != parent.node and volume > 1e-12:
            call.phase = _RESP
            self.fabric.add_flow(call.node, parent.node, volume, tag=call)
        else:
            self._deliver_response(call)

    def _deliver_response(self, call: _Call) -> None:
        parent = call.parent
        parent.pending_children -= 1
        if parent.pending_children == 0:
            self._respond(parent)

    def _finish_request(self, request: _Request) -> None:
        latency = self.now - request.t_arrival
        self._latencies.add(self.now, latency)
        self._lat_sum += latency
        if latency > self._lat_max:
            self._lat_max = latency
        self._in_flight -= 1
        self._n_completed += 1
        user = request.user
        if user is not None:
            # Think, then re-issue; retirement happens at issue time so
            # a request in flight at the deadline still completes.
            self.schedule_timer(self.now + self._think_s, user)

    def _user_issue(self, user: _User) -> None:
        if self.now >= self._duration_s:
            self._live_users -= 1
            return
        self._issue_request(self.now, user)

    # -- WorkloadSource hooks ----------------------------------------------
    @property
    def all_done(self) -> bool:
        return (
            self._arrivals_done
            and self._in_flight == 0
            and self._live_users == 0
        )

    def _next_arrival_time(self) -> float:
        pending = self._pending_arrival
        return math.inf if pending is None else pending

    def _admit_arrivals(self) -> None:
        pending = self._pending_arrival
        while pending is not None and pending <= self.now + 1e-9:
            self._issue_request(pending, None)
            pending = next(self._arrival_iter, None)
        self._pending_arrival = pending
        if pending is None:
            self._arrivals_done = True

    def _on_timer(self, payload) -> None:
        payload.fire(self)

    def _on_flow_complete(self, flow) -> None:
        call = flow.tag
        if not isinstance(call, _Call):
            return
        if call.phase == _REQ:
            self._start_compute(call)
        else:
            self._deliver_response(call)

    def deadlock_error(self) -> RuntimeError:
        return RuntimeError(
            f"{super().deadlock_error()}; {self._in_flight} "
            f"request(s) in flight, {self._live_users} user(s) live"
        )

    def _build_result(self) -> ServingResult:
        sample_times, egress_rates, budgets = self.telemetry()
        n = self._n_completed
        latency = {
            "count": float(n),
            "mean_s": self._lat_sum / n if n else math.nan,
            "max_s": self._lat_max if n else math.nan,
            "sum_s": self._lat_sum,
        }
        latency.update(self._latencies.summary())
        windows = self._latencies.rows()
        slo = (
            self._slo_policy.evaluate(windows)
            if self._slo_policy is not None
            else None
        )
        return ServingResult(
            n_requests=self._n_requests,
            n_completed=self._n_completed,
            makespan_s=self.now,
            latency=latency,
            windows=windows,
            slo=slo,
            sample_times=sample_times,
            egress_rates=egress_rates,
            budgets=budgets,
            n_steps=self._n_steps,
        )


def serve(
    engine,
    topology: ServiceTopology,
    *,
    duration_s: float,
    arrivals=None,
    users: int = 0,
    think_s: float = 1.0,
    payload_scale: float = 1.0,
    slo_policy: SloPolicy | None = None,
    fabric=None,
) -> ServingResult:
    """Run one serving workload to completion; the functional entry.

    Builds a fresh fabric from the engine's cluster unless one is
    passed (warm shaper carry-in, as everywhere else).
    """
    if fabric is None:
        fabric = engine.cluster.build_fabric()
    state = ServingState(
        engine,
        topology,
        fabric,
        duration_s=duration_s,
        arrivals=arrivals,
        users=users,
        think_s=think_s,
        payload_scale=payload_scale,
        slo_policy=slo_policy,
    )
    return state.execute()
