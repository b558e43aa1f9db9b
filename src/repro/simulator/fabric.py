"""The cluster network fabric: fluid flows with max-min fair sharing.

Every node has an egress shaper (any
:class:`~repro.netmodel.base.LinkModel` — a token bucket for the
emulated-EC2 experiments) and an ingress capacity.  Active flows share
those resources max-min fairly, which is what TCP congestion control
approximates for long-lived shuffle transfers on a non-blocking core
(the paper's 12-node cluster has an FDR InfiniBand fabric, so node
access links are the only bottlenecks).

Rates are piecewise-constant: :meth:`Fabric.compute_rates` performs the
water-filling, :meth:`Fabric.horizon` bounds how long the current rate
assignment stays valid (flow completions and shaper transitions), and
:meth:`Fabric.advance` integrates one step, returning completed flows.

Internally the fabric is a struct-of-arrays engine: flow endpoints,
remaining volumes, and rates live in flat numpy arrays kept in flow
insertion order, and :class:`Flow` objects are handles into them.
Each node also keeps an out-list and an in-list of its flows' handles
in insertion order, updated as flows arrive and complete; they are the
water-fill topology of the list-based reference, so a flow arrival or
completion costs O(changed flows), not a rebuild over every live flow.
The resources' water-fill ranks (keyed by their first flow's id) and
the count of sending nodes are kept the same way.
Each hot loop — water-filling, the flow completion-bound scan, and the
flow advance — has exactly one implementation, here.  The water-fill
keeps its fair shares in a rank-ordered list and picks each bottleneck
with ``min``/``index``; the bound scan and advance loop over the flows
up to ``_SWEEP_CUTOVER`` live flows and sweep the flow arrays with
numpy ufuncs above it, where a few ufunc calls cost less than the loop.
The array-based functions in :mod:`repro.simulator._kernels` are an
independent reference for the same algorithms — same saturation order,
same tie-breaking (first resource in flow-insertion order wins), same
floating-point operation order for the per-flow capacity subtractions
— which the kernel tests compare against bit for bit, and the golden
trace pins the fabric's outputs exactly.

The shaper side is batched the same way: the fabric holds a
:class:`~repro.netmodel.fleet.LinkModelFleet` (built automatically
from the ``egress_models`` sequence — homogeneous model lists get
struct-of-arrays fleets, anything else the per-model
:class:`~repro.netmodel.fleet.ScalarFleetAdapter` loop), so gathering
N egress ceilings, bounding N shaper horizons, and advancing N shapers
are single array operations rather than N scalar calls per event step.
Near-tied shaper horizons additionally *coalesce*: horizons within a
relative ``coalesce_eps`` of the binding event are treated as one
event, so a fleet of look-alike token buckets whose budgets differ
only by float residue transitions in one step instead of fragmenting
into N micro-steps.

Shaper transitions are rare (an EC2 bucket drains over minutes), so
the serial :meth:`Fabric.horizon` does not ask the fleet for its N
horizons on every step.  It keeps the fleet's rate-independent floor
(:meth:`~repro.netmodel.fleet.LinkModelFleet.horizon_floor`), decays it
by each step's ``dt`` (:func:`~repro.netmodel.fleet.decay_floor`), and
drops it on a ceiling change or :meth:`Fabric.invalidate_rates`.  While
the floor lies beyond the coalescing window of the next flow
completion, that completion is the bound, bit for bit, and the fleet
call is skipped.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.netmodel.base import LinkModel
from repro.netmodel.fleet import LinkModelFleet, build_fleet, decay_floor

__all__ = ["Flow", "Fabric"]

#: Flows whose remaining volume drops to/below this complete (Gbit).
_COMPLETE_EPS_GBIT = 1e-9

#: Initial capacity of the flow arrays; doubled on demand.
_MIN_CAPACITY = 64

#: Live-flow count above which the list legs of the flow advance and
#: the completion-bound scan run as numpy ufuncs over the flow arrays.
#: Both forms do the same elementwise float64 operations, so the cutover
#: moves only time.  Measured per call (µs, best of 60 interleaved
#: trials, numpy 2.4, CPython 3.11, 2-vCPU VM):
#:
#:   flows            8     16    24    32    40    48    64    128
#:   advance list    2.0   2.9   3.8   4.7   5.5   6.5   8.1   16.2
#:   advance numpy   3.8   3.9   3.9   3.8   3.8   3.9   4.0    3.9
#:   bound list      1.5   2.1   2.7   3.5   4.1   4.5   6.1   11.9
#:   bound numpy     5.2   5.0   5.2   5.1   5.2   5.2   5.2    5.8
#:
#: The advance crosses over at about 24 flows and the bound scan at
#: about 44; one cutover between them gives up at most 1.5 µs on either.
_SWEEP_CUTOVER = 32

#: Live-flow count up to which the egress refill adds rates in a Python
#: loop; above it, ``np.bincount``.  Both add in flow order, so the
#: cutover moves only time.  Measured per call on an 8-node fabric (µs,
#: best of 200 interleaved trials, numpy 2.4, CPython 3.11, 2-vCPU VM):
#:
#:   flows        0     1     2     3     4
#:   loop        0.23  0.62  0.97  1.30  1.51
#:   bincount    0.87  0.96  0.99  1.00  0.94
#:
#: The loop wins by 0.35 µs and more below 2 flows, ties at 2, and
#: loses from 3.
_EGRESS_LOOP_MAX = 2

#: Default relative tolerance for event-horizon coalescing: shaper
#: horizons within this factor of the step bound resolve in the same
#: step.  One part per billion is far below any physically distinct
#: event spacing but wide enough to absorb accumulation residue that
#: escapes the shapers' own state-snap epsilons (budget deltas just
#: above ``_EMPTY_EPS_GBIT`` on ordinary bucket scales).
_COALESCE_EPS = 1e-9


class Flow:
    """One fluid transfer between two nodes.

    While registered, the authoritative ``remaining_gbit``/``rate_gbps``
    state lives in the owning fabric's arrays and the handle reads
    through; once completed or removed, the final values are
    materialized onto the handle (so a completed flow still reports its
    terminal state, as callers of :meth:`Fabric.advance` expect).
    """

    __slots__ = ("flow_id", "src", "dst", "tag", "_fabric", "_index", "_remaining", "_rate")

    def __init__(
        self, flow_id: int, src: int, dst: int, volume_gbit: float, tag: object = None
    ) -> None:
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.tag = tag
        self._fabric: "Fabric | None" = None
        self._index = -1
        self._remaining = float(volume_gbit)
        self._rate = 0.0

    @property
    def remaining_gbit(self) -> float:
        if self._fabric is not None:
            return float(self._fabric._remaining[self._index])
        return self._remaining

    @remaining_gbit.setter
    def remaining_gbit(self, value: float) -> None:
        if self._fabric is not None:
            self._fabric._remaining[self._index] = value
            self._fabric._flow_bound_valid = False
        else:
            self._remaining = float(value)

    @property
    def rate_gbps(self) -> float:
        if self._fabric is not None:
            return float(self._fabric._rate[self._index])
        return self._rate

    @rate_gbps.setter
    def rate_gbps(self, value: float) -> None:
        fabric = self._fabric
        if fabric is not None:
            fabric._rate[self._index] = value
            fabric._flow_bound_valid = False
            fabric._egress_cache = None
            # A hand-set rate may exceed its link's ceiling, where the
            # shaper floor proves nothing: retire the floor until the
            # next ceiling change or invalidate_rates.
            fabric._floor = fabric._floor_at_refresh = -math.inf
            fabric._floor_valid = True
        else:
            self._rate = float(value)

    def completion_time(self) -> float:
        """Seconds until completion at the current rate."""
        remaining = self.remaining_gbit
        if remaining <= 0:
            return 0.0
        rate = self.rate_gbps
        if rate <= 0:
            return math.inf
        return remaining / rate

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Flow({self.src}->{self.dst}, {self.remaining_gbit:.1f} Gbit "
            f"@ {self.rate_gbps:.2f} Gbps)"
        )


class Fabric:
    """Max-min fair fluid network between cluster nodes."""

    def __init__(
        self,
        egress_models: Sequence[LinkModel] | LinkModelFleet,
        ingress_caps_gbps: Sequence[float],
        coalesce_eps: float = _COALESCE_EPS,
    ) -> None:
        if isinstance(egress_models, LinkModelFleet):
            self.fleet = egress_models
        else:
            self.fleet = build_fleet(egress_models)
        # Comparisons written to fail on NaN, which passes ``< 0``.
        if not 0.0 <= coalesce_eps < math.inf:
            raise ValueError(
                f"coalesce_eps must be finite and non-negative, got {coalesce_eps}"
            )
        self.coalesce_eps = float(coalesce_eps)
        if self.fleet.n != len(ingress_caps_gbps):
            raise ValueError("one ingress cap per egress model required")
        if not all(0.0 < cap < math.inf for cap in ingress_caps_gbps):
            raise ValueError(
                "ingress_caps_gbps must be positive and finite, got "
                f"{list(ingress_caps_gbps)}"
            )
        self.egress_models = list(self.fleet.models)
        self.ingress_caps = [float(c) for c in ingress_caps_gbps]
        #: Number of nodes attached to the fabric.
        self.n_nodes = self.fleet.n
        self.flows: dict[int, Flow] = {}
        self._next_id = 0
        self._rates_valid = False
        # Struct-of-arrays flow state, in insertion order up to _n.
        self._src = np.zeros(_MIN_CAPACITY, dtype=np.intp)
        self._dst = np.zeros(_MIN_CAPACITY, dtype=np.intp)
        self._remaining = np.zeros(_MIN_CAPACITY, dtype=float)
        self._rate = np.zeros(_MIN_CAPACITY, dtype=float)
        self._handles: list[Flow] = []
        self._n = 0
        #: Per-node aggregate send rates under the current assignment,
        #: computed at most once per event step (``None`` = stale).
        self._egress_cache: np.ndarray | None = None
        #: Conservative lower bound on the earliest flow completion,
        #: maintained incrementally across completion-free advances so
        #: :meth:`horizon` can skip the O(flows) scan when no flow can
        #: possibly bind (see the maintenance notes in :meth:`advance`).
        self._flow_bound = math.inf
        self._flow_bound_valid = False
        #: The fleet's rate-independent lower bound on every shaper
        #: horizon (:meth:`~repro.netmodel.fleet.LinkModelFleet.
        #: horizon_floor`), decayed across steps that change no
        #: ceiling, and its value when last asked of the fleet.  While
        #: the floor lies beyond the next flow completion, :meth:`horizon`
        #: skips the fleet's ``horizons`` call.
        self._floor = 0.0
        self._floor_at_refresh = 0.0
        self._floor_valid = False
        #: Per-node handles of the flows leaving (``_out_flows``) and
        #: entering (``_in_flows``) each node, in insertion order: the
        #: water-filling topology of :meth:`_compute_rates_lists`.
        self._out_flows: list[list[Flow]] = [[] for _ in range(self.n_nodes)]
        self._in_flows: list[list[Flow]] = [[] for _ in range(self.n_nodes)]
        #: Members of resource ``node`` (egress) and ``n_nodes + node``
        #: (ingress).  It holds the lists above, which are only ever
        #: mutated in place, so it is built once.
        self._res_flows = self._out_flows + self._in_flows
        #: Rank key -> resource id of every non-empty resource.  The key
        #: is twice the id of the resource's first flow, plus one for an
        #: ingress resource; flow ids are issued in insertion order, so
        #: sorted keys give the first-appearance resource ranking.
        self._rank: dict[int, int] = {}
        #: Number of nodes with a non-empty out-list.
        self._n_senders = 0
        #: Optional external buffer for the egress cache (a view into
        #: the lockstep staging array of ``run_cores``); ``None``
        #: means refills allocate their own array.
        self._egress_out: np.ndarray | None = None

    def set_recorder(self, recorder) -> None:
        """Attach (or with ``None`` detach) an observability recorder.

        Wires the fleet's :attr:`~repro.netmodel.fleet.LinkModelFleet.
        transition_hook` to the recorder's shaper-transition handler so
        throttle/redraw events surface as metrics and trace events.
        The hook only reads fleet state; detaching restores the
        zero-overhead path.
        """
        if recorder is None:
            self.fleet.transition_hook = None
        else:
            recorder.bind_fabric(self)
            self.fleet.transition_hook = recorder.on_shaper_transition

    # ------------------------------------------------------------------
    # flow registry
    # ------------------------------------------------------------------
    def add_flow(self, src: int, dst: int, volume_gbit: float, tag: object = None) -> Flow:
        """Register a new transfer; rates are recomputed lazily."""
        if not 0 <= src < self.n_nodes or not 0 <= dst < self.n_nodes:
            raise ValueError(f"flow endpoints out of range: {src}->{dst}")
        if src == dst:
            raise ValueError("loopback transfers never touch the fabric")
        if not 0.0 < volume_gbit < math.inf:
            raise ValueError(
                f"flow volume must be positive and finite, got {volume_gbit}"
            )
        if self._n == self._src.shape[0]:
            self._grow()
        index = self._n
        self._src[index] = src
        self._dst[index] = dst
        self._remaining[index] = volume_gbit
        self._rate[index] = 0.0
        flow = Flow(self._next_id, src, dst, volume_gbit, tag=tag)
        flow._fabric = self
        flow._index = index
        self._next_id += 1
        self.flows[flow.flow_id] = flow
        self._handles.append(flow)
        members = self._out_flows[src]
        if not members:
            self._rank[2 * flow.flow_id] = src
            self._n_senders += 1
        members.append(flow)
        members = self._in_flows[dst]
        if not members:
            self._rank[2 * flow.flow_id + 1] = self.n_nodes + dst
        members.append(flow)
        self._n = index + 1
        self._rates_valid = False
        self._egress_cache = None
        self._flow_bound_valid = False
        return flow

    def remove_flow(self, flow: Flow) -> None:
        """Withdraw a flow (for cancelled tasks).

        A handle not registered here — already completed or removed,
        or owned by a different fabric (flow ids are per-fabric
        counters, so ids alone cannot identify a flow) — is a no-op.
        """
        if flow._fabric is not self:
            return
        self._compact([flow._index])
        self._rates_valid = False
        self._egress_cache = None
        self._flow_bound_valid = False

    def _grow(self) -> None:
        capacity = max(2 * self._src.shape[0], _MIN_CAPACITY)
        for name in ("_src", "_dst", "_remaining", "_rate"):
            old = getattr(self, name)
            new = np.zeros(capacity, dtype=old.dtype)
            new[: self._n] = old[: self._n]
            setattr(self, name, new)

    def _compact(self, removed: list[int]) -> None:
        """Drop the flows at ascending indices ``removed``, keeping order.

        The survivors between two removed indices (and after the last
        one) form a run; each run closes the gap in front of it with one
        slice move per state array (``arr[w:w+run] = arr[start+1:stop]``,
        which numpy copies correctly although the ranges overlap).  A
        single removal is four slice moves however many flows trail it.
        Only the survivors behind the first removed index move down, so
        only they are re-indexed.
        """
        handles = self._handles
        rank = self._rank
        for i in reversed(removed):
            handle = handles[i]
            handle._remaining = float(self._remaining[i])
            handle._rate = float(self._rate[i])
            handle._fabric = None
            handle._index = -1
            del self.flows[handle.flow_id]
            # A resource's rank key moves only when its first flow leaves.
            key = 2 * handle.flow_id
            members = self._out_flows[handle.src]
            if members[0] is handle:
                del members[0], rank[key]
                if members:
                    rank[2 * members[0].flow_id] = handle.src
                else:
                    self._n_senders -= 1
            else:
                members.remove(handle)
            members = self._in_flows[handle.dst]
            if members[0] is handle:
                del members[0], rank[key + 1]
                if members:
                    rank[2 * members[0].flow_id + 1] = self.n_nodes + handle.dst
            else:
                members.remove(handle)
            del handles[i]
        src = self._src
        dst = self._dst
        remaining = self._remaining
        rate = self._rate
        lo = write = removed[0]
        for start, stop in zip(removed, removed[1:] + [self._n]):
            start += 1
            if start < stop:
                end = write + stop - start
                src[write:end] = src[start:stop]
                dst[write:end] = dst[start:stop]
                remaining[write:end] = remaining[start:stop]
                rate[write:end] = rate[start:stop]
                write = end
        for index in range(lo, write):
            handles[index]._index = index
        self._n = write

    # ------------------------------------------------------------------
    # water-filling
    # ------------------------------------------------------------------
    def compute_rates(self) -> None:
        """Water-filling max-min fair allocation under current limits.

        Resources are node egress limits (from the shapers' current
        state) and node ingress caps.  Classic progressive filling:
        repeatedly saturate the tightest resource and freeze its flows.
        A no-op while the current assignment is still valid — flow
        arrivals/completions and shaper ceiling changes (detected by
        :meth:`advance`) invalidate it, as does
        :meth:`invalidate_rates`.
        """
        if self._rates_valid:
            return
        self._egress_cache = None
        self._flow_bound_valid = False
        n = self._n
        if n == 0:
            self._rates_valid = True
            return
        self._compute_rates_lists(n)
        self._rates_valid = True

    def _compute_rates_lists(self, n: int) -> None:
        """Progressive filling over the per-node flow lists.

        The same algorithm as :func:`repro.simulator._kernels.waterfill_py`:
        resources ranked by first appearance in the (out, src),
        (in, dst) sequence over flows in insertion order, the tightest
        fair share saturates first, the first-ranked resource wins
        exact ties, and capacity subtraction clamps per frozen flow.

        Resource ids are ``node`` (egress) and ``n_nodes + node``
        (ingress); their members are the node's out- and in-lists.  The
        rank keys of the non-empty resources are kept in ``_rank`` as
        flows arrive and leave, so a call only sorts those keys.  The
        fair shares sit in a list in rank order, and ``min`` plus
        ``index`` pick the first-ranked strict minimum in C — the
        resource a strict-``<`` scan in rank order picks.  A saturated
        resource's share becomes inf and its count zero, without the
        per-flow updates nothing reads again.  A member flow is still
        unfrozen exactly when its other resource's count is nonzero: a
        zero count means every flow of that resource is frozen.  Only
        those other resources' shares change, each recomputed with the
        same ``remaining / count`` division a full scan does.  Ingress
        caps and link models reject NaN and inf capacities, so no share
        is NaN and ``min`` is exact.
        """
        n_nodes = self.n_nodes
        res_flows = self._res_flows
        rank = self._rank
        order = list(map(rank.__getitem__, sorted(rank)))
        fleet = self.fleet
        if self._n_senders <= 4:
            # Few sending nodes: scalar limit reads beat materializing
            # (and list-converting) the whole fleet's limit array.
            res_rem = [0.0] * n_nodes + self.ingress_caps
            for rid in order:
                if rid < n_nodes:
                    res_rem[rid] = fleet.limit_at(rid)
        else:
            res_rem = fleet.limits().tolist() + self.ingress_caps
        res_cnt = list(map(len, res_flows))
        shares = [res_rem[rid] / res_cnt[rid] for rid in order]
        position = [0] * (2 * n_nodes)
        for j, rid in enumerate(order):
            position[rid] = j
        rates = [0.0] * n
        inf = math.inf
        while True:
            share = min(shares)
            if share == inf:
                break
            j = shares.index(share)
            shares[j] = inf
            best = order[j]
            res_cnt[best] = 0
            # ``v if v > 0.0 else 0.0`` is ``max(v, 0.0)``: -0.0 cannot
            # arise from IEEE subtraction under round-to-nearest.
            rate_val = share if share > 0.0 else 0.0
            egress = best < n_nodes
            for flow in res_flows[best]:
                rid = n_nodes + flow.dst if egress else flow.src
                count = res_cnt[rid]
                if count:
                    rates[flow._index] = rate_val
                    v = res_rem[rid] - rate_val
                    v = v if v > 0.0 else 0.0
                    res_rem[rid] = v
                    count -= 1
                    res_cnt[rid] = count
                    shares[position[rid]] = v / count if count else inf
        self._rate[:n] = rates

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _egress_raw(self) -> np.ndarray:
        """Per-node aggregate send rates; cached until rates change.

        When ``_egress_out`` is set (the lockstep branch of
        :func:`~repro.simulator.core.run_cores` points it at this
        cell's slice of the shared staging array),
        refills write into that buffer in place, so the caller's copy
        of the egress vector is maintained for free.
        """
        if self._egress_cache is None:
            n = self._n
            out = self._egress_out
            if out is None:
                out = np.empty(self.n_nodes, dtype=float)
            if n <= _EGRESS_LOOP_MAX:
                # bincount accumulates weights in input order; this
                # loop performs the identical additions, skipping the
                # ufunc dispatch that dominates at one or two flows.
                out.fill(0.0)
                src = self._src
                rate = self._rate
                for i in range(n):
                    out[src[i]] += rate[i]
            else:
                out[:] = np.bincount(
                    self._src[:n], weights=self._rate[:n], minlength=self.n_nodes
                )
            self._egress_cache = out
        return self._egress_cache

    def node_egress_rates(self) -> np.ndarray:
        """Aggregate send rate per node under the current assignment."""
        return self._egress_raw().copy()

    def horizon(self, shaper_bounds: Sequence[float] | None = None) -> float:
        """Seconds the current rate assignment is guaranteed valid.

        The bound is the earliest flow completion or shaper transition,
        except that shaper horizons within ``coalesce_eps`` (relative)
        of that bound coalesce into the same event: the step extends to
        the latest of the near-tied horizons, so shapers transitioning
        at float-residue-distinct instants resolve together instead of
        fragmenting the simulation into degenerate micro-steps.  Models
        tolerate the resulting sub-epsilon overshoot by contract.

        ``shaper_bounds`` of ``None`` asks this fabric's own fleet.  The
        lockstep branch of ``run_cores`` instead gathers every cell's shaper
        horizons in one super-fleet call and passes this fabric's slice
        (one horizon per node, from this fleet's state); the combine
        only selects among those float64 values, so either source gives
        the same bound.

        Two cached lower bounds let a step skip work without moving the
        answer.  Without ``shaper_bounds``, the fleet's shaper floor (see
        :meth:`~repro.netmodel.fleet.LinkModelFleet.horizon_floor`) is
        kept across steps that change no ceiling.  When it lies beyond
        the coalescing ceiling of the earliest flow completion, no
        shaper can bind or join the coalesced set, so that completion
        is the bound and the fleet's ``horizons`` call is skipped.  A
        floor decayed below that ceiling is asked of the fleet afresh,
        but only when its last fresh value cleared the ceiling.

        The flow-completion side is O(flows), and most event steps do
        not move it (steps bounded by compute completions, arrivals,
        or shaper transitions leave every remaining volume strictly
        positive), so the fabric maintains a conservative lower bound
        on the earliest flow completion across completion-free
        advances (see :meth:`advance`).  When that cached bound
        provably clears the binding shaper event's coalescing window,
        the scan cannot change the answer and is skipped.  Either way
        the returned bound is bit-identical to the full computation.
        """
        if not self._rates_valid:
            self.compute_rates()
        flow_bound = None
        if shaper_bounds is None:
            if not self._floor_valid:
                self._refresh_floor()
            one_eps = 1.0 + self.coalesce_eps
            # The cached flow bound may already show that the floor
            # cannot clear the earliest completion; then the fleet must
            # be asked anyway, and the flow scan may still be skipped.
            hopeless = (
                self._flow_bound_valid
                and self._floor <= self._flow_bound * one_eps
                and not self._refreshed_floor_clears(self._flow_bound * one_eps)
            )
            if not hopeless:
                flow_bound = self._scan_flows()
                ceiling = flow_bound * one_eps
                if self._floor > ceiling or self._refreshed_floor_clears(ceiling):
                    return flow_bound
            shaper_bounds = self.fleet.horizons(self._egress_raw()).tolist()
        shaper_min = min(shaper_bounds, default=math.inf)
        if flow_bound is None:
            flow_bound = self._flow_completion_bound(shaper_min)
        bound = flow_bound if flow_bound < shaper_min else shaper_min
        if self.coalesce_eps > 0.0 and 0.0 < bound < math.inf:
            ceiling = bound * (1.0 + self.coalesce_eps)
            # Only scan for near-ties when a shaper is at (or within
            # epsilon of) the binding event; when a flow completion
            # binds well before any shaper, there is nothing to
            # coalesce.  The near-tied set contains shaper_min, so the
            # scan seeds its maximum with it.
            if shaper_min <= ceiling:
                for h in shaper_bounds:
                    if h <= ceiling and h > bound:
                        bound = h
        return bound

    def _refresh_floor(self) -> None:
        """Ask the fleet for a fresh shaper floor."""
        self._floor = self._floor_at_refresh = self.fleet.horizon_floor()
        self._floor_valid = True

    def _refreshed_floor_clears(self, ceiling: float) -> bool:
        """Whether a fresh floor lies beyond ``ceiling``.

        The fleet is asked only when the floor's last fresh value lay
        beyond ``ceiling`` (so decay alone may have sunk it).  Otherwise
        a fresh one would most likely fall short too, and asking would
        add the fleet call to every step a shaper is close to binding.
        """
        if not self._floor_at_refresh > ceiling:
            return False
        self._refresh_floor()
        return self._floor > ceiling

    def _flow_completion_bound(self, shaper_min: float) -> float:
        """Earliest flow completion, or inf when provably not binding.

        When the cached conservative lower bound proves every flow
        completes strictly after the coalescing ceiling around the
        binding shaper event, the O(flows) scan could neither tighten
        the step nor join the coalesced set — skip it and report inf.
        (An infinite ``shaper_min`` never takes this path.)  Otherwise
        scan and refresh the cache.
        """
        if self._flow_bound_valid and self._flow_bound > shaper_min * (
            1.0 + self.coalesce_eps
        ):
            return math.inf
        return self._scan_flows()

    def _scan_flows(self) -> float:
        """The earliest flow completion, exactly; refreshes the cache."""
        n = self._n
        if n > _SWEEP_CUTOVER:
            # ``fmin`` skips NaN as the loop's ``<`` does; a remaining
            # volume at or below zero bounds the step at zero.
            remaining = self._remaining[:n]
            if np.fmin.reduce(remaining) <= 0.0:
                flow_bound = 0.0
            else:
                rate = self._rate[:n]
                active = rate > 0.0
                flow_bound = float(
                    np.fmin.reduce(
                        remaining[active] / rate[active], initial=math.inf
                    )
                )
        else:
            flow_bound = math.inf
            rates = self._rate[:n].tolist()
            for rem, rate in zip(self._remaining[:n].tolist(), rates):
                if rem <= 0.0:
                    completion = 0.0
                elif rate <= 0.0:
                    continue  # math.inf never tightens the bound
                else:
                    completion = rem / rate
                if completion < flow_bound:
                    flow_bound = completion
        self._flow_bound = flow_bound
        self._flow_bound_valid = True
        return flow_bound

    def advance(self, dt: float) -> list[Flow]:
        """Integrate ``dt`` seconds; returns flows that completed.

        Callers must not advance past :meth:`horizon`.  Shaper models
        advance with their node's aggregate egress rate so token
        buckets drain exactly as much as the flows send.  If any
        shaper's ceiling changed over the step (a token-bucket tier
        transition, a stochastic resample), the rate assignment is
        invalidated even when no flow completed — rates computed
        against the old ceiling are stale.
        """
        if not dt >= 0.0:
            raise ValueError(f"dt must be non-negative, got {dt}")
        if not self._rates_valid:
            self.compute_rates()
        egress = self._egress_raw()
        limit_changed = self.fleet.advance(dt, egress) is not None
        return self._advance_flows(dt, limit_changed)

    def _advance_flows(self, dt: float, limit_changed: bool) -> list[Flow]:
        """Flow-side half of :meth:`advance`: integrate and complete.

        The lockstep branch of ``run_cores`` advances all cells'
        shapers in one concatenated super-fleet call and then calls
        this per cell with the cell's own ``dt`` and the reduced
        per-cell limit-changed flag; :meth:`advance` calls it with its
        own fleet result.  Both run the same flow update,
        compaction, and flow-bound cache maintenance.
        """
        n = self._n
        if n > _SWEEP_CUTOVER:
            remaining = self._remaining[:n]
            remaining -= self._rate[:n] * dt
            done = (remaining <= _COMPLETE_EPS_GBIT).nonzero()[0].tolist()
        else:
            rem_list = self._remaining[:n].tolist()
            rate_list = self._rate[:n].tolist()
            done = []
            for i in range(n):
                v = rem_list[i] - rate_list[i] * dt
                rem_list[i] = v
                if v <= _COMPLETE_EPS_GBIT:
                    done.append(i)
            self._remaining[:n] = rem_list
        completed = [self._handles[i] for i in done]
        if completed:
            self._compact(done)
            self._rates_valid = False
            self._egress_cache = None
        if limit_changed:
            self._rates_valid = False
            self._floor_valid = False
        elif self._floor_valid:
            # No ceiling changed, so the fleet's contract bounds how far
            # its floor can have sunk (see decay_floor).
            self._floor = decay_floor(self._floor, dt)
        if completed or limit_changed:
            # Remaining volumes or rates moved in ways the cached
            # completion bound cannot track; drop it.
            self._flow_bound_valid = False
        elif self._flow_bound_valid:
            # No completion and no rate change: every flow's completion
            # shrank by exactly dt (up to float residue).  Keep the
            # cached lower bound valid by shifting it down dt and
            # paying a margin that strictly dominates the accumulated
            # ulp error of the ``remaining -= rate * dt`` update — the
            # relative term covers division/min rounding at any scale,
            # the dt-proportional term covers the multiply-subtract
            # residue even when the bound lands near zero.
            self._flow_bound = (self._flow_bound - dt) * (1.0 - 1e-12) - dt * 1e-12
        return completed

    def invalidate_rates(self) -> None:
        """Force a rate recomputation before the next horizon/advance.

        Required after mutating an egress model behind the fabric's
        back (``set_budget``, ``reset``, resting a shaper directly).
        It also drops the cached shaper floor: such a mutation can
        bring a shaper transition closer than the floor says, and a
        stale floor would let :meth:`horizon` step past it.
        """
        self._rates_valid = False
        self._egress_cache = None
        self._flow_bound_valid = False
        self._floor_valid = False
