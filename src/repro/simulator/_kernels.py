"""Compiled hot kernels for the fluid fabric, with graceful fallback.

The three inner loops that dominate event-step cost — progressive-
filling water-fill, the flow completion-bound scan, and the flow
advance/completion sweep — are written here as plain-Python functions
over numpy arrays and compiled with numba when it is importable.  The
selection happens once at import:

* numba present and ``REPRO_NO_JIT`` unset → :data:`HAVE_JIT` is True
  and the public names (:func:`waterfill`, :func:`flow_min_bound`,
  :func:`advance_flows`) are ``njit``-compiled (IEEE-strict: no
  ``fastmath``, so no FMA contraction — bit-exactness against the
  list-based reference is part of the contract and pinned by the
  golden trace);
* numba missing, or ``REPRO_NO_JIT`` set to anything non-empty →
  :data:`HAVE_JIT` is False and
  :class:`~repro.simulator.fabric.Fabric` runs its own reference
  instead: the list water-fill, and for the bound scan and the advance
  a loop over the flows up to ``fabric._SWEEP_CUTOVER`` live flows and
  numpy ufunc sweeps above it (the kernels would be *slower* as
  interpreted Python over numpy arrays, so the fallback is "don't call
  them", not "call them uncompiled").

The uncompiled originals stay importable as ``*_py`` so the identity
tests can pin kernel algorithm ≡ fabric reference even on machines
without numba.

Every kernel reproduces its fabric counterpart's floating-point
operation order exactly:

* :func:`waterfill` is the reference progressive filling —
  first-appearance resource ordering, strict-min tie-break, per-frozen-
  flow clamped capacity subtraction — over CSR adjacency instead of
  Python lists;
* :func:`flow_min_bound` is ``Fabric.horizon``'s completed/stalled/
  active classification per flow;
* :func:`advance_flows` is ``remaining -= rate * dt`` plus the
  completion-epsilon test, writing completed indices into a caller
  scratch buffer.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = [
    "HAVE_JIT",
    "waterfill",
    "flow_min_bound",
    "advance_flows",
    "waterfill_py",
    "flow_min_bound_py",
    "advance_flows_py",
]

HAVE_JIT = False
if not os.environ.get("REPRO_NO_JIT"):
    try:  # pragma: no cover - exercised only where numba is installed
        from numba import njit as _njit

        HAVE_JIT = True
    except ImportError:
        HAVE_JIT = False


def waterfill_py(
    src: np.ndarray,
    dst: np.ndarray,
    out_rem: np.ndarray,
    in_rem: np.ndarray,
    rate: np.ndarray,
) -> None:
    """Max-min progressive filling; writes per-flow rates into ``rate``.

    ``out_rem``/``in_rem`` are per-node egress/ingress capacities and
    are consumed (mutated) by the fill.  Resources are ranked by first
    appearance in the (out, src), (in, dst) sequence over flows in
    insertion order — the reference dict ordering — and the strictly
    smallest fair share freezes first.
    """
    n = src.shape[0]
    n_nodes = out_rem.shape[0]
    out_id = np.full(n_nodes, -1, np.int64)
    in_id = np.full(n_nodes, -1, np.int64)
    flow_out = np.empty(n, np.int64)
    flow_in = np.empty(n, np.int64)
    n_res = 0
    for i in range(n):
        s = src[i]
        r = out_id[s]
        if r < 0:
            r = n_res
            out_id[s] = r
            n_res += 1
        flow_out[i] = r
        d = dst[i]
        r = in_id[d]
        if r < 0:
            r = n_res
            in_id[d] = r
            n_res += 1
        flow_in[i] = r
    res_rem = np.empty(n_res, np.float64)
    res_cnt = np.zeros(n_res, np.int64)
    for node in range(n_nodes):
        r = out_id[node]
        if r >= 0:
            res_rem[r] = out_rem[node]
        r = in_id[node]
        if r >= 0:
            res_rem[r] = in_rem[node]
    for i in range(n):
        res_cnt[flow_out[i]] += 1
        res_cnt[flow_in[i]] += 1
    # CSR adjacency: resource -> member flows, ascending flow index.
    offsets = np.zeros(n_res + 1, np.int64)
    for i in range(n):
        offsets[flow_out[i] + 1] += 1
        offsets[flow_in[i] + 1] += 1
    for r in range(n_res):
        offsets[r + 1] += offsets[r]
    members = np.empty(2 * n, np.int64)
    cursor = offsets[:n_res].copy()
    for i in range(n):
        r = flow_out[i]
        members[cursor[r]] = i
        cursor[r] += 1
        r = flow_in[i]
        members[cursor[r]] = i
        cursor[r] += 1
    for i in range(n):
        rate[i] = 0.0
    fixed = np.zeros(n, np.bool_)
    n_unfixed = n
    while n_unfixed > 0:
        best = -1
        best_share = np.inf
        for r in range(n_res):
            c = res_cnt[r]
            if c > 0:
                share = res_rem[r] / c
                if share < best_share:
                    best_share = share
                    best = r
        if best < 0 or not np.isfinite(best_share):
            break
        rate_val = best_share if best_share > 0.0 else 0.0
        for k in range(offsets[best], offsets[best + 1]):
            i = members[k]
            if fixed[i]:
                continue
            fixed[i] = True
            rate[i] = rate_val
            n_unfixed -= 1
            r = flow_out[i]
            v = res_rem[r] - rate_val
            res_rem[r] = v if v > 0.0 else 0.0
            res_cnt[r] -= 1
            r = flow_in[i]
            v = res_rem[r] - rate_val
            res_rem[r] = v if v > 0.0 else 0.0
            res_cnt[r] -= 1


def flow_min_bound_py(remaining: np.ndarray, rate: np.ndarray) -> float:
    """Earliest flow completion under the current assignment (seconds).

    Completed flows (``remaining <= 0``) bound at 0, stalled flows
    (``rate <= 0``) never bind, active flows at ``remaining / rate``.
    """
    bound = np.inf
    for i in range(remaining.shape[0]):
        rem = remaining[i]
        if rem <= 0.0:
            completion = 0.0
        elif rate[i] <= 0.0:
            continue
        else:
            completion = rem / rate[i]
        if completion < bound:
            bound = completion
    return bound


def advance_flows_py(
    remaining: np.ndarray,
    rate: np.ndarray,
    dt: float,
    eps: float,
    done_idx: np.ndarray,
) -> int:
    """Integrate ``dt`` seconds of transfer; collect completed indices.

    Writes the indices of flows whose remaining volume dropped to/below
    ``eps`` into ``done_idx`` (caller scratch, length >= n) and returns
    how many there are.
    """
    n = remaining.shape[0]
    count = 0
    for i in range(n):
        rem = remaining[i] - rate[i] * dt
        remaining[i] = rem
        if rem <= eps:
            done_idx[count] = i
            count += 1
    return count


if HAVE_JIT:  # pragma: no cover - exercised only where numba is installed
    _compile = _njit(cache=True, fastmath=False)
    waterfill = _compile(waterfill_py)
    flow_min_bound = _compile(flow_min_bound_py)
    advance_flows = _compile(advance_flows_py)
else:
    waterfill = waterfill_py
    flow_min_bound = flow_min_bound_py
    advance_flows = advance_flows_py
