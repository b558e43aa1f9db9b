"""Array-based reference implementations of the fabric's hot loops.

The three inner loops that dominate event-step cost — progressive-
filling water-fill, the flow completion-bound scan, and the flow
advance/completion sweep — are written here as plain-Python functions
over numpy arrays.  :class:`~repro.simulator.fabric.Fabric` does not
call them: it runs its own list loops and numpy sweeps.  These
functions are the independent reference that the kernel and max-min
oracle tests compare the fabric against bit for bit.

Every function reproduces its fabric counterpart's floating-point
operation order exactly:

* :func:`waterfill_py` is the reference progressive filling —
  first-appearance resource ordering, strict-min tie-break, per-frozen-
  flow clamped capacity subtraction — over CSR adjacency instead of
  Python lists;
* :func:`flow_min_bound_py` is ``Fabric.horizon``'s completed/stalled/
  active classification per flow;
* :func:`advance_flows_py` is ``remaining -= rate * dt`` plus the
  completion-epsilon test, writing completed indices into a caller
  scratch buffer.

:data:`HAVE_JIT` is a constant ``False``: there is no compiled
backend.  It stays only because ``perfbench``'s machine fingerprint
still reads it.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "HAVE_JIT",
    "waterfill_py",
    "flow_min_bound_py",
    "advance_flows_py",
]

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

