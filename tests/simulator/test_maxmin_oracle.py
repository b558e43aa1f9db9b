"""An independent max-min oracle for the water-fill and its reference.

The kernel tests pin the list-based water-fill and
:func:`repro.simulator._kernels.waterfill_py` against each other, but
they run the same progressive filling, so a shared mistake would pass.
This module checks the rates against the bottleneck characterisation
of max-min fairness instead (Bertsekas & Gallager, *Data Networks*
§6.5), which knows nothing of how they were computed:

* no resource carries more than its capacity;
* every flow has a bottleneck: a saturated resource on which no other
  flow gets a larger rate.

Max-min fair rates are unique, so an allocation that passes is the
right one up to float rounding.  The comparisons allow a few ulps of
the capacity per member flow, the most the filling's per-flow
subtractions can accumulate.  The slow sweep
(``pytest -m slow tests/simulator/test_maxmin_oracle.py``) draws many
more fabrics than tier-1 does.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netmodel import ConstantRateModel
from repro.simulator import Fabric
from repro.simulator._kernels import waterfill_py

#: Rounding allowance per member flow, in units of the capacity.
_ULPS_PER_FLOW = 4 * sys.float_info.epsilon


def certificate_failures(src, dst, egress, ingress, rates):
    """Ways ``rates`` fail the max-min certificate; empty when fair."""
    members: dict = {}
    for i, (s, d) in enumerate(zip(src, dst)):
        members.setdefault(("egress", s), []).append(i)
        members.setdefault(("ingress", d), []).append(i)
    failures = []
    for i, rate in enumerate(rates):
        if not 0.0 <= rate < math.inf:
            failures.append(f"flow {i} has rate {rate}")
    # Per saturated resource, the largest rate it carries.
    top = {}
    slack = {}
    for resource, flows in members.items():
        side, node = resource
        capacity = egress[node] if side == "egress" else ingress[node]
        load = math.fsum(rates[i] for i in flows)
        slack[resource] = _ULPS_PER_FLOW * len(flows) * capacity
        if load > capacity + slack[resource]:
            failures.append(f"{side} {node} carries {load} > capacity {capacity}")
        if load >= capacity - slack[resource]:
            top[resource] = max(rates[i] for i in flows)
    for i, (s, d) in enumerate(zip(src, dst)):
        if not any(
            resource in top and rates[i] >= top[resource] - slack[resource]
            for resource in (("egress", s), ("ingress", d))
        ):
            failures.append(f"flow {i} ({s}->{d}) at {rates[i]} has no bottleneck")
    return failures


def list_leg_rates(src, dst, egress, ingress):
    fabric = Fabric(
        egress_models=[ConstantRateModel(c) for c in egress],
        ingress_caps_gbps=ingress,
    )
    for s, d in zip(src, dst):
        fabric.add_flow(s, d, 1.0)
    fabric._compute_rates_lists(len(src))
    return fabric._rate[: len(src)].tolist()


def kernel_rates(src, dst, egress, ingress):
    rate = np.zeros(len(src))
    waterfill_py(
        np.asarray(src, dtype=np.intp),
        np.asarray(dst, dtype=np.intp),
        np.array(egress, dtype=float),
        np.array(ingress, dtype=float),
        rate,
    )
    return rate.tolist()


LEGS = {"list": list_leg_rates, "kernel": kernel_rates}


def random_fabric(seed, n_nodes, n_flows, capacities, topology):
    """Flow endpoints and capacities for one drawn fabric."""
    rng = np.random.default_rng(seed)
    if topology == "one_to_all":
        # Node 0 sends to every other node, several flows per pair.
        dst = [1 + (k % (n_nodes - 1)) for k in range(n_flows)]
        src = [0] * n_flows
    else:
        pairs = [rng.choice(n_nodes, size=2, replace=False) for _ in range(n_flows)]
        src = [int(p[0]) for p in pairs]
        dst = [int(p[1]) for p in pairs]
    if capacities == "tied":
        egress = [7.0] * n_nodes
        ingress = [7.0] * n_nodes
    elif capacities == "wide":
        # Log-uniform over six decades.
        egress = (10.0 ** rng.uniform(-3.0, 3.0, size=n_nodes)).tolist()
        ingress = (10.0 ** rng.uniform(-3.0, 3.0, size=n_nodes)).tolist()
    else:
        egress = rng.uniform(1.0, 12.0, size=n_nodes).tolist()
        ingress = rng.uniform(1.0, 12.0, size=n_nodes).tolist()
    return src, dst, egress, ingress


fabrics = st.builds(
    random_fabric,
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_nodes=st.integers(min_value=2, max_value=24),
    n_flows=st.integers(min_value=1, max_value=200),
    capacities=st.sampled_from(["random", "tied", "wide"]),
    topology=st.sampled_from(["random", "one_to_all"]),
)


@pytest.mark.parametrize("leg", sorted(LEGS))
class TestMaxMinCertificate:
    @given(fabric=fabrics)
    @settings(max_examples=40, deadline=None)
    def test_random_fabrics(self, leg, fabric):
        src, dst, egress, ingress = fabric
        rates = LEGS[leg](src, dst, egress, ingress)
        assert certificate_failures(src, dst, egress, ingress, rates) == []

    @pytest.mark.parametrize("capacities", ["random", "tied", "wide"])
    def test_thousand_flows_on_24_nodes(self, leg, capacities):
        src, dst, egress, ingress = random_fabric(7, 24, 1000, capacities, "random")
        rates = LEGS[leg](src, dst, egress, ingress)
        assert certificate_failures(src, dst, egress, ingress, rates) == []

    def test_one_node_sending_to_all_tied(self, leg):
        src, dst, egress, ingress = random_fabric(0, 24, 69, "tied", "one_to_all")
        rates = LEGS[leg](src, dst, egress, ingress)
        assert certificate_failures(src, dst, egress, ingress, rates) == []
        assert rates == [7.0 / 69] * 69


def test_kernel_certifies_zero_capacity_links():
    # Fabric capacities are positive, but the kernel takes raw arrays:
    # an exhausted link freezes its flows at 0, and the rest still fill.
    src, dst = [0, 0, 1, 2], [1, 2, 2, 0]
    egress, ingress = [0.0, 5.0, 3.0], [4.0, 4.0, 0.5]
    rates = kernel_rates(src, dst, egress, ingress)
    assert certificate_failures(src, dst, egress, ingress, rates) == []
    assert rates == [0.0, 0.0, 0.5, 3.0]


class TestCertificateRejects:
    # The oracle must not be vacuous: near-miss allocations fail it.
    FABRIC = ([0, 0, 1], [1, 2, 2], [10.0, 10.0, 10.0], [10.0, 10.0, 6.0])

    def test_accepts_max_min(self):
        # Node 2's ingress splits 3/3; flow 0 takes the rest of node 0.
        assert certificate_failures(*self.FABRIC, [7.0, 3.0, 3.0]) == []

    @pytest.mark.parametrize(
        "rates",
        [
            [5.0, 5.0, 1.0],  # node 0 split evenly: flow 2 has no bottleneck
            [7.0, 3.0, 3.5],  # node 2's ingress overcommitted
            [6.0, 3.0, 3.0],  # flow 0 left below a free resource
            [7.0, 2.0, 4.0],  # flow 1 is bottlenecked where flow 2 gets more
            [7.0, 3.0, math.nan],
        ],
    )
    def test_rejects_unfair(self, rates):
        assert certificate_failures(*self.FABRIC, rates)


@pytest.mark.slow
@pytest.mark.parametrize("leg", sorted(LEGS))
@given(fabric=fabrics)
@settings(max_examples=4000, deadline=None)
def test_wide_sweep(leg, fabric):
    src, dst, egress, ingress = fabric
    rates = LEGS[leg](src, dst, egress, ingress)
    assert certificate_failures(src, dst, egress, ingress, rates) == []
