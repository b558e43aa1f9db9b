"""Generative models of cloud network behaviour.

Section 3 of the paper characterizes three very different clouds:

* **Amazon EC2** — a token-bucket traffic shaper per VM: full line rate
  (10 Gbps on c5.xlarge) until a budget empties after ~10 minutes, then
  a hard cap (1 Gbps) with a ~1 Gbit/s replenish rate
  (:mod:`repro.netmodel.token_bucket`);
* **Google Cloud** — per-core bandwidth QoS (2 Gbps/core) with
  access-pattern-dependent variability: steady flows are stable, bursty
  flows see a long lower tail (:mod:`repro.netmodel.percore`);
* **HPCCloud** — a small private cloud with no QoS enforcement where
  noisy neighbours produce stochastic, autocorrelated variability
  (:mod:`repro.netmodel.stochastic`).

:mod:`repro.netmodel.distributions` provides quantile-parameterized
distributions (used for the Ballani A-H clouds of Figure 2), and
:mod:`repro.netmodel.nic` / :mod:`repro.netmodel.latency` model the
virtual-NIC implementation differences behind Figures 7, 8 and 12.

All models implement the :class:`repro.netmodel.base.LinkModel`
interface so the emulator, measurement probes, and cluster simulator
can drive any of them interchangeably.  For whole-cluster simulation,
:mod:`repro.netmodel.fleet` batches N links into one
:class:`~repro.netmodel.fleet.LinkModelFleet` with struct-of-arrays
state (vectorized limit/horizon/advance; the scalar objects' state
slots read and write the fleet arrays), falling back to a per-model
:class:`~repro.netmodel.fleet.ScalarFleetAdapter` loop for
heterogeneous or custom models.
"""

from repro.netmodel.base import (
    ConstantRateModel,
    LinkModel,
    integrate_transfer,
)
from repro.netmodel.fleet import (
    ConstantRateFleet,
    LinkModelFleet,
    PerCoreQosFleet,
    ResamplingFleet,
    ScalarFleetAdapter,
    TokenBucketFleet,
    build_fleet,
)
from repro.netmodel.cpu_bucket import CpuBucketParams, CpuTokenBucket
from repro.netmodel.distributions import QuantileDistribution
from repro.netmodel.latency import Ec2LatencyModel, GceLatencyModel, LatencyModel
from repro.netmodel.nic import NicBehavior, VirtualNic, WriteSizeEffect
from repro.netmodel.percore import PerCoreQosModel
from repro.netmodel.state import model_from_state, model_state_dict
from repro.netmodel.stochastic import (
    Ar1QuantileModel,
    UniformQuantileSamplingModel,
)
from repro.netmodel.token_bucket import TokenBucketModel, TokenBucketParams

__all__ = [
    "LinkModel",
    "model_state_dict",
    "model_from_state",
    "ConstantRateModel",
    "integrate_transfer",
    "LinkModelFleet",
    "TokenBucketFleet",
    "ConstantRateFleet",
    "ResamplingFleet",
    "PerCoreQosFleet",
    "ScalarFleetAdapter",
    "build_fleet",
    "TokenBucketModel",
    "TokenBucketParams",
    "CpuTokenBucket",
    "CpuBucketParams",
    "PerCoreQosModel",
    "Ar1QuantileModel",
    "UniformQuantileSamplingModel",
    "QuantileDistribution",
    "VirtualNic",
    "NicBehavior",
    "WriteSizeEffect",
    "LatencyModel",
    "Ec2LatencyModel",
    "GceLatencyModel",
]
