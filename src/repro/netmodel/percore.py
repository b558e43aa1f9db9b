"""Google Cloud's per-core bandwidth QoS model.

GCE guarantees a per-core amount of egress bandwidth (2 Gbps/core in
the paper's measurements: 1-core -> 2 Gbps ... 8-core -> 16 Gbps), and
the measured bandwidth "falls close to the QoS reported by the
provider".  The distinguishing behaviour (Figure 5) is that *access
pattern* drives variability: long-running streams are stable and fast,
while short bursts after idle periods show a long lower tail — the
paper attributes this to Andromeda routing idle flows through dedicated
gateways, so a resumed stream takes time to be reprogrammed onto the
fast path.

The model tracks stream age and idle time: while a stream is younger
than ``ramp_s`` (after an idle gap of at least ``idle_reset_s``), its
efficiency is drawn from a long-tailed "cold" distribution; once warm,
from a tight "warm" distribution near 1.  The ceiling is
``cores * per_core_gbps * efficiency``, redrawn every ``interval_s``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.netmodel.base import FleetSlot, LinkModel
from repro.netmodel.distributions import QuantileDistribution

__all__ = ["PerCoreQosModel"]

#: Efficiency of a warmed-up flow: tight, near the advertised QoS.
DEFAULT_WARM_EFFICIENCY = QuantileDistribution(
    probs=(0.01, 0.25, 0.50, 0.75, 0.99),
    values=(0.85, 0.93, 0.95, 0.97, 0.99),
)

#: Efficiency of a cold (just-resumed) flow: long lower tail.
DEFAULT_COLD_EFFICIENCY = QuantileDistribution(
    probs=(0.01, 0.25, 0.50, 0.75, 0.99),
    values=(0.25, 0.60, 0.80, 0.92, 0.98),
)


class PerCoreQosModel(LinkModel):
    """Per-core QoS ceiling with access-pattern-dependent variability.

    When a :class:`~repro.netmodel.fleet.PerCoreQosFleet` adopts the
    model, the stream-age/idle-gap/interval clockwork and the current
    efficiency draw move into the fleet's arrays (see
    :class:`~repro.netmodel.base.FleetSlot`), so scalar pokes
    (``reset``, state snapshots) stay coherent with batched fleet
    advances.  The seeded generator stays on the model — per-node draw
    sequences are identical either way.
    """

    _stream_age = FleetSlot("_age")
    _idle_time = FleetSlot("_idle")
    _elapsed_in_interval = FleetSlot("_elapsed")
    _efficiency = FleetSlot("_eff")

    def __init__(
        self,
        cores: int,
        per_core_gbps: float = 2.0,
        warm_efficiency: QuantileDistribution = DEFAULT_WARM_EFFICIENCY,
        cold_efficiency: QuantileDistribution = DEFAULT_COLD_EFFICIENCY,
        ramp_s: float = 4.0,
        idle_reset_s: float = 15.0,
        interval_s: float = 2.5,
        seed: int = 0,
    ) -> None:
        if cores < 1:
            raise ValueError(f"cores must be >= 1, got {cores}")
        # Comparisons written to fail on NaN, which passes ``<= 0``.
        if not 0.0 < per_core_gbps < math.inf:
            raise ValueError(
                f"per_core_gbps must be positive and finite, got {per_core_gbps}"
            )
        if not ramp_s >= 0:
            raise ValueError(f"ramp_s cannot be negative or NaN, got {ramp_s}")
        if not idle_reset_s >= 0:
            raise ValueError(
                f"idle_reset_s cannot be negative or NaN, got {idle_reset_s}"
            )
        if not 0.0 < interval_s < math.inf:
            raise ValueError(
                f"interval_s must be positive and finite, got {interval_s}"
            )
        self.cores = int(cores)
        self.per_core_gbps = float(per_core_gbps)
        self.qos_gbps = self.cores * self.per_core_gbps
        self.warm_efficiency = warm_efficiency
        self.cold_efficiency = cold_efficiency
        self.ramp_s = float(ramp_s)
        self.idle_reset_s = float(idle_reset_s)
        self.interval_s = float(interval_s)
        self._seed = seed
        self._rng = np.random.default_rng(seed)
        self.reset()

    def reset(self) -> None:
        self._rng = np.random.default_rng(self._seed)
        # A fresh VM pair starts cold: the first flow must be programmed.
        self._stream_age = 0.0
        self._idle_time = self.idle_reset_s
        self._elapsed_in_interval = 0.0
        self._efficiency = self._draw_efficiency()

    @property
    def is_warm(self) -> bool:
        """True when the active stream has outlived the ramp period."""
        return self._stream_age >= self.ramp_s

    def _draw_efficiency(self) -> float:
        dist = self.warm_efficiency if self.is_warm else self.cold_efficiency
        return float(dist.sample(self._rng))

    def _draw_efficiency_batch(self, k: int) -> float:
        """Take ``k`` consecutive draws in one RNG call; return the last.

        Bit-identical to ``k`` scalar :meth:`_draw_efficiency` calls
        while the warm/cold state holds fixed (``Generator.uniform``
        consumes exactly one double per element, scalar or batched) —
        the property the fleet's interval-crossing loop relies on,
        mirroring ``_ResamplingModel._draw_batch``.
        """
        dist = self.warm_efficiency if self.is_warm else self.cold_efficiency
        return dist.sample_last(self._rng, k)

    def limit(self) -> float:
        return self.qos_gbps * self._efficiency

    def horizon(self, send_rate_gbps: float) -> float:
        return max(self.interval_s - self._elapsed_in_interval, 0.0)

    def advance(self, dt: float, send_rate_gbps: float) -> None:
        if not dt >= 0.0:
            raise ValueError(f"dt must be non-negative, got {dt}")
        sending = send_rate_gbps > 1e-9
        if sending:
            if self._idle_time >= self.idle_reset_s:
                # The flow went cold during the idle gap: restart its age
                # AND redraw the efficiency from the cold distribution.
                # Without the redraw a resumed burst keeps the stale warm
                # draw until the next interval boundary, so bursts
                # shorter than ``interval_s`` never sample the cold tail
                # Figure 5 measures.
                self._stream_age = 0.0
                self._efficiency = self._draw_efficiency()
            self._stream_age += dt
            self._idle_time = 0.0
        else:
            self._idle_time += dt
        self._elapsed_in_interval += dt
        while self._elapsed_in_interval >= self.interval_s - 1e-12:
            self._elapsed_in_interval -= self.interval_s
            self._efficiency = self._draw_efficiency()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "warm" if self.is_warm else "cold"
        return (
            f"PerCoreQosModel({self.cores} cores, qos={self.qos_gbps:.0f} Gbps, "
            f"{state}, eff={self._efficiency:.2f})"
        )
