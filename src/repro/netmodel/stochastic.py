"""Stochastic link models: noisy neighbours and emulated distributions.

Two models live here:

* :class:`UniformQuantileSamplingModel` reproduces the paper's Section
  2.1 emulation methodology exactly: every ``interval_s`` seconds the
  link ceiling is redrawn by uniformly sampling a quantile-specified
  bandwidth distribution (the Ballani A-H clouds, sampled every 5 s or
  50 s).
* :class:`Ar1QuantileModel` is the generative model for HPCCloud-style
  contention (F3.2): a latent AR(1) process is mapped through the
  distribution's quantile function, yielding a series with the desired
  marginal distribution *and* sample-to-sample correlation — private
  clouds have fewer tenants, so congestion episodes persist rather than
  averaging out ("less statistical multiplexing to smooth out
  variation").

The AR(1) model's normal CDF is :func:`repro.netmodel._ndtr.ndtr`, a
pure-Python port of the cephes ``ndtr`` that ``scipy.special.ndtr`` and
``scipy.stats.norm.cdf`` end in, so the values are bit-identical.  No
simulation imports scipy: ``scipy.special`` alone costs every fresh
process (a campaign shard, a subprocess cell, a CLI call) about a
quarter of a second, and ``scipy.stats`` far more.
"""

from __future__ import annotations

import math

import numpy as np

from repro.netmodel._ndtr import ndtr
from repro.netmodel.base import FleetSlot, LinkModel
from repro.netmodel.distributions import QuantileDistribution

__all__ = ["UniformQuantileSamplingModel", "Ar1QuantileModel"]


class _ResamplingModel(LinkModel):
    """Shared clockwork for models that redraw their ceiling periodically.

    When a :class:`~repro.netmodel.fleet.ResamplingFleet` adopts the
    model, the interval clockwork (``elapsed``/``current``) moves into
    the fleet's flat arrays (see :class:`~repro.netmodel.base.FleetSlot`);
    the RNG stays on the model so each node keeps its own per-seed draw
    sequence bit-exactly.  Long advances redraw through
    :meth:`_draw_batch`, which subclasses override to pull every
    crossed-boundary draw in one RNG call (sequence-identical to the
    scalar one-draw-per-boundary loop, which remains the reference).
    """

    _elapsed_in_interval = FleetSlot("_elapsed")
    _current = FleetSlot("_current")

    def __init__(self, interval_s: float, seed: int) -> None:
        # Written to fail on NaN, which passes ``<= 0``.
        if not 0.0 < interval_s < math.inf:
            raise ValueError(
                f"interval_s must be positive and finite, got {interval_s}"
            )
        self._interval = float(interval_s)
        self._seed = seed
        self._rng = np.random.default_rng(seed)

    def _draw(self) -> float:
        raise NotImplementedError

    def _draw_batch(self, k: int) -> float:
        """Value after ``k`` consecutive redraws (``k >= 1``).

        Reference fallback: ``k`` scalar :meth:`_draw` calls.  Subclasses
        override with one batched RNG call that consumes the exact same
        stream, so a fleet advance crossing many resample boundaries
        costs one RNG dispatch instead of ``k``.
        """
        value = self._current
        for _ in range(k):
            value = self._draw()
        return value

    def _restart(self) -> None:
        """Reset subclass state before the first draw."""

    def reset(self) -> None:
        self._rng = np.random.default_rng(self._seed)
        self._elapsed_in_interval = 0.0
        self._restart()
        self._current = self._draw()

    def limit(self) -> float:
        return self._current

    def horizon(self, send_rate_gbps: float) -> float:
        return max(self._interval - self._elapsed_in_interval, 0.0)

    def advance(self, dt: float, send_rate_gbps: float) -> None:
        if not dt >= 0.0:
            raise ValueError(f"dt must be non-negative, got {dt}")
        self._elapsed_in_interval += dt
        # Tolerate callers that overshoot the horizon slightly; redraw
        # once per crossed boundary so long idles stay O(intervals).
        while self._elapsed_in_interval >= self._interval - 1e-12:
            self._elapsed_in_interval -= self._interval
            self._current = self._draw()


class UniformQuantileSamplingModel(_ResamplingModel):
    """Ceiling redrawn uniformly from a quantile distribution.

    This is the paper's emulation of the Ballani clouds: "we uniformly
    sample bandwidth values from these distributions every
    x in {5, 50} seconds".
    """

    def __init__(
        self,
        distribution: QuantileDistribution,
        interval_s: float = 5.0,
        seed: int = 0,
    ) -> None:
        self.distribution = distribution
        super().__init__(interval_s=interval_s, seed=seed)
        self.reset()

    def _draw(self) -> float:
        return max(float(self.distribution.sample(self._rng)), 1e-6)

    def _draw_batch(self, k: int) -> float:
        # One uniform call for all k draws; element i of a size-k
        # ``Generator.uniform`` equals the i-th scalar call bit for bit
        # (each value is one transformed next_double), so the RNG ends
        # in the same state and the kept (last) value is identical.
        if k <= 0:
            return self._current
        return max(self.distribution.sample_last(self._rng, k), 1e-6)


class Ar1QuantileModel(_ResamplingModel):
    """Autocorrelated ceiling with an arbitrary marginal distribution.

    A latent AR(1) process ``z_t = phi * z_{t-1} + sqrt(1-phi^2) * e_t``
    (stationary N(0,1)) is pushed through the normal CDF to a uniform
    probability and then through the target quantile function.  ``phi``
    controls how long congestion episodes persist; ``phi = 0`` recovers
    :class:`UniformQuantileSamplingModel` with Gaussian-copula sampling.
    """

    def __init__(
        self,
        distribution: QuantileDistribution,
        interval_s: float = 10.0,
        phi: float = 0.7,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= phi < 1.0:
            raise ValueError(f"phi must be in [0, 1), got {phi}")
        self.distribution = distribution
        self.phi = float(phi)
        self._z = 0.0
        super().__init__(interval_s=interval_s, seed=seed)
        self.reset()

    def _restart(self) -> None:
        self._z = float(self._rng.standard_normal())

    def _draw(self) -> float:
        innovation = math.sqrt(1.0 - self.phi**2) * float(
            self._rng.standard_normal()
        )
        self._z = self.phi * self._z + innovation
        u = ndtr(self._z)
        return max(float(self.distribution.quantile(u)), 1e-6)

    def _draw_batch(self, k: int) -> float:
        # One normal call for all k innovations (ziggurat fills arrays
        # from the same bitstream as repeated scalar calls), then the
        # cheap AR(1) recurrence in Python.  Only the surviving draw is
        # pushed through the CDF/quantile transform; intermediate
        # ceilings are discarded by the caller anyway.
        if k <= 0:
            return self._current
        innovations = self._rng.standard_normal(size=k)
        scale = math.sqrt(1.0 - self.phi**2)
        z = self._z
        for e in innovations.tolist():
            z = self.phi * z + scale * e
        self._z = z
        u = ndtr(z)
        return max(float(self.distribution.quantile(u)), 1e-6)
