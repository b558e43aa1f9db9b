"""Baseline fingerprinting and token-bucket identification (F5.2).

The paper's remedy for opaque, changing provider policies is to
establish *baselines* through micro-benchmarks before every experiment
and publish them with the results.  At a minimum (F5.2): base latency,
base bandwidth, latency under load, and — if present — the parameters
of bandwidth token buckets.

:func:`identify_token_bucket` implements the Figure 11 methodology:
"we ran an iperf test continuously until the achieved bandwidth dropped
significantly and stabilized at a lower value", yielding the time to
empty the bucket and the high/low rates; resting and re-probing
estimates the replenish rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.netmodel.base import LinkModel, drive
from repro.netmodel.latency import LatencyModel

__all__ = [
    "TokenBucketEstimate",
    "NetworkFingerprint",
    "identify_token_bucket",
    "fingerprint_link",
]


@dataclass(frozen=True)
class TokenBucketEstimate:
    """Token-bucket parameters inferred from probing one incarnation."""

    detected: bool
    time_to_empty_s: float
    high_gbps: float
    low_gbps: float
    replenish_gbps: float

    @property
    def budget_gbit(self) -> float:
        """Implied initial budget: drain rate times time-to-empty."""
        if not self.detected or math.isinf(self.time_to_empty_s):
            return math.inf
        return (self.high_gbps - self.replenish_gbps) * self.time_to_empty_s


@dataclass(frozen=True)
class NetworkFingerprint:
    """The F5.2 baseline bundle for one link."""

    base_bandwidth_gbps: float
    base_latency_ms: float
    loaded_latency_ms: float
    token_bucket: TokenBucketEstimate

    def matches(self, other: "NetworkFingerprint", tolerance: float = 0.10) -> bool:
        """True when two fingerprints agree within ``tolerance``.

        F5.5: "only comparing results to future experiments when these
        baselines match."  Token-bucket presence must agree exactly;
        continuous quantities within the relative tolerance.
        """
        if self.token_bucket.detected != other.token_bucket.detected:
            return False

        def close(a: float, b: float) -> bool:
            if math.isinf(a) and math.isinf(b):
                return True
            scale = max(abs(a), abs(b), 1e-9)
            return abs(a - b) / scale <= tolerance

        checks = [
            close(self.base_bandwidth_gbps, other.base_bandwidth_gbps),
            close(self.base_latency_ms, other.base_latency_ms),
        ]
        if self.token_bucket.detected:
            checks.extend(
                [
                    close(self.token_bucket.high_gbps, other.token_bucket.high_gbps),
                    close(self.token_bucket.low_gbps, other.token_bucket.low_gbps),
                    close(
                        self.token_bucket.time_to_empty_s,
                        other.token_bucket.time_to_empty_s,
                    ),
                ]
            )
        return all(checks)


def identify_token_bucket(
    model: LinkModel,
    probe_interval_s: float = 1.0,
    max_duration_s: float = 7_200.0,
    drop_fraction: float = 0.5,
    stabilize_intervals: int = 30,
    rest_probe_s: float = 60.0,
) -> TokenBucketEstimate:
    """Probe a link until its bandwidth drops and stabilizes.

    The link is driven at full offered load; the high rate is the
    average before the sustained drop, the low rate the average after
    stabilization.  If no drop of at least ``drop_fraction`` occurs
    within ``max_duration_s``, no token bucket is reported (GCE and
    HPCCloud behave this way).  The replenish rate is estimated by
    resting ``rest_probe_s`` and measuring how much high-rate sending
    the accumulated budget sustains.
    """
    if not probe_interval_s > 0:
        raise ValueError(f"probe interval must be positive, got {probe_interval_s}")
    model.reset()
    samples: list[float] = []
    steps: list[float] = []
    elapsed = 0.0
    probe = drive(model, math.inf, math.inf, 1e-6, probe_interval_s)
    while elapsed < max_duration_s:
        step, rate = next(probe)
        samples.append(rate)
        steps.append(step)
        elapsed += step
        if len(samples) > stabilize_intervals:
            head = float(np.mean(samples[: max(3, stabilize_intervals // 3)]))
            tail = samples[-stabilize_intervals:]
            tail_mean = float(np.mean(tail))
            tail_stable = float(np.std(tail)) < 0.05 * max(tail_mean, 1e-9)
            if tail_stable and tail_mean < head * (1.0 - drop_fraction):
                return _finish_identification(
                    model, samples, steps, tail_mean, head, rest_probe_s
                )
    return TokenBucketEstimate(
        detected=False,
        time_to_empty_s=math.inf,
        high_gbps=float(np.mean(samples)) if samples else 0.0,
        low_gbps=float(np.mean(samples)) if samples else 0.0,
        replenish_gbps=0.0,
    )


def _finish_identification(
    model: LinkModel,
    samples: list[float],
    steps: list[float],
    low_gbps: float,
    high_gbps: float,
    rest_probe_s: float,
) -> TokenBucketEstimate:
    """Locate the drop instant and estimate the replenish rate."""
    threshold = (high_gbps + low_gbps) / 2.0
    drop_index = next(
        (i for i, s in enumerate(samples) if s < threshold), len(samples) - 1
    )
    # Samples last up to one probe interval, less where the horizon
    # ends them early: the drop instant is the time they cover.
    time_to_empty = math.fsum(steps[:drop_index])

    # Replenish estimation: rest, then burn the accumulated budget at
    # the high rate; budget ~= replenish * rest time.
    _drain_fully(model, low_gbps)
    for _ in drive(model, rest_probe_s, 0.0, 1e-6, end_s=1e-9):
        pass
    burned = 0.0
    elapsed = 0.0
    burn = drive(model, math.inf, math.inf, 1e-6, 0.05)
    while elapsed < rest_probe_s * 100 and model.limit() >= threshold:
        step, rate = next(burn)
        burned += (rate - low_gbps) * step
        elapsed += step
    replenish = burned / rest_probe_s if rest_probe_s > 0 else 0.0
    return TokenBucketEstimate(
        detected=True,
        time_to_empty_s=time_to_empty,
        high_gbps=high_gbps,
        low_gbps=low_gbps,
        replenish_gbps=replenish,
    )


def _drain_fully(model: LinkModel, low_gbps: float) -> None:
    """Send at full speed until the model is pinned at the low rate."""
    segments = drive(model, math.inf, math.inf, 1e-6, 60.0)
    for _ in range(1_000_000):
        if model.limit() <= low_gbps * 1.01:
            return
        next(segments)


def fingerprint_link(
    model: LinkModel,
    latency_model: LatencyModel,
    rng: np.random.Generator | None = None,
    base_probe_s: float = 30.0,
) -> NetworkFingerprint:
    """Produce the full F5.2 baseline bundle for one link.

    Base bandwidth is measured over a short fresh-state probe (before
    any token bucket can empty); base latency from an unloaded latency
    sample; loaded latency from the 99th percentile under load.
    """
    if not base_probe_s > 0:
        raise ValueError(f"base probe must be positive, got {base_probe_s}")
    if rng is None:
        rng = np.random.default_rng(0)
    model.reset()
    transferred = 0.0
    for step, rate in drive(model, base_probe_s, math.inf, 1e-6, 1.0):
        transferred += rate * step
    base_bw = transferred / base_probe_s

    rtts = latency_model.sample_rtts_ms(20_000, rng)
    bucket = identify_token_bucket(model)
    model.reset()
    return NetworkFingerprint(
        base_bandwidth_gbps=base_bw,
        base_latency_ms=float(np.median(rtts)),
        loaded_latency_ms=float(np.percentile(rtts, 99)),
        token_bucket=bucket,
    )
