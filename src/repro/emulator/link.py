"""An emulated point-to-point link driven by a traffic pattern.

This is the library's measurement rig: one VM pair, one direction, a
:class:`~repro.netmodel.base.LinkModel` imposing the provider's shaping
behaviour, and a :class:`~repro.emulator.patterns.TrafficPattern`
deciding when the sender transmits.  Output is a sequence of
*reporting samples* — average achieved bandwidth over each reporting
window, matching the paper's "each point is an average over 10
seconds" presentation.

Reporting windows only cover *transmitting* time: iperf reports
averages over its active streams, so a 5-second burst contributes one
sample covering those 5 seconds, not a 10-second window diluted by
rest time (this is why Figure 5's 5-30 points sit near the QoS rather
than at an eighth of it).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.emulator.patterns import TrafficPattern
from repro.netmodel.base import LinkModel, drive

__all__ = ["ReportSample", "EmulatedLink"]


@dataclass(frozen=True)
class ReportSample:
    """Average achieved bandwidth over one reporting window."""

    #: Wall-clock time at the start of the window, seconds.
    t_start: float
    #: Transmitting time covered by the window, seconds.
    duration_s: float
    #: Data moved during the window, Gbit.
    transferred_gbit: float

    @property
    def bandwidth_gbps(self) -> float:
        """Average achieved rate for the window."""
        if self.duration_s == 0:
            return 0.0
        return self.transferred_gbit / self.duration_s


class EmulatedLink:
    """One shaped, pattern-driven link between a VM pair."""

    def __init__(
        self,
        model: LinkModel,
        pattern: TrafficPattern,
        offered_gbps: float = 100.0,
        report_interval_s: float = 10.0,
    ) -> None:
        # Written to fail on NaN, which passes ``<= 0``.
        if not offered_gbps > 0:
            raise ValueError(f"offered rate must be positive, got {offered_gbps}")
        if not report_interval_s > 0:
            raise ValueError(f"report interval must be > 0, got {report_interval_s}")
        self.model = model
        self.pattern = pattern
        self.offered_gbps = float(offered_gbps)
        self.report_interval_s = float(report_interval_s)

    def run(self, duration_s: float) -> list[ReportSample]:
        """Drive the link for ``duration_s`` wall-clock seconds.

        The model is *not* reset first: runs compose, which is exactly
        how hidden token-bucket state leaks between experiments (F4.4).
        Call ``self.model.reset()`` for a fresh-VM run.
        """
        samples: list[ReportSample] = []
        now = 0.0
        window_start = 0.0
        window_elapsed = 0.0
        window_gbit = 0.0

        def close_window() -> None:
            nonlocal window_elapsed, window_gbit, window_start
            if window_elapsed > 1e-12:
                samples.append(
                    ReportSample(
                        t_start=window_start,
                        duration_s=window_elapsed,
                        transferred_gbit=window_gbit,
                    )
                )
            window_elapsed = 0.0
            window_gbit = 0.0

        for transmitting, phase_s in self.pattern.phases(duration_s):
            if not transmitting:
                # Idle phases advance the model (buckets refill, GCE
                # flows go cold) but produce no report samples.
                for _ in drive(self.model, phase_s, 0.0, 1e-9):
                    pass
                now += phase_s
                continue
            window_start = now
            # The cap ends each step at the report window's boundary;
            # the window is empty at the start of every burst.
            segments = drive(
                self.model, phase_s, self.offered_gbps, 1e-9, self.report_interval_s
            )
            for step, rate in segments:
                window_gbit += rate * step
                window_elapsed += step
                now += step
                if window_elapsed >= self.report_interval_s - 1e-12:
                    close_window()
                    window_start = now
                segments.send(self.report_interval_s - window_elapsed)
            # A burst shorter than the reporting interval still yields
            # its own sample (iperf reports at stream end).
            close_window()
        return samples
