"""Measurement harness: probes, campaigns, and fingerprinting.

This package is the reproduction of the paper's data-collection
tooling (Section 3):

* :mod:`repro.measurement.capture` — segment/retransmission accounting
  (the offline wireshark analysis of the tcpdump captures);
* :mod:`repro.measurement.iperf` — the bandwidth probe: pattern-driven
  transfers summarized every 10 seconds with retransmission counts;
* :mod:`repro.measurement.rtt` — the latency probe: per-packet RTTs
  from 10-second TCP streams (Figures 7, 8);
* :mod:`repro.measurement.campaign` — week-long measurement campaigns
  across providers, instance types and patterns (Table 3);
* :mod:`repro.measurement.fingerprint` — the F5.2 protocol: baseline
  micro-benchmarks and token-bucket parameter identification
  (Figure 11's methodology).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.measurement.campaign": (
        "CampaignConfig",
        "CampaignResult",
        "run_campaign",
        "table3_campaigns",
    ),
    "repro.measurement.capture": ("RetransmissionModel", "segments_for_gbit"),
    "repro.measurement.fingerprint": (
        "NetworkFingerprint",
        "TokenBucketEstimate",
        "fingerprint_link",
        "identify_token_bucket",
    ),
    "repro.measurement.iperf": ("BandwidthProbe",),
    "repro.measurement.repository": ("RepositoryCorruptionError", "TraceRepository"),
    "repro.measurement.rtt": ("LatencyProbe",),
}
__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)

__all__ = [
    "RetransmissionModel",
    "segments_for_gbit",
    "BandwidthProbe",
    "LatencyProbe",
    "TraceRepository",
    "RepositoryCorruptionError",
    "CampaignConfig",
    "CampaignResult",
    "run_campaign",
    "table3_campaigns",
    "NetworkFingerprint",
    "TokenBucketEstimate",
    "identify_token_bucket",
    "fingerprint_link",
]
