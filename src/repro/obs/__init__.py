"""repro.obs — observability for simulations and campaigns.

Three layers, all inert unless explicitly attached:

* **In-sim telemetry** — pass an :class:`ObsRecorder` to
  ``SparkEngine.run_stream(..., recorder=...)`` (or
  ``run_scenario(..., recorder=...)``) and the run produces Prometheus
  -style metrics (:class:`MetricsRegistry`), sim-time scrapes of
  engine/fabric state as :class:`~repro.trace.TimeSeries`, streaming
  P² p50/p99/p99.9 latency windows (:class:`WindowedQuantiles`), and
  job/stage/task-group/flow spans (:class:`SpanTracer`) exportable to
  Chrome trace-event JSON for Perfetto.
* **Worker/runtime provenance** — every executed cell records wall
  time, peak RSS, and step count into its store manifest
  (:func:`cell_provenance`), and workers log structured
  ``key=value`` lines (:class:`StructuredLogger`).
* **Campaign status** — ``repro campaign status <shard-dir>``
  (:func:`campaign_status`) reads shard manifests + stores and reports
  per-shard progress, throughput, ETA, and stragglers; ``--prom``
  renders Prometheus text exposition.

The recorder only *reads* simulator state, so enabling observability
never changes results: golden traces and bench checksums are pinned
bit-identical with the recorder on and off, and the disabled path adds
a single pointer check per event.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.obs.logging": ("StructuredLogger", "format_fields"),
    "repro.obs.metrics": (
        "Counter",
        "Gauge",
        "Histogram",
        "MetricsRegistry",
        "parse_prometheus_text",
    ),
    "repro.obs.provenance": ("PROVENANCE_KEY", "cell_provenance"),
    "repro.obs.quantiles": ("P2Quantile", "WindowedQuantiles", "quantile_key"),
    "repro.obs.recorder": ("NullRecorder", "ObsRecorder"),
    "repro.obs.spans": ("SpanTracer",),
    "repro.obs.status": (
        "CampaignStatus",
        "ShardStatus",
        "campaign_status",
        "render_prometheus",
        "render_text",
    ),
}
__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "parse_prometheus_text",
    "StructuredLogger",
    "format_fields",
    "PROVENANCE_KEY",
    "cell_provenance",
    "P2Quantile",
    "WindowedQuantiles",
    "quantile_key",
    "ObsRecorder",
    "NullRecorder",
    "SpanTracer",
    "CampaignStatus",
    "ShardStatus",
    "campaign_status",
    "render_text",
    "render_prometheus",
]
