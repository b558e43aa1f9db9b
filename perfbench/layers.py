"""Which public layer methods the traced run wraps, and the per-layer metrics.

Span names follow ``<layer>.<operation>``; every per-layer metric in
``BENCHMARK.json`` is derived here from one :class:`LayerTracer`.
"""

from __future__ import annotations

import json
from pathlib import Path

from tracing import LayerTracer

#: The benchmark's definition; its ``per_layer`` list names what is reported.
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def per_layer_names() -> list[str]:
    """Per-layer metric names, in the order BENCHMARK.json lists them."""
    return [metric["name"] for metric in json.loads(BENCHMARK.read_text())["per_layer"]]


def install(tracer: LayerTracer) -> None:
    """Wrap every traced layer's public methods (undo with ``tracer.remove``)."""
    from repro.netmodel.fleet import LinkModelFleet
    from repro.obs.quantiles import WindowedQuantiles
    from repro.runtime import worker
    from repro.runtime.store import ArtifactStore
    from repro.scenarios import orchestrate
    from repro.serving import scenario as serving_scenario
    from repro.serving.slo import SloPolicy
    from repro.simulator import multistream
    from repro.simulator.core import EventCore
    from repro.simulator.fabric import Fabric

    counts = tracer.counts
    samples = tracer.samples
    step_starts: dict[int, float] = {}
    clock = tracer.clock

    def count_flows(args):
        samples["fabric.active_flows"].append(len(args[0].flows))

    def fabric_advanced(args, completed):
        counts["fabric.advance.zero_dt"] += args[1] == 0.0
        counts["fabric.flows_completed"] += len(completed)

    def fleet_advanced(args, changed):
        counts["fleet.limit_changed"] += bool(changed is not None and changed is not False)

    def step_begins(args):
        step_starts[id(args[0])] = clock()

    def step_ends(args, _):
        start = step_starts.pop(id(args[0]), None)
        if start is not None:
            samples["core.step_us"].append((clock() - start) * 1e6)

    def stored(_, directory):
        counts["store.put.bytes"] += sum(
            path.stat().st_size for path in Path(directory).glob("*.json")
        )

    tracer.wrap_class(
        Fabric,
        {
            "compute_rates": "fabric.compute_rates",
            "horizon": "fabric.horizon",
            "horizon_with_shaper_bounds": "fabric.horizon",
            "advance": "fabric.advance",
            "add_flow": "fabric.add_flow",
            "remove_flow": "fabric.remove_flow",
        },
        compute_rates={"before": count_flows},
        advance={"after": fabric_advanced},
    )
    fleet_classes = [LinkModelFleet]
    for cls in fleet_classes:
        fleet_classes.extend(cls.__subclasses__())
    for cls in fleet_classes:
        tracer.wrap_class(
            cls,
            {
                "horizons": "fleet.horizons",
                "advance": "fleet.advance",
                "advance_many": "fleet.advance",
                "limits": "fleet.limits",
                "limit_at": "fleet.limits",
            },
            advance={"after": fleet_advanced},
            advance_many={"after": fleet_advanced},
        )
    tracer.wrap_class(
        EventCore,
        {
            "execute": "core.loop",
            "step_prologue": "core.step_prologue",
            "step_epilogue": "core.step_epilogue",
        },
        step_prologue={"before": step_begins},
        step_epilogue={"after": step_ends},
    )
    tracer.wrap(multistream, "run_cores", "multistream.run_cores")
    tracer.wrap_class(WindowedQuantiles, {"add": "quantiles.add"})
    tracer.wrap_class(SloPolicy, {"evaluate": "slo.evaluate"})
    tracer.wrap(orchestrate, "prepare_scenario", "scenarios.prepare")
    tracer.wrap(orchestrate, "finish_scenario", "scenarios.finish")
    tracer.wrap(orchestrate, "encode_scenario_result", "codec.encode")
    tracer.wrap(orchestrate, "decode_scenario_result", "codec.decode")
    tracer.wrap(serving_scenario, "prepare_serving", "serving.prepare")
    for attr in ("write_shard_manifests", "run_manifest", "merge_stores"):
        tracer.wrap(worker, attr, f"worker.{attr}")
    tracer.wrap_class(
        ArtifactStore,
        {
            name: f"store.{name}"
            for name in (
                "put", "verify", "merge_from", "content_hash", "get", "manifest"
            )
        },
        put={"after": stored},
    )


def per_layer_metrics(tracer: LayerTracer, n_passes: int, untraced_wall: float,
                      traced_wall: float, import_s: float,
                      cache_hit_frac: float) -> dict:
    """Every per-layer metric, 0 where the workload never enters the layer.

    Calls, self times and counts are per traced pass; ``untraced_wall``
    and ``traced_wall`` are per-pass medians, which give the overhead.
    """
    wall = tracer.counts["trace.wall_s"]
    fleet_advances = tracer.calls("fleet.advance")

    def calls(name):
        return tracer.calls(name) / n_passes

    def self_s(name):
        return tracer.self_s(name) / n_passes
    values = {
        "fabric.compute_rates.share": tracer.self_s("fabric.compute_rates") / wall,
        "fabric.flows_completed": tracer.counts["fabric.flows_completed"] / n_passes,
        "fabric.active_flows.p50": tracer.quantile("fabric.active_flows", 0.5),
        "fabric.active_flows.p99": tracer.quantile("fabric.active_flows", 0.99),
        "fabric.zero_dt_frac": (
            tracer.counts["fabric.advance.zero_dt"] / tracer.calls("fabric.advance")
            if tracer.calls("fabric.advance") else 0.0
        ),
        "fleet.limit_changed_frac": (
            tracer.counts["fleet.limit_changed"] / fleet_advances
            if fleet_advances else 0.0
        ),
        "core.steps": calls("core.step_prologue"),
        "core.step_us.p50": tracer.quantile("core.step_us", 0.5),
        "core.step_us.p99": tracer.quantile("core.step_us", 0.99),
        "setup.import_s": import_s,
        "store.put.bytes": tracer.counts["store.put.bytes"] / n_passes,
        "campaign.cache_hit_frac": cache_hit_frac,
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
        "trace.unattributed_frac": tracer.counts["trace.unattributed_s"] / wall,
    }
    names = per_layer_names()
    for name in names:
        if name in values:
            continue
        span, _, kind = name.rpartition(".")
        values[name] = calls(span) if kind == "calls" else self_s(span)
    return {name: float(values[name]) for name in names}
