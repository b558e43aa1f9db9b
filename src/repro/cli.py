"""Command-line interface: regenerate paper artifacts from a shell.

Usage::

    python -m repro list                 # what can be regenerated
    python -m repro fig06                # print Figure 6's rows
    python -m repro fig16 --fast         # reduced run counts
    python -m repro fig16 --seed 3       # a different random draw
    python -m repro table3
    python -m repro fingerprint c5.xlarge
    python -m repro scenario --fast --seed 7   # randomized sweep
    python -m repro scenario --fast --shards 2 --shard-dir shards/
    python -m repro serve --fast --arrival flash   # one SLO-gated run
    python -m repro scenario --workload serving --fast   # serving sweep
    python -m repro worker shards/shard-0.json --store shard0-store
    python -m repro campaign run shards/ --store campaign-store
    python -m repro campaign status shards/
    python -m repro merge shard0-store shard1-store --store campaign-store
    python -m repro store verify campaign-store
    python -m repro bench                # print the nine hot-path cases
    python -m repro bench --check        # fail on checksum/wall regression

Output is the same row data the benchmark harness prints; ``--fast``
shrinks run counts / durations for a quick look.  Every stochastic
artifact accepts ``--seed`` so shell invocations are reproducible;
omitting it keeps each artifact's published default seed.

Campaign-shaped subcommands (``scenario``, ``worker``, ``merge``)
share one flag vocabulary — ``--workers``, ``--seed``, ``--store`` —
built from a common argparse parent so the spellings, defaults, and
help text cannot drift apart.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from typing import Callable

import numpy as np

__all__ = [
    "main",
    "build_parser",
    "make_runtime_parent",
]


def make_runtime_parent(
    workers_default: int = 1,
    workers_help: str = "process-pool size for pending cells (default: 1, in-process)",
    seed_default: int | None = 0,
    seed_help: str = "base RNG seed (default: 0)",
    store_help: str = (
        "artifact-store directory; completed cells are cached there "
        "(default: no store, results are not persisted)"
    ),
    store_required: bool = False,
) -> argparse.ArgumentParser:
    """The shared ``--workers`` / ``--seed`` / ``--store`` parent parser.

    Every campaign-ish subcommand builds on this parent so the runtime
    flag vocabulary is identical everywhere; per-command help strings
    document what each flag means (or why it is inert) for that
    command.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--workers", type=int, default=workers_default, help=workers_help
    )
    parent.add_argument(
        "--seed", type=int, default=seed_default, help=seed_help
    )
    parent.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        required=store_required,
        help=store_help,
    )
    return parent


#: artifact name -> (description, fast kwargs, full kwargs)
_FIGURES: dict[str, tuple[str, dict, dict]] = {
    "fig01": ("survey reporting practices", {}, {}),
    "fig02": ("Ballani cloud distributions", {}, {}),
    "fig03": ("few-repetition credibility", {"n_gold": 16, "clouds": ("B", "F")}, {}),
    "fig04": ("HPCCloud bandwidth", {"duration_s": 36_000.0}, {}),
    "fig05": ("GCE bandwidth by pattern", {"duration_s": 36_000.0}, {}),
    "fig06": ("EC2 bandwidth by pattern", {"duration_s": 172_800.0}, {}),
    "fig07": ("EC2 latency regimes", {"max_samples": 50_000}, {}),
    "fig08": ("GCE latency", {"max_samples": 50_000}, {}),
    "fig09": ("retransmission analysis", {"duration_s": 7_200.0}, {}),
    "fig10": ("traffic totals by pattern", {"duration_s": 302_400.0}, {}),
    "fig11": ("token-bucket identification", {"tests_per_type": 5}, {}),
    "fig12": ("write()-size effects", {}, {}),
    "fig13": ("CONFIRM analysis", {"repetitions": 40}, {}),
    "fig14": ("emulator validation", {}, {}),
    "fig15": ("Terasort vs budget", {"consecutive_runs": 3}, {}),
    "fig16": ("HiBench vs budget", {"runs_per_config": 3}, {}),
    "fig17": ("TPC-DS vs budget", {"runs_per_config": 3}, {}),
    "fig18": ("token-bucket straggler", {"stream_repeats": 2}, {}),
    "fig19": ("CI analysis under depletion", {"reps_per_budget": 4,
                                              "scan_reps_per_budget": 2}, {}),
}

_TABLES = {
    "table1": "survey parameters",
    "table2": "survey funnel",
    "table3": "campaign summary",
    "table4": "big-data experiment setup",
}


def _print_rows(rows) -> None:
    if isinstance(rows, dict):
        rows = [rows]
    for row in rows:
        print("  " + "  ".join(f"{k}={v}" for k, v in row.items()))


def _figure_rows(name: str, result) -> None:
    """Print whatever row-like views a figure result offers."""
    printed = False
    for attr in ("rows", "average_rows", "slowdown_rows"):
        method = getattr(result, attr, None)
        if callable(method):
            _print_rows(method())
            printed = True
            break
    if not printed:
        print(f"  {result!r}")
    for extra in ("miss_counts", "slowdowns", "violin_rows", "histogram_rows"):
        method = getattr(result, extra, None)
        if callable(method):
            print(f"  -- {extra} --")
            _print_rows(method())


def _cmd_list(_: argparse.Namespace) -> int:
    print("figures:")
    for name, (description, *_rest) in sorted(_FIGURES.items()):
        print(f"  {name:8s} {description}")
    print("tables:")
    for name, description in sorted(_TABLES.items()):
        print(f"  {name:8s} {description}")
    print("other:")
    print("  fingerprint <instance>   F5.2 baseline for an EC2 instance type")
    print("  scenario                 randomized multi-job scenario sweep")
    print("  serve                    one serving run with an SLO verdict table")
    print("  worker <manifest>        execute one campaign shard manifest")
    print("  merge <stores...>        merge shard stores into a campaign store")
    print("  campaign run <dir>       fault-tolerant supervisor for all shards")
    print("  campaign status <dir>    live progress of a sharded campaign")
    print("  store verify <dirs...>   audit store integrity (manifest vs disk)")
    print("  bench                    hot-path checksum and wall-time gate")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    import importlib

    from repro.runtime.executors import executor_for

    try:
        executor_for(args.workers)  # a bad --workers fails before any cell
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    name = args.artifact
    module = importlib.import_module(f"repro.paper.{name}")
    _, fast_kwargs, full_kwargs = _FIGURES[name]
    kwargs = dict(fast_kwargs if args.fast else full_kwargs)
    parameters = inspect.signature(module.reproduce).parameters
    if args.seed is not None:
        if "seed" in parameters:
            kwargs["seed"] = args.seed
        else:
            print(
                f"note: {name} is deterministic; --seed ignored",
                file=sys.stderr,
            )
    if args.workers != 1:
        if "workers" in parameters:
            kwargs["workers"] = args.workers
        else:
            print(
                f"note: {name} has no runtime replay sweep; --workers ignored",
                file=sys.stderr,
            )
    result = module.reproduce(**kwargs)
    print(f"== {name}: {_FIGURES[name][0]} ==")
    _figure_rows(name, result)
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    from repro.paper import tables

    name = args.artifact
    fn: Callable = getattr(tables, name)
    result = fn()
    print(f"== {name}: {_TABLES[name]} ==")
    _print_rows(result)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import run_bench, run_check

    if args.check:
        return run_check(path=args.json, wall_tolerance=args.wall_tolerance)
    return run_bench(path=args.json, save_smoke=args.save_smoke)


def _cmd_fingerprint(args: argparse.Namespace) -> int:
    from repro.cloud import Ec2Provider
    from repro.measurement import fingerprint_link

    provider = Ec2Provider()
    rng = np.random.default_rng(args.seed)
    try:
        model = provider.link_model(args.instance, rng)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    fp = fingerprint_link(model, provider.latency_model(), rng=rng)
    print(f"== fingerprint: {args.instance} ==")
    print(f"base bandwidth: {fp.base_bandwidth_gbps:.2f} Gbps")
    print(f"base latency:   {fp.base_latency_ms:.3f} ms")
    print(f"loaded latency: {fp.loaded_latency_ms:.3f} ms (p99)")
    tb = fp.token_bucket
    if tb.detected:
        print(
            f"token bucket:   high {tb.high_gbps:.1f} Gbps, "
            f"low {tb.low_gbps:.1f} Gbps, empties in {tb.time_to_empty_s:.0f} s, "
            f"replenish {tb.replenish_gbps:.2f} Gbit/s"
        )
    else:
        print("token bucket:   none detected")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serving import (
        SERVING_DEFAULT_INSTANCES,
        ServingConfig,
        run_serving,
    )

    if args.fast:
        n_nodes = 4 if args.nodes is None else args.nodes
        duration_s = 30.0 if args.duration is None else args.duration
        window_s = 10.0 if args.window is None else args.window
    else:
        n_nodes = 8 if args.nodes is None else args.nodes
        duration_s = 120.0 if args.duration is None else args.duration
        window_s = 30.0 if args.window is None else args.window
    instance = args.instance
    if instance is None:
        instance = SERVING_DEFAULT_INSTANCES.get(args.provider)
        if instance is None:
            print(
                f"error: no default instance for provider "
                f"{args.provider!r}; pass --instance",
                file=sys.stderr,
            )
            return 2
    try:
        config = ServingConfig(
            provider_name=args.provider,
            instance_name=instance,
            n_nodes=n_nodes,
            topology=args.topology,
            depth=args.depth,
            breadth=args.breadth,
            arrival=args.arrival,
            rate_rps=args.rate,
            duration_s=duration_s,
            users=args.users,
            think_s=args.think,
            payload_scale=args.payload_scale,
            slo_p50_ms=args.p50,
            slo_p99_ms=args.p99,
            slo_p999_ms=args.p999,
            slo_window_s=window_s,
            seed=args.seed if args.seed is not None else 0,
        )
        result = run_serving(config)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.prom:
        from repro.obs import MetricsRegistry

        if result.slo is None:
            print(
                "error: --prom renders the repro_slo_* gauges; enable at "
                "least one SLO target (--p50/--p99/--p999)",
                file=sys.stderr,
            )
            return 2
        registry = MetricsRegistry()
        result.slo.to_metrics(registry)
        sys.stdout.write(registry.render_prometheus())
        return 0

    def ms(key: str) -> str:
        value = result.latency.get(key)
        if value is None or (isinstance(value, float) and value != value):
            return "n/a"
        return f"{value * 1000.0:.1f} ms"

    load = f"{config.rate_rps:g} rps {config.arrival}"
    if config.users:
        load += f" + {config.users} users (think {config.think_s:g} s)"
    print(
        f"== serve: {config.provider_name}/{config.instance_name} "
        f"x{config.n_nodes}, {config.topology}, {load} =="
    )
    print(f"cell: {config.serving_id}  seed={config.seed}")
    print(
        f"requests: {result.n_completed}/{result.n_requests} completed "
        f"in {result.makespan_s:.1f} s simulated"
    )
    print(
        f"latency: p50={ms('p50')}  p99={ms('p99')}  p999={ms('p999')}  "
        f"max={ms('max_s')}"
    )
    if result.slo is not None:
        print("slo verdicts:")
        _print_rows(result.slo.verdict_rows())
        verdict = "PASS" if result.slo.passed else "FAIL"
        print(
            f"slo: {verdict} — {result.slo_violations} violation "
            f"window(s) across {result.slo.n_windows} window(s)"
        )
    return 0


def _emit_shard_plan(campaign, n_cells: int, args, store, label: str) -> None:
    """Write shard manifests and print the worker/merge runbook."""
    if args.shards < 1:
        raise ValueError("--shards must be >= 1")
    if not args.shard_dir:
        raise ValueError("--shards requires --shard-dir DIR")
    manifests = campaign.shard_manifests(args.shard_dir, args.shards)
    print(f"== {label}: {n_cells} cells, "
          f"{len(manifests)} shard manifest(s) ==")
    for index, manifest in enumerate(manifests):
        print(f"  python -m repro worker {manifest} "
              f"--store {args.shard_dir}/shard-{index}-store")
    stores = " ".join(
        f"{args.shard_dir}/shard-{i}-store" for i in range(len(manifests))
    )
    merged = store if store else "<campaign-store>"
    print(f"  python -m repro merge {stores} --store {merged}")


def _run_sweep(
    campaign_cls, build_matrix: Callable[[], list], args, label: str, row_key=None
) -> int:
    """Build a sweep's matrix, then shard-plan or run it and print its rows.

    Rows print in matrix order keyed by ``row_key(config)``, or sorted
    by cell id without one.
    """
    from repro.measurement.repository import (
        RepositoryCorruptionError,
        TraceRepository,
    )

    try:
        configs = build_matrix()
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    store = args.store or args.repo
    try:
        repository = TraceRepository(store) if store else None
        campaign = campaign_cls(
            configs, repository=repository, workers=args.workers
        )
        if args.shards is not None:
            _emit_shard_plan(campaign, len(configs), args, store, label)
            return 0
        outcome = campaign.run()
    except (ValueError, RepositoryCorruptionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"== {label}: {len(configs)} cells ==")
    keys = None if row_key is None else [row_key(c) for c in configs]
    _print_rows(outcome.aggregate_rows(keys))
    print(
        f"  computed={len(outcome.computed_ids)} "
        f"cached={len(outcome.cached_ids)} workers={args.workers}"
    )
    return 0


def _cmd_scenario_serving(args: argparse.Namespace) -> int:
    """The ``--workload serving`` leg of the scenario subcommand."""
    from repro.serving import ServingCampaign, serving_matrix

    if args.fast:
        n_nodes, duration_s, window_s = 4, 30.0, 10.0
    else:
        n_nodes, duration_s, window_s = 8, 120.0, 30.0
    return _run_sweep(
        ServingCampaign,
        lambda: serving_matrix(
            providers=tuple(args.providers.split(",")),
            arrivals=tuple(args.arrivals.split(",")),
            rates_rps=tuple(float(r) for r in args.rates.split(",")),
            topologies=tuple(args.topologies.split(",")),
            n_nodes=n_nodes,
            duration_s=duration_s,
            slo_p99_ms=args.slo_p99,
            slo_window_s=window_s,
            seed=args.seed,
            chain_length=args.chain,
        ),
        args,
        "serving sweep",
        row_key=lambda config: config.serving_id,
    )


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro.scenarios import ScenarioCampaign, scenario_matrix

    workloads = tuple(args.workloads.split(","))
    if "serving" in workloads:
        if set(workloads) != {"serving"}:
            print(
                "error: --workload serving is its own sweep and cannot "
                "mix with DAG workloads in one matrix; run two campaigns "
                "into the same --store instead",
                file=sys.stderr,
            )
            return 2
        return _cmd_scenario_serving(args)
    if args.fast:
        n_jobs, n_nodes, data_scale = 3, 4, 0.05
    else:
        n_jobs, n_nodes, data_scale = 8, 12, 1.0
    return _run_sweep(
        ScenarioCampaign,
        lambda: scenario_matrix(
            providers=tuple(args.providers.split(",")),
            arrival_rates=tuple(float(r) for r in args.arrival_rates.split(",")),
            schedulers=tuple(args.schedulers.split(",")),
            workloads=workloads,
            n_jobs=n_jobs,
            n_nodes=n_nodes,
            data_scale=data_scale,
            seed=args.seed,
            deadline_slack=args.deadline_slack,
            chain_length=args.chain,
        ),
        args,
        "scenario sweep",
    )


def _cmd_worker(args: argparse.Namespace) -> int:
    """Execute one shard manifest.  Exit codes are a protocol:

    0 — shard done; 2 — configuration error (bad manifest/store, do
    not retry); 3 — retryable (a cell crashed, the lease was lost or
    already held — relaunch later); 4 — finished, but the store's
    ``failures.json`` names quarantined cells that never resolved.
    """
    import os

    from repro.runtime import (
        ArtifactStore,
        CellExecutionError,
        ExecutionAborted,
        run_manifest,
    )
    from repro.runtime.lease import (
        LeaseHeartbeat,
        LeaseLostError,
        acquire_lease,
        release_lease,
    )
    from repro.runtime.worker import FAILURES_NAME, read_failures
    from pathlib import Path

    heartbeat = None
    lease = None
    should_stop = None
    push = None
    worker_id = args.worker_id or f"pid-{os.getpid()}"
    try:
        if args.lease:
            try:
                lease = acquire_lease(
                    args.lease, worker_id=worker_id, ttl_s=args.lease_ttl
                )
            except LeaseLostError as exc:
                print(f"retryable: {exc}", file=sys.stderr)
                return 3
            interval = args.heartbeat or max(0.05, args.lease_ttl / 3.0)
            heartbeat = LeaseHeartbeat(
                args.lease, lease["token"], interval_s=interval
            )
            heartbeat.start()
            should_stop = lambda: heartbeat.lost  # noqa: E731
        syncer = None
        on_stored = None
        if getattr(args, "remote", None):
            from repro.runtime.remote import RemoteStore, open_transport

            syncer = RemoteStore(
                ArtifactStore(args.store),
                open_transport(args.remote),
                echo=None if args.quiet else print,
            )
            # Cross-machine resume: anything the remote already holds
            # for this shard becomes a local cache hit (digest-verified
            # on the way in; failures degrade to recomputes).
            syncer.pull()

            def on_stored(key: str) -> None:
                syncer.push([key])

        try:
            summary = run_manifest(
                args.manifest,
                args.store,
                workers=args.workers,
                echo=None if args.quiet else print,
                should_stop=should_stop,
                on_stored=on_stored,
            )
        except (CellExecutionError, ExecutionAborted) as exc:
            print(f"retryable: {exc}", file=sys.stderr)
            return 3
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if syncer is not None:
            # Backstop for any per-cell push the hook swallowed: one
            # digest-keyed delta push of the whole shard store.
            push = syncer.push()
    finally:
        if heartbeat is not None:
            heartbeat.stop()
        if lease is not None:
            release_lease(args.lease, lease["token"])
    failures = read_failures(Path(args.store) / FAILURES_NAME)
    print(
        f"worker done: computed={len(summary['computed'])} "
        f"cached={len(summary['cached'])} "
        f"skipped={len(summary['skipped'])} store={summary['store']}"
    )
    if push is not None:
        print(f"sync {push.summary_line()}")
        if push.failed:
            print(
                f"sync: {len(push.failed)} key(s) failed to push; the "
                "local store is complete and a later push can catch up",
                file=sys.stderr,
            )
    if failures is not None:
        stored = set(ArtifactStore(args.store).keys())
        unresolved = (
            set(failures.get("cells", {})) | set(failures.get("blocked", ()))
        ) - stored
        if unresolved:
            print(
                f"failures: {len(unresolved)} quarantined/blocked cell(s) "
                f"recorded in {FAILURES_NAME}",
                file=sys.stderr,
            )
            return 4
    return 0


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    from repro.obs.status import (
        campaign_status,
        render_prometheus,
        render_text,
    )

    try:
        status = campaign_status(
            args.shard_dir,
            prefix=args.prefix,
            stores=args.stores,
            remote=getattr(args, "remote", None),
        )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.prom:
        sys.stdout.write(render_prometheus(status))
    else:
        print(render_text(status))
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    from repro.runtime import merge_stores

    try:
        summary = merge_stores(
            args.shard_stores, args.store, allow_partial=args.allow_partial
        )
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"merged {len(summary['adopted'])} new artifact(s) into "
        f"{summary['store']} ({summary['total']} total)"
    )
    print(f"content hash: {summary['content_hash']}")
    if summary["failed"] or summary["blocked"]:
        print(
            f"partial merge: {len(summary['failed'])} failed and "
            f"{len(summary['blocked'])} blocked cell(s) are missing",
            file=sys.stderr,
        )
    return 0


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    from repro.runtime.coordinator import run_campaign

    try:
        summary = run_campaign(
            args.shard_dir,
            prefix=args.prefix,
            stores=args.stores,
            store_root=args.store,
            allow_partial=args.allow_partial,
            max_retries=args.max_retries,
            lease_ttl_s=args.lease_ttl,
            heartbeat_s=args.heartbeat,
            poll_s=args.poll,
            workers_per_shard=args.workers,
            steal=not args.no_steal,
            seed=args.seed if args.seed is not None else 0,
            max_wall_s=args.max_wall,
            echo=None if args.quiet else print,
            remote_root=args.remote,
        )
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"campaign done: stored={summary['stored']}/{summary['cells']} "
        f"deaths={summary['deaths']} steals={summary['steals']} "
        f"quarantined={len(summary['quarantined'])} "
        f"blocked={len(summary['blocked'])}"
    )
    transport = summary.get("transport")
    if transport is not None:
        print(
            f"transport: pulled={transport['pulled']} "
            f"skipped={transport['skipped']} "
            f"failed={len(transport['failed'])} "
            f"retries={transport['retries']} "
            f"refetches={transport['refetches']}"
        )
    merged = summary["merged"]
    if merged is not None:
        print(
            f"merged {len(merged['adopted'])} artifact(s) into "
            f"{merged['store']} ({merged['total']} total)"
        )
        print(f"content hash: {merged['content_hash']}")
    elif args.store is not None:
        print(
            "merge skipped: unresolved failures (re-run, or pass "
            "--allow-partial)",
            file=sys.stderr,
        )
    return 0 if summary["ok"] else 4


def _cmd_store_verify(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.runtime import ArtifactStore

    problems = 0
    for root in args.stores:
        # An audit must never scaffold: a missing store is a usage
        # error, not an empty-but-healthy one.
        if not Path(root).is_dir():
            print(f"error: no store directory {root}", file=sys.stderr)
            return 2
        try:
            store = ArtifactStore(root)
            report = store.verify()
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        state = "ok" if report.ok else "CORRUPT"
        print(
            f"{root}: {state} — {report.checked} key(s) checked, "
            f"{len(report.problems)} problem(s), "
            f"{len(report.orphans)} orphan dir(s)"
        )
        for problem in report.problems:
            print(f"  {problem}")
        if args.repair and not report.ok:
            repaired = store.repair(report)
            print(
                f"  repaired: dropped {len(repaired.dropped)} manifest "
                f"entr(ies), removed {len(repaired.removed_files)} file(s) "
                "— re-run or pull to recompute them"
            )
            report = store.verify()
        problems += len(report.problems)
    return 1 if problems else 0


def _cmd_store_sync(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.runtime import ArtifactStore
    from repro.runtime.remote import RemoteStore, RetryPolicy, open_transport

    if not Path(args.store_dir).is_dir():
        print(f"error: no store directory {args.store_dir}", file=sys.stderr)
        return 2
    try:
        syncer = RemoteStore(
            ArtifactStore(args.store_dir),
            open_transport(args.remote),
            retries=args.retries,
            backoff=RetryPolicy(seed=args.seed if args.seed is not None else 0),
            timeout_s=args.timeout,
            echo=None if args.quiet else print,
        )
        report = getattr(syncer, args.store_command)()
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.summary_line())
    for key, reason in sorted(report.failed.items()):
        print(f"  missing {key}: {reason}", file=sys.stderr)
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate artifacts from 'Is Big Data Performance "
        "Reproducible in Modern Cloud Networks?' (NSDI 2020).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list regenerable artifacts").set_defaults(
        handler=_cmd_list
    )

    for name in _FIGURES:
        p = sub.add_parser(name, help=_FIGURES[name][0])
        p.add_argument(
            "--fast", action="store_true",
            help="reduced run counts / durations",
        )
        p.add_argument(
            "--seed", type=int, default=None,
            help="RNG seed (default: the artifact's published seed)",
        )
        p.add_argument(
            "--workers", type=int, default=1,
            help="process-pool size for replay sweeps; figures whose "
            "sweeps run through the runtime layer parallelize without "
            "changing their numbers (default: 1)",
        )
        p.set_defaults(handler=_cmd_figure, artifact=name)

    for name in _TABLES:
        p = sub.add_parser(name, help=_TABLES[name])
        p.set_defaults(handler=_cmd_table, artifact=name)

    p = sub.add_parser(
        "scenario",
        help="randomized multi-job scenario sweep (provider x rate x scheduler)",
        parents=[
            make_runtime_parent(
                workers_help="process-pool size for pending cells "
                "(default: 1, in-process; results are identical at any count)",
                seed_help="matrix base seed (default: 0)",
                store_help="campaign store directory (a TraceRepository); "
                "completed cells are cached there (default: no store)",
            )
        ],
    )
    p.add_argument(
        "--fast", action="store_true",
        help="small clusters, few jobs, scaled-down data",
    )
    p.add_argument(
        "--repo", default=None, metavar="DIR",
        help="deprecated alias for --store",
    )
    p.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="instead of running, write N per-machine shard manifests "
        "to --shard-dir and print the worker/merge commands",
    )
    p.add_argument(
        "--shard-dir", default=None, metavar="DIR",
        help="directory for --shards manifests",
    )
    p.add_argument(
        "--providers", default="amazon,google",
        help="comma-separated provider names",
    )
    p.add_argument(
        "--arrival-rates", default="1.0,4.0",
        help="comma-separated Poisson rates (jobs/minute)",
    )
    p.add_argument(
        "--schedulers", default="fifo,fair",
        help="comma-separated slot schedulers "
        "(fifo,fair,preempt,srpt,edf)",
    )
    p.add_argument(
        "--workloads", "--workload", default="mixed",
        help="comma-separated workload mixes (mixed,random,tpch,hibench), "
        "or 'serving' alone to sweep request-serving cells instead of "
        "DAG jobs (provider x arrival x rate x topology; see --arrivals, "
        "--rates, --topologies, --slo-p99)",
    )
    p.add_argument(
        "--arrivals", default="poisson,flash",
        help="serving only: comma-separated open-loop arrival shapes "
        "(poisson,diurnal,flash)",
    )
    p.add_argument(
        "--rates", default="20",
        help="serving only: comma-separated request rates "
        "(requests/second; the peak rate for diurnal/flash shapes)",
    )
    p.add_argument(
        "--topologies", default="three_tier",
        help="serving only: comma-separated call-tree shapes "
        "(line,fanout,three_tier)",
    )
    p.add_argument(
        "--slo-p99", type=float, default=250.0, metavar="MS",
        help="serving only: per-window p99 latency target in "
        "milliseconds, 0 to disable the gate (default: 250)",
    )
    p.add_argument(
        "--deadline-slack", type=float, default=1.0, metavar="X",
        help="mean multiplicative deadline slack for synthesized per-job "
        "deadlines (rows report miss_rate; the edf scheduler orders by "
        "them); the value is part of each cell's cache key, so pass 0 "
        "to disable deadlines and reuse repositories populated before "
        "deadlines existed (default: 1.0)",
    )
    p.add_argument(
        "--chain", type=int, default=1, metavar="N",
        help="expand every cell into a warm-fabric chain of N cells: "
        "each link is a new tenant arriving on the shaper state its "
        "predecessor left behind (default: 1, independent cells)",
    )
    p.set_defaults(handler=_cmd_scenario)

    p = sub.add_parser(
        "worker",
        help="execute one shard manifest into a local artifact store",
        parents=[
            make_runtime_parent(
                workers_help="process-pool size for this shard's cells "
                "(default: 1, in-process)",
                seed_default=None,
                seed_help="accepted for CLI consistency; ignored — every "
                "cell's seed is pinned in the shard manifest",
                store_help="artifact store for this shard's results; "
                "re-running resumes, skipping stored cells (required)",
                store_required=True,
            )
        ],
    )
    p.add_argument("manifest", help="shard manifest written by --shards")
    p.add_argument(
        "--quiet", action="store_true",
        help="suppress per-cell structured log lines (the final summary "
        "still prints)",
    )
    p.add_argument(
        "--lease", default=None, metavar="PATH",
        help="lease file to acquire and heartbeat while the shard runs; "
        "an unexpired foreign lease makes the worker exit 3 (retryable) "
        "instead of double-running the shard (default: no lease)",
    )
    p.add_argument(
        "--worker-id", default=None, metavar="ID",
        help="identity written into the lease (default: pid-<PID>)",
    )
    p.add_argument(
        "--lease-ttl", type=float, default=15.0, metavar="S",
        help="lease time-to-live in seconds; a lease not renewed within "
        "this window counts as a dead worker (default: 15)",
    )
    p.add_argument(
        "--heartbeat", type=float, default=None, metavar="S",
        help="lease renewal interval (default: lease-ttl / 3)",
    )
    p.add_argument(
        "--remote", default=None, metavar="DIR",
        help="remote store root to sync through: pulled before the "
        "shard runs (cross-machine resume), pushed as each cell "
        "completes and once more at exit (default: no sync)",
    )
    p.set_defaults(handler=_cmd_worker)

    p = sub.add_parser(
        "campaign",
        help="campaign-level operations (run, status)",
    )
    campaign_sub = p.add_subparsers(dest="campaign_command", required=True)
    p = campaign_sub.add_parser(
        "run",
        help="supervise all shards of a campaign to completion: launch "
        "leased workers, relaunch dead ones with backoff, quarantine "
        "poison cells, let idle workers steal pending chains, then "
        "merge the shard stores",
        parents=[
            make_runtime_parent(
                workers_help="process-pool size inside each shard worker "
                "(default: 1, in-process — required for exact blame "
                "attribution)",
                seed_help="seed for deterministic relaunch jitter "
                "(default: 0; never touches cell results)",
                store_help="merged campaign store written after all "
                "shards resolve (default: no merge)",
            )
        ],
    )
    p.add_argument(
        "shard_dir",
        help="directory holding the shard manifests written by "
        "`repro scenario --shards` (shard-0.json, ...)",
    )
    p.add_argument(
        "--prefix", default="shard", metavar="NAME",
        help="manifest filename prefix (default: shard)",
    )
    p.add_argument(
        "--stores", nargs="*", default=None, metavar="DIR",
        help="explicit shard store directories, one per shard in shard "
        "order (default: DIR/<prefix>-<i>-store)",
    )
    p.add_argument(
        "--allow-partial", action="store_true",
        help="merge even when quarantined/blocked cells are missing "
        "(the exit code is still 4 so automation sees the holes)",
    )
    p.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="retries charged to a cell before it is quarantined "
        "(default: 2)",
    )
    p.add_argument(
        "--lease-ttl", type=float, default=15.0, metavar="S",
        help="worker lease time-to-live; an unrenewed lease means a "
        "dead worker (default: 15)",
    )
    p.add_argument(
        "--heartbeat", type=float, default=None, metavar="S",
        help="worker lease renewal interval (default: lease-ttl / 3)",
    )
    p.add_argument(
        "--poll", type=float, default=0.2, metavar="S",
        help="supervisor poll interval (default: 0.2)",
    )
    p.add_argument(
        "--no-steal", action="store_true",
        help="disable work stealing by idle workers",
    )
    p.add_argument(
        "--max-wall", type=float, default=None, metavar="S",
        help="abort the campaign after S seconds of wall clock "
        "(default: run until resolved)",
    )
    p.add_argument(
        "--remote", default=None, metavar="DIR",
        help="remote store root: each worker pushes its shard store to "
        "DIR/<prefix>-<i>-store as cells complete (digest-verified), and "
        "the coordinator pulls the remotes back before merging "
        "(default: no remote sync)",
    )
    p.add_argument(
        "--quiet", action="store_true",
        help="suppress coordinator structured log lines",
    )
    p.set_defaults(handler=_cmd_campaign_run)
    p = campaign_sub.add_parser(
        "status",
        help="report per-shard progress, throughput, ETA, and stragglers "
        "from shard manifests plus whatever the workers have stored",
    )
    p.add_argument(
        "shard_dir",
        help="directory holding the shard manifests written by "
        "`repro scenario --shards` (shard-0.json, ...)",
    )
    p.add_argument(
        "--prefix", default="shard", metavar="NAME",
        help="manifest filename prefix (default: shard); shard i pairs "
        "with store DIR/<prefix>-<i>-store unless --stores overrides",
    )
    p.add_argument(
        "--stores", nargs="*", default=None, metavar="DIR",
        help="explicit shard store directories, one per shard in shard "
        "order (default: DIR/<prefix>-<i>-store)",
    )
    p.add_argument(
        "--prom", action="store_true",
        help="emit Prometheus text exposition instead of the table",
    )
    p.add_argument(
        "--remote", default=None, metavar="DIR",
        help="remote store root the campaign syncs through; adds "
        "per-shard sync lag (synced/pending/failed documents) to the "
        "report (default: local progress only)",
    )
    p.set_defaults(handler=_cmd_campaign_status)

    p = sub.add_parser(
        "merge",
        help="merge shard stores back into a campaign store",
        parents=[
            make_runtime_parent(
                workers_help="accepted for CLI consistency; merging is "
                "sequential and deterministic",
                seed_default=None,
                seed_help="accepted for CLI consistency; ignored — merging "
                "computes nothing",
                store_help="destination campaign store (required)",
                store_required=True,
            )
        ],
    )
    p.add_argument(
        "shard_stores", nargs="+", metavar="SHARD_STORE",
        help="shard store directories written by `repro worker`",
    )
    p.add_argument(
        "--allow-partial", action="store_true",
        help="merge shard stores whose failures.json still names "
        "unresolved quarantined/blocked cells (default: refuse, so a "
        "partial campaign cannot silently pose as complete)",
    )
    p.set_defaults(handler=_cmd_merge)

    p = sub.add_parser(
        "store",
        help="artifact-store maintenance (verify, push/pull/sync)",
    )
    store_sub = p.add_subparsers(dest="store_command", required=True)
    p = store_sub.add_parser(
        "verify",
        help="audit stores: every manifested document present, readable, "
        "and matching its recorded sha256; an entry that predates "
        "digests is a problem (exit 1 on any problem)",
    )
    p.add_argument(
        "stores", nargs="+", metavar="DIR",
        help="artifact store directories to audit",
    )
    p.add_argument(
        "--repair", action="store_true",
        help="delete corrupt documents and drop their manifest entries "
        "so a re-run or `store pull` recomputes them; benign orphan "
        "directories are never touched (exit 0 once clean)",
    )
    p.set_defaults(handler=_cmd_store_verify)
    for verb, verb_help in (
        ("push", "upload local artifacts the remote store lacks "
         "(digest-keyed delta, read-back verified)"),
        ("pull", "fetch remote artifacts the local store lacks "
         "(digest-verified before landing; failures leave the local "
         "store valid and name the missing keys)"),
        ("sync", "pull then push, converging both stores to the union"),
    ):
        p = store_sub.add_parser(verb, help=verb_help)
        p.add_argument(
            "store_dir", metavar="DIR",
            help="local artifact store directory",
        )
        p.add_argument(
            "--remote", required=True, metavar="DIR",
            help="remote store root (a mounted/synced directory)",
        )
        p.add_argument(
            "--retries", type=int, default=3, metavar="N",
            help="per-operation transport retries with exponential "
            "backoff and deterministic jitter (default: 3)",
        )
        p.add_argument(
            "--timeout", type=float, default=30.0, metavar="S",
            help="per-operation transport timeout (default: 30)",
        )
        p.add_argument(
            "--seed", type=int, default=None,
            help="seed for deterministic retry jitter (default: 0)",
        )
        p.add_argument(
            "--quiet", action="store_true",
            help="suppress structured transfer log lines",
        )
        p.set_defaults(handler=_cmd_store_sync)

    p = sub.add_parser(
        "serve",
        help="one serving run: a call tree under open/closed-loop load "
        "on a shaped fabric, gated by an SLO verdict table",
    )
    p.add_argument(
        "--provider", default="hpccloud",
        help="provider whose link-model incarnations shape the fabric "
        "(amazon, google, hpccloud, or 'fixed' for a constant-rate "
        "clean fabric at the hpccloud-class median; default: hpccloud)",
    )
    p.add_argument(
        "--instance", default=None,
        help="instance type (default: the provider's serving default)",
    )
    p.add_argument(
        "--nodes", type=int, default=None, metavar="N",
        help="cluster size (default: 8, or 4 with --fast)",
    )
    p.add_argument(
        "--topology", default="three_tier",
        choices=("line", "fanout", "three_tier"),
        help="call-tree shape (default: three_tier)",
    )
    p.add_argument(
        "--depth", type=int, default=3, metavar="N",
        help="chain length for line, tree depth for fanout (default: 3)",
    )
    p.add_argument(
        "--breadth", type=int, default=2, metavar="N",
        help="fan-out per level for the fanout topology (default: 2)",
    )
    p.add_argument(
        "--arrival", default="poisson",
        choices=("poisson", "diurnal", "flash"),
        help="open-loop arrival shape (default: poisson)",
    )
    p.add_argument(
        "--rate", type=float, default=20.0, metavar="RPS",
        help="open-loop request rate in requests/second (the peak for "
        "diurnal/flash); 0 for closed-loop-only (default: 20)",
    )
    p.add_argument(
        "--duration", type=float, default=None, metavar="S",
        help="simulated seconds of load (default: 120, or 30 with --fast)",
    )
    p.add_argument(
        "--users", type=int, default=0, metavar="N",
        help="closed-loop user pool size (default: 0, open-loop only)",
    )
    p.add_argument(
        "--think", type=float, default=1.0, metavar="S",
        help="closed-loop think time between a user's requests "
        "(default: 1.0)",
    )
    p.add_argument(
        "--payload-scale", type=float, default=1.0, metavar="X",
        help="multiplier on every call's request/response payload "
        "(default: 1.0)",
    )
    p.add_argument(
        "--p50", type=float, default=0.0, metavar="MS",
        help="per-window p50 latency target in ms, 0 disables (default: 0)",
    )
    p.add_argument(
        "--p99", type=float, default=250.0, metavar="MS",
        help="per-window p99 latency target in ms, 0 disables "
        "(default: 250)",
    )
    p.add_argument(
        "--p999", type=float, default=0.0, metavar="MS",
        help="per-window p99.9 latency target in ms, 0 disables "
        "(default: 0)",
    )
    p.add_argument(
        "--window", type=float, default=None, metavar="S",
        help="SLO evaluation window in simulated seconds (default: 30, "
        "or 10 with --fast)",
    )
    p.add_argument(
        "--seed", type=int, default=0,
        help="cell RNG seed: incarnation draws, arrival gaps, and "
        "compute noise (default: 0)",
    )
    p.add_argument(
        "--fast", action="store_true",
        help="small cluster, short run, tight windows",
    )
    p.add_argument(
        "--prom", action="store_true",
        help="emit the repro_slo_* gauges as Prometheus text exposition "
        "instead of the human-readable verdict",
    )
    p.set_defaults(handler=_cmd_serve)

    p = sub.add_parser("fingerprint", help="F5.2 baseline for an instance")
    p.add_argument("instance", help="EC2 instance type, e.g. c5.xlarge")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_fingerprint)

    p = sub.add_parser(
        "bench",
        help="run the simulator hot-path gate (BENCH_engine.json)",
    )
    p.add_argument(
        "--check",
        action="store_true",
        help="regression gate: exit non-zero when a checksum drifts from "
        "the ledger's 'smoke' reference or wall time regresses beyond "
        "--wall-tolerance; never writes the ledger",
    )
    p.add_argument(
        "--wall-tolerance",
        type=float,
        default=1.25,
        metavar="X",
        help="wall-time regression factor for --check (default: 1.25, "
        "i.e. fail beyond +25%%; raise on noisy shared runners)",
    )
    p.add_argument(
        "--save-smoke",
        action="store_true",
        help="record this run as the 'smoke' reference for --check",
    )
    p.add_argument(
        "--json", default="BENCH_engine.json", metavar="PATH",
        help="results ledger path (default: BENCH_engine.json)",
    )
    p.set_defaults(handler=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
