"""The repository benchmark: end-to-end and per-layer metrics per workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dag_stream --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --check          # every workload, both pinned seeds
    python3 perfbench/run.py --record-pins    # rewrite perfbench/pins.json

One run sets the workload up in several fresh processes (``setup_s``),
measures untraced passes for ``--seconds`` in another (``units_per_s``,
``peak_rss_mb``), checks every pass's simulation outputs against the
pins in ``pins.json`` (or, for an unpinned seed, against each other),
and prints a report followed by one JSON line.  ``--trace 1`` instead
alternates untraced and traced passes in one fresh process and reports
the per-layer metrics; the traced outputs must equal the untraced ones.
Host times are calibrated against a fixed reference kernel (see
``calibrate.py``); raw times are printed beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Fresh processes that only set up, besides the measuring process.
SETUP_PROCESSES = 2
#: Wall budget of one run, below the 180 s a run may take.
RUN_BUDGET_S = 170.0


class BenchError(RuntimeError):
    pass


def load_json(path: Path) -> dict:
    return json.loads(path.read_text()) if path.exists() else {}


def check_checkout() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(
            f"no program source at {ROOT / 'src' / 'repro'}; run the "
            "benchmark from the root of a full checkout"
        )


def run_worker(args: list[str], deadline: float) -> dict:
    """Run ``worker.py`` in a fresh process; its last stdout line is JSON."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run budget exhausted before the next process")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args[:3]} timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(
            f"worker {args[:3]} exited {proc.returncode}:\n{proc.stderr[-3000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def confirm_note(samples: list[float]) -> str:
    """How many repetitions a 1 % median CI needs (CONFIRM, Figure 13)."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.stats.confirm import repetitions_needed

    needed = repetitions_needed(samples, error=0.01)
    if needed is None:
        return f"CONFIRM: a 1% median CI needs more than the {len(samples)} samples"
    return f"CONFIRM: a 1% median CI needs {needed} of {len(samples)} samples"


def check_outputs(name: str, seed: int, outputs: list[dict]) -> list[str]:
    """Every pass equal, and equal to the pin when the seed is pinned."""
    problems = []
    if any(o != outputs[0] for o in outputs[1:]):
        problems.append("simulation outputs differ between passes")
    pin = load_json(HERE / "pins.json").get(name, {}).get(str(seed))
    if pin is not None and outputs and outputs[0] != pin:
        problems.append(f"outputs {outputs[0]} differ from the pin {pin}")
    return problems


def fingerprint_line(fp: dict) -> str:
    jit = "numba" if fp["jit"] else "numpy fallback"
    return (
        f"  machine: {fp['cpu']} | nproc={fp['nproc']} | python {fp['python']}"
        f" | numpy {fp['numpy']} | jit leg: {jit} (numba importable="
        f"{fp['numba_importable']}, REPRO_NO_JIT={fp['REPRO_NO_JIT']!r})"
    )


def measure(name: str, seed: int, seconds: float, workdir: Path,
            deadline: float) -> dict:
    """One untraced run: set-up samples, timed passes, checked outputs."""
    spec = load_json(HERE / "spec.json")["workloads"][name]
    wd = str(workdir)
    setups = [
        run_worker(["setup", name, str(seed), wd], deadline)
        for _ in range(SETUP_PROCESSES)
    ]
    result = run_worker(["measure", name, str(seed), wd, str(seconds)], deadline)
    setups.append(result)
    passes = [p for p in result["passes"] if "error" not in p]
    errors = [p["error"] for p in result["passes"] if "error" in p]
    per_pass = passes[0]["units"] if passes else 1
    attempted = sum(p["units"] for p in passes) + per_pass * len(errors)
    failed = per_pass * len(errors)
    problems = list(errors) + list(result["problems"])
    for p in passes:
        if p["problems"]:
            failed += p["units"]
            problems.extend(p["problems"])
    run_problems = check_outputs(name, seed, [p["outputs"] for p in passes])
    run_problems += result["problems"]
    if run_problems:
        failed = attempted
        problems.extend(run_problems)
    rates = [p["units"] / p["cal_s"] for p in passes]
    raw_rates = [p["units"] / p["wall_s"] for p in passes]
    setup_cal = [s["setup_cal_s"] for s in setups]
    metrics = {
        "units_per_s": statistics.median(rates) if rates else 0.0,
        "setup_s": statistics.median(setup_cal),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    benchmark = load_json(ROOT / "BENCHMARK.json")
    unit_of = {m["name"]: m["unit"] for m in benchmark.get("end_to_end", [])}
    why = {w["name"]: w["why"] for w in benchmark.get("workloads", [])}
    print(f"perfbench {name} seed={seed}: {len(passes)} passes of "
          f"{per_pass} {spec['unit']}")
    print(f"  why: {why.get(name, '')}")
    print(fingerprint_line(result["fingerprint"]))
    pinned = str(seed) in load_json(HERE / "pins.json").get(name, {})
    verdict = "FAIL" if run_problems else "ok"
    print(f"  outputs ({'pinned' if pinned else 'unpinned seed: passes agree'}"
          f", {verdict}): {passes[0]['outputs'] if passes else None}")
    notes = {
        "units_per_s": (
            f"{spec['alias']}; raw {statistics.median(raw_rates):.4g}; "
            + confirm_note(rates)
            if rates else "no pass completed"
        ),
        "setup_s": (
            f"raw {statistics.median(s['setup_s'] for s in setups):.4g} s; "
            + confirm_note(setup_cal)
        ),
        "peak_rss_mb": "ru_maxrss of the measuring process; one sample per run",
    }
    for metric, value in metrics.items():
        print(f"  {metric:<12} = {value:.6g} {unit_of.get(metric, '')}"
              f"  ({notes[metric]})")
    print(f"  error_rate   = {failed / attempted:.4g} "
          f"({failed} of {attempted} {spec['unit']} failed)")
    for problem in problems:
        print(f"  problem: {problem}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": value, "unit": unit_of.get(metric, "")}
            for metric, value in metrics.items()
        },
        "fingerprint": result["fingerprint"],
        "outputs": passes[0]["outputs"] if passes else None,
        "pass_rates": rates,
        "pass_raw_rates": raw_rates,
        "setup_samples": setup_cal,
    }


def trace(name: str, seed: int, seconds: float, workdir: Path,
          deadline: float) -> dict:
    """One traced run: per-layer metrics, outputs equal to untraced ones."""
    chrome = ROOT / ".perfbench" / f"trace-{name}-seed{seed}.json"
    result = run_worker(
        ["trace", name, str(seed), str(workdir), str(seconds), str(chrome)],
        deadline,
    )
    problems = check_outputs(name, seed, [result["outputs"]])
    if not result["outputs_equal"]:
        problems.append("traced outputs differ from untraced outputs")
    if result["wrappers_left"]:
        problems.append(f"wrappers left in place: {result['wrappers_left']}")
    metrics = result["metrics"]
    units = {
        m["name"]: m["unit"]
        for m in load_json(ROOT / "BENCHMARK.json").get("per_layer", [])
    }
    print(f"perfbench {name} seed={seed}: traced {result['traced_passes']} "
          f"passes (values per pass); {result['spans_kept']} spans kept, "
          f"{result['spans_dropped']} beyond the cap; Chrome trace {chrome}")
    print(fingerprint_line(result["fingerprint"]))
    wall = result["traced_wall_s"]
    for metric, value in metrics.items():
        share = (
            f"  {value / wall:6.1%} of traced wall"
            if metric.endswith(".self_s") and wall > 0 else ""
        )
        print(f"  {metric:<38} {value:>14.6g} {units.get(metric, '')}{share}")
    for problem in problems:
        print(f"  problem: {problem}")
    attempted = result["units"]
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": attempted if problems else 0,
        "metrics": {
            metric: {"value": value, "unit": units.get(metric, "")}
            for metric, value in metrics.items()
        },
        "fingerprint": result["fingerprint"],
        "outputs": result["outputs"],
    }


def run_one(name: str, seed: int, seconds: float, traced: bool,
            deadline: float) -> dict:
    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        if traced:
            return trace(name, seed, seconds, workdir, deadline)
        return measure(name, seed, seconds, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def record(ledger: Path, name: str, seed: int, seconds: float, traced: bool,
           result: dict) -> None:
    """Append the result, with its machine fingerprint, to a JSONL ledger."""
    ledger.parent.mkdir(parents=True, exist_ok=True)
    row = {"workload": name, "seed": seed, "seconds": seconds,
           "trace": traced, **result}
    with ledger.open("a") as handle:
        handle.write(json.dumps(row, sort_keys=True) + "\n")


def check_all(seconds: float) -> int:
    """Every workload on both pinned seeds, then the traced contrasts."""
    spec = load_json(HERE / "spec.json")
    seeds = (spec["default_seed"], spec["held_out_seed"])
    failures = 0
    for name in spec["workloads"]:
        for seed in seeds:
            result = run_one(name, seed, seconds, False,
                             time.monotonic() + RUN_BUDGET_S)
            failures += not result["correct"]
    layer_values = {}
    for name in spec["workloads"]:
        result = run_one(name, seeds[0], seconds, True,
                         time.monotonic() + RUN_BUDGET_S)
        failures += not result["correct"]
        layer_values[name] = {k: v["value"] for k, v in result["metrics"].items()}
    for claim, holds in contrasts(layer_values):
        print(f"contrast {'ok  ' if holds else 'FAIL'} {claim}")
        failures += not holds
    print(f"check: {'FAILED' if failures else 'passed'}")
    return 1 if failures else 0


def contrasts(values: dict) -> list[tuple[str, bool]]:
    """The layer contrasts each workload was chosen for."""
    def nonzero(prefix: str) -> set:
        return {
            name for name, metrics in values.items()
            if any(v for k, v in metrics.items()
                   if k.startswith(prefix) and k.endswith((".calls", ".self_s")))
        }

    share = {n: m["fabric.compute_rates.share"] for n, m in values.items()}
    return [
        ("water-fill share larger on dag_stream than on serving_flash",
         share["dag_stream"] > share["serving_flash"]),
        ("store.put only on campaign_sharded",
         nonzero("store.put") == {"campaign_sharded"}),
        ("store.* and codec.* only on the store-backed campaigns",
         nonzero("store.") | nonzero("codec.")
         == {"campaign_sharded", "campaign_warm"}),
        ("multistream.* only on campaign_batched",
         nonzero("multistream.") == {"campaign_batched"}),
        ("quantiles.* only on serving_flash",
         nonzero("quantiles.") == {"serving_flash"}),
    ]


def record_pins() -> int:
    """Rewrite pins.json from one pass per workload and pinned seed."""
    spec = load_json(HERE / "spec.json")
    pins: dict = {}
    for name in spec["workloads"]:
        for seed in (spec["default_seed"], spec["held_out_seed"]):
            workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
            try:
                result = run_worker(
                    ["measure", name, str(seed), str(workdir), "0"],
                    time.monotonic() + RUN_BUDGET_S,
                )
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            pins.setdefault(name, {})[str(seed)] = result["passes"][0]["outputs"]
            print(name, seed, pins[name][str(seed)])
    (HERE / "pins.json").write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ledger", type=Path,
                        default=ROOT / ".perfbench" / "results.jsonl",
                        help="JSONL file every result is appended to")
    parser.add_argument("--check", action="store_true",
                        help="all workloads on both pinned seeds, and contrasts")
    parser.add_argument("--record-pins", action="store_true")
    args = parser.parse_args(argv)
    try:
        check_checkout()
        if args.check:
            return check_all(min(args.seconds, 3.0))
        if args.record_pins:
            return record_pins()
        workloads = load_json(HERE / "spec.json")["workloads"]
        if args.workload not in workloads:
            raise BenchError(
                f"--workload must be one of {sorted(workloads)}, "
                f"not {args.workload!r}"
            )
        result = run_one(args.workload, args.seed, args.seconds,
                         bool(args.trace), time.monotonic() + RUN_BUDGET_S)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    record(args.ledger, args.workload, args.seed, args.seconds,
           bool(args.trace), result)
    print(json.dumps({key: result[key]
                      for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
