"""One fresh benchmark process: set up a workload, and measure or trace it.

    python3 perfbench/worker.py setup   WORKLOAD SEED WORKDIR
    python3 perfbench/worker.py measure WORKLOAD SEED WORKDIR SECONDS
    python3 perfbench/worker.py trace   WORKLOAD SEED WORKDIR SECONDS CHROME_PATH

``run.py`` starts these with ``PYTHONPATH`` set to the checkout's
``src``; each prints one JSON object as its last line.  Set-up time
runs from the first import of the program to the built inputs, so it
includes the imports every CLI and shard-worker process pays.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path


def _setup(name: str, seed: int, workdir: Path, timer):
    """Build the workload; returns it with raw and calibrated set-up seconds.

    The set-up region is the program's imports plus building the
    inputs; numpy is already loaded by the calibration kernel.
    """
    import importlib

    import calibrate
    from workloads import WORKLOADS

    imported = {}

    def build():
        t0 = time.perf_counter()
        importlib.import_module("repro.scenarios")
        imported["s"] = time.perf_counter() - t0
        return WORKLOADS[name](seed, workdir, timer)

    workload, setup_s, setup_cal_s = calibrate.timed(build)
    return workload, {
        "setup_s": setup_s,
        "setup_cal_s": setup_cal_s,
        "import_s": imported["s"],
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _fingerprint() -> dict:
    import importlib.util
    import platform

    import numpy

    from repro.simulator import _kernels

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "REPRO_NO_JIT": os.environ.get("REPRO_NO_JIT", ""),
        "jit": bool(_kernels.HAVE_JIT),
    }


def _pass_record(done) -> dict:
    return {
        "wall_s": done.wall_s,
        "cal_s": done.cal_s,
        "units": done.units,
        "outputs": done.outputs,
        "problems": done.problems,
    }


def measure(name: str, seed: int, workdir: Path, seconds: float) -> dict:
    """Untraced passes for ``seconds``, each timed with speed sampling."""
    import calibrate

    workload, setup = _setup(name, seed, workdir, calibrate.timed)
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        try:
            passes.append(_pass_record(workload.run_pass()))
        except Exception as exc:  # a raising pass fails its units
            passes.append({"error": f"{type(exc).__name__}: {exc}"})
            break
    problems = list(getattr(workload, "cross_check", list)())
    return {
        **setup,
        "passes": passes,
        "problems": problems,
        "peak_rss_mb": _peak_rss_mb(),
        "fingerprint": _fingerprint(),
    }


def trace(name: str, seed: int, workdir: Path, seconds: float,
          chrome_path: Path) -> dict:
    """Alternate untraced and traced passes; per-layer metrics from the traced."""
    import calibrate
    import layers
    from tracing import LayerTracer

    workload, setup = _setup(name, seed, workdir, calibrate.untimed)
    tracer = LayerTracer()
    untraced_walls, traced_walls = [], []
    untraced_outputs, traced_outputs = [], []
    hit_fracs = []
    units = 0
    deadline = time.perf_counter() + seconds
    run_id = 0
    while not traced_walls or time.perf_counter() < deadline:
        run_id += 1
        untraced, wall = _whole_pass(workload)
        untraced_walls.append(wall)
        untraced_outputs.append(untraced.outputs)
        layers.install(tracer)
        try:
            done, wall = tracer.region(workload.run_pass, run_id)
        finally:
            tracer.remove()
        traced_walls.append(wall)
        traced_outputs.append(done.outputs)
        hit_fracs.append(done.cache_hit_frac)
        units += untraced.units + done.units
    n_traced = len(traced_walls)
    metrics = layers.per_layer_metrics(
        tracer,
        n_passes=n_traced,
        untraced_wall=statistics.median(untraced_walls),
        traced_wall=statistics.median(traced_walls),
        import_s=setup["import_s"],
        cache_hit_frac=statistics.median(hit_fracs),
    )
    tracer.write_chrome_trace(chrome_path)
    return {
        **setup,
        "metrics": metrics,
        "traced_passes": n_traced,
        "traced_wall_s": statistics.median(traced_walls),
        "units": units,
        "spans_kept": len(tracer.spans),
        "spans_dropped": tracer.dropped,
        "wrappers_left": tracer.leftovers(),
        "outputs_equal": all(
            o == untraced_outputs[0] for o in untraced_outputs + traced_outputs
        ),
        "outputs": untraced_outputs[0],
        "fingerprint": _fingerprint(),
    }


def _whole_pass(workload):
    t0 = time.perf_counter()
    done = workload.run_pass()
    return done, time.perf_counter() - t0


def main(argv: list[str]) -> int:
    mode, name, seed, workdir = argv[0], argv[1], int(argv[2]), Path(argv[3])
    workdir.mkdir(parents=True, exist_ok=True)
    if mode == "setup":
        import calibrate

        _, result = _setup(name, seed, workdir, calibrate.timed)
        result["peak_rss_mb"] = _peak_rss_mb()
    elif mode == "measure":
        result = measure(name, seed, workdir, float(argv[4]))
    elif mode == "trace":
        result = trace(name, seed, workdir, float(argv[4]), Path(argv[5]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
