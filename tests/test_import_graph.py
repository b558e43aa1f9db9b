"""Import-graph guards: each entry point loads only the layers it runs.

Every fresh process (a perfbench set-up, a CLI call, a campaign shard
worker and each relaunch of one) pays for what its imports load, so
the package ``__init__``s of :mod:`repro.scenarios`, :mod:`repro.runtime`,
:mod:`repro.measurement`, :mod:`repro.stats`, :mod:`repro.obs` and
:mod:`repro.serving` export through the lazy helper in
:mod:`repro._lazy`: a name's submodule loads on first use.  The guards
here pin the module sets, never timings:

* a DAG-stream process (the scenario generators, providers, engine and
  HiBench jobs) loads no campaign, measurement, serving, stats, obs or
  emulator layer;
* a shard worker (:mod:`repro.runtime.worker` plus
  :mod:`repro.scenarios.orchestrate`, which ``repro worker`` decodes
  through) loads neither the supervisor and remote transport nor the
  serving layer nor :mod:`multiprocessing`;
* a leased ``repro worker`` call (the CLI form ``repro campaign run``
  launches) loads neither the supervisor nor the remote transport;
* no simulation loads scipy: ``scipy.special`` alone is about a
  quarter of a second and drags in ``numpy.f2py``.  The AR(1)
  shaper's normal CDF is the pure-Python cephes port in
  :mod:`repro.netmodel._ndtr`, and :mod:`repro.stats` imports
  ``scipy.stats`` inside the functions that call it.  The fabric's hot
  loops have one implementation, so a simulation loads neither numba
  nor :mod:`repro.simulator._kernels` (the array-based reference the
  kernel tests compare against).

Each module-set check runs in a cold interpreter so modules loaded by
other tests cannot mask a regression.  The lazy exports themselves are
checked complete: every ``__all__`` name resolves to its submodule's
object, shows in ``dir()`` and binds under ``import *``.
"""

import importlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cold(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


LOADED = """
import sys

def loaded(*prefixes):
    return sorted(
        m for m in sys.modules
        if any(m == p or m.startswith(p + ".") for p in prefixes)
    )
"""


def test_dag_stream_path_loads_only_its_layers():
    out = run_cold(
        LOADED
        + """
import numpy as np

import repro.scenarios
from repro.cloud.providers import default_providers
from repro.scenarios.generate import poisson_arrivals
from repro.simulator.cluster import Cluster, NodeSpec
from repro.simulator.engine import SparkEngine
from repro.workloads.hibench import HIBENCH_APPS

FORBIDDEN = (
    "repro.scenarios.orchestrate",
    "repro.runtime",
    "repro.measurement",
    "repro.serving",
    "repro.stats",
    "repro.obs",
    "repro.emulator",
)
assert loaded(*FORBIDDEN) == [], f"loaded on import: {loaded(*FORBIDDEN)}"

rng = np.random.default_rng(3)
provider = default_providers()["amazon"]
models = [provider.link_model("c5.large", rng) for _ in range(4)]
cluster = Cluster(4, NodeSpec(slots=2), models.__getitem__)
times = poisson_arrivals(rng, rate_per_min=4.0, n_jobs=2)
stream = [
    (float(t), HIBENCH_APPS["terasort"](n_nodes=4, slots=2, data_scale=0.05))
    for t in times
]
result = SparkEngine(cluster, rng=rng).run_stream(stream, scheduler="fair")
assert result.runtimes().size == 2
print(loaded(*FORBIDDEN))
"""
    )
    assert out.strip() == "[]"


def test_shard_worker_path_skips_supervisor_and_serving(tmp_path):
    out = run_cold(
        LOADED
        + f"""
import repro.runtime.worker
import repro.scenarios.orchestrate

FORBIDDEN = (
    "repro.runtime.coordinator",
    "repro.runtime.remote",
    "repro.serving",
    "multiprocessing",
)
assert loaded(*FORBIDDEN) == [], f"loaded on import: {{loaded(*FORBIDDEN)}}"

from repro.runtime.worker import run_manifest, write_shard_manifests
from repro.scenarios.orchestrate import (
    SCENARIO_CODEC, scenario_cells, scenario_matrix,
)

configs = scenario_matrix(
    providers=("amazon",), arrival_rates=(2.0,), schedulers=("fifo", "fair"),
    seed=5, n_nodes=4, n_jobs=2, data_scale=0.05,
)
(manifest,) = write_shard_manifests(
    scenario_cells(configs), n_shards=1, directory={str(tmp_path)!r},
    encode_ref=SCENARIO_CODEC.encode_ref, decode_ref=SCENARIO_CODEC.decode_ref,
)
summary = run_manifest(manifest, {str(tmp_path / "store")!r}, echo=None)
assert len(summary["computed"]) == 2
print(loaded(*FORBIDDEN))
"""
    )
    assert out.strip() == "[]"


def test_leased_cli_worker_skips_supervisor_and_remote(tmp_path):
    # The workers ``repro campaign run`` launches always hold a lease,
    # so the lease helpers must not pull in the supervisor behind them.
    out = run_cold(
        LOADED
        + f"""
from repro.cli import main
from repro.runtime.chaos import demo_codec, demo_matrix
from repro.runtime.worker import write_shard_manifests

codec = demo_codec()
(manifest,) = write_shard_manifests(
    demo_matrix(), n_shards=1, directory={str(tmp_path)!r},
    encode_ref=codec.encode_ref, decode_ref=codec.decode_ref,
)
code = main([
    "worker", str(manifest), "--store", {str(tmp_path / "store")!r},
    "--lease", {str(tmp_path / "shard-0.lease.json")!r}, "--quiet",
])
assert code == 0, code
print(loaded("repro.runtime.coordinator", "repro.runtime.remote"))
"""
    )
    assert out.strip().splitlines()[-1] == "[]"


LAZY_PACKAGES = (
    "repro.scenarios",
    "repro.runtime",
    "repro.measurement",
    "repro.stats",
    "repro.obs",
    "repro.serving",
)


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_lazy_exports_are_complete(name):
    package = importlib.import_module(name)
    lazy = package._EXPORTS
    owner = {attr: module for module, attrs in lazy.items() for attr in attrs}
    assert set(owner) <= set(package.__all__)
    for attr in package.__all__:
        value = getattr(package, attr)
        if attr in owner:
            assert value is getattr(importlib.import_module(owner[attr]), attr)
        assert attr in dir(package)
    star: dict = {}
    exec(f"from {name} import *", star)
    assert set(package.__all__) <= set(star)
    with pytest.raises(AttributeError, match=repr(name)):
        getattr(package, "no_such_export")


def test_simulation_paths_never_load_scipy():
    out = run_cold(
        """
        import sys

        def heavy():
            return sorted(
                m
                for m in sys.modules
                if m.startswith(
                    ("scipy", "numpy.f2py", "numba", "repro.simulator._kernels")
                )
            )

        import repro.runtime.worker
        import repro.scenarios
        import repro.serving
        import repro.simulator.engine

        assert heavy() == [], f"loaded on import: {heavy()}"

        from repro.scenarios import DEFAULT_INSTANCES, ScenarioConfig, run_scenario
        from repro.serving import ServingConfig, run_serving

        for provider in ("amazon", "google", "hpccloud"):
            config = ScenarioConfig(
                provider_name=provider,
                instance_name=DEFAULT_INSTANCES[provider],
                n_nodes=4,
                n_jobs=3,
                data_scale=0.05,
                seed=7,
            )
            assert run_scenario(config).runtimes.size == 3
        serving = ServingConfig(
            provider_name="hpccloud",
            n_nodes=4,
            rate_rps=10.0,
            duration_s=10.0,
            slo_window_s=5.0,
            seed=1,
        )
        assert run_serving(serving).n_completed > 0
        assert "scipy.stats" not in sys.modules
        print(heavy())
        """
    )
    assert out.strip() == "[]"


def test_stats_functions_load_scipy_stats_on_first_call():
    out = run_cold(
        """
        import sys

        import repro.stats
        from repro.stats import one_way_anova, quantile_ci, shapiro_test

        assert "scipy.stats" not in sys.modules, "loaded on import"
        ci = quantile_ci(list(range(1, 31)), 0.5)
        assert ci.low <= ci.estimate <= ci.high
        assert 0.0 <= shapiro_test([1.0, 2.0, 4.0, 8.0, 3.0]).p_value <= 1.0
        verdict = one_way_anova([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert verdict.reject_null
        print("scipy.stats" in sys.modules)
        """
    )
    assert out.strip() == "True"
