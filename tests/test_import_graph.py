"""Import-graph guard: simulations never load scipy or a second backend.

Importing scipy is slow (``scipy.special`` alone is about a quarter of
a second, and it drags in ``numpy.f2py``), and every fresh process (a
campaign worker shard, a subprocess cell, a CLI call) would pay for it.
No simulation needs it: the AR(1) shaper's normal CDF is the
pure-Python cephes port in :mod:`repro.netmodel._ndtr`, and
:mod:`repro.stats` imports ``scipy.stats`` inside the functions that
call it.  The fabric's hot loops have one implementation, so a
simulation loads neither numba nor :mod:`repro.simulator._kernels`
(the array-based reference the kernel tests compare against).  Each
check runs in a cold interpreter so modules loaded by other tests
cannot mask a regression.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

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
