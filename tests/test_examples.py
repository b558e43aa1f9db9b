"""Smoke tests: the example scripts must stay runnable.

Only the fast examples run here (the full set is exercised manually /
in CI with longer budgets); each must complete and print its headline
sections.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, capsys) -> str:
    path = EXAMPLES_DIR / name
    assert path.exists(), f"missing example {name}"
    runpy.run_path(str(path), run_name="__main__")
    return capsys.readouterr().out


def test_quickstart(capsys):
    out = run_example("quickstart.py", capsys)
    assert "network fingerprint" in out
    assert "Terasort" in out
    assert "token bucket" in out


def test_survey_report(capsys):
    out = run_example("survey_report.py", capsys)
    assert "Table 2" in out
    assert "Figure 1a" in out
    assert "Cohen's Kappa" in out


def test_straggler_postmortem(capsys):
    out = run_example("straggler_postmortem.py", capsys)
    assert "straggler" in out
    assert "verdict" in out


def test_scenario_sweep(capsys):
    out = run_example("scenario_sweep.py", capsys)
    assert "scenario sweep: 8 cells" in out
    assert "computed 8 cells" in out
    assert "re-run cache hits: 8/8" in out


def test_deadline_campaign(capsys):
    out = run_example("deadline_campaign.py", capsys)
    assert "deadline campaign: 10 cells (5 fresh + 5 chained)" in out
    assert "miss_rate" in out
    assert "re-run cache hits: 10/10" in out
    assert "mean slowdown: srpt" in out
    assert "warm-fabric slowdown" in out


def test_observability_tour(capsys):
    out = run_example("observability_tour.py", capsys)
    assert "observed stream" in out
    assert "task-latency quantiles" in out
    assert "chrome trace:" in out
    assert "campaign status" in out
    assert "STRAGGLER" in out


def test_sharded_campaign(capsys):
    out = run_example("sharded_campaign.py", capsys)
    assert "2 shards" in out
    assert "shard 1 resumed" in out
    assert "content hash matches a serial run" in out
    assert "8/8 cache hits" in out


def test_distributed_campaign(capsys):
    out = run_example("distributed_campaign.py", capsys)
    assert "remote workers done" in out
    assert "merged hash equals the serial run: convergence held" in out
    assert "refetches=1" in out
    assert "CORRUPT" not in out


def test_serving_slo(capsys):
    out = run_example("serving_slo.py", capsys)
    assert "serving SLO gate" in out
    assert "slo verdict: FAIL (1 violation window(s))" in out
    assert "slo verdict: PASS (0 violation window(s))" in out
    assert "only the variable fabric breaks the SLO" in out


def test_fault_tolerant_campaign(capsys):
    out = run_example("fault_tolerant_campaign.py", capsys)
    assert "convergence held" in out
    assert "quarantined: ['cell-" in out
    assert "partial merge kept 6/8" in out
    assert "store verify" in out and "CORRUPT" not in out


@pytest.mark.parametrize(
    "name", ["fleet_scaling.py", "multistream_campaign.py"]
)
def test_bench_helper_importers_load(name):
    # Both examples borrow private helpers from repro.bench.hotpath and
    # are too slow to run here; loading them (without running main)
    # fails when a helper they import is renamed or merged away.
    namespace = runpy.run_path(str(EXAMPLES_DIR / name), run_name="not_main")
    assert callable(namespace["main"])
