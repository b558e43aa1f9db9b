"""Tests for the ``repro bench`` gate: its cases and its check."""

import json

import pytest

from repro.bench import (
    bench_campaign_overhead,
    bench_stream,
    bench_waterfill,
    check_results,
    load_results,
    record_smoke,
    workload_params,
)
from repro.cli import main


class TestBenchmarks:
    def test_waterfill_microbench_reports_checksum(self):
        result = bench_waterfill(n_flows=300, n_nodes=8, rounds=1)
        assert result["n_flows"] == 300
        assert result["wall_s"] >= 0
        assert result["checksum"] > 0

    def test_waterfill_checksum_is_deterministic(self):
        a = bench_waterfill(n_flows=200, n_nodes=8, rounds=1)
        b = bench_waterfill(n_flows=200, n_nodes=8, rounds=1)
        assert a["checksum"] == b["checksum"]

    def test_stream_bench_small(self):
        result = bench_stream(n_nodes=4, n_jobs=2, data_scale=0.05)
        assert result["checksum"] > 0
        assert result["makespan_s"] > 0
        assert result["samples"] > 0

    def test_shaper_case_compares_paths_bit_exactly(self):
        from repro.bench import bench_fleet_vs_scalar
        from repro.bench.hotpath import _oscillating_buckets

        result = bench_fleet_vs_scalar(
            _oscillating_buckets, "budgets", max_step_s=0.1,
            n_nodes=16, duration_s=60.0,
        )
        assert result["checksum"] > 0
        assert result["n_steps"] > 0
        assert result["fleet_speedup"] > 0
        assert "scalar_wall_s" in result


class TestGateCasePins:
    """The literal outputs of the five cheap gate cases.

    Each case runs exactly as ``repro bench`` runs it, and its workload
    params and simulation outputs must equal the values the ``smoke``
    reference of ``BENCH_engine.json`` records.
    """

    PINS = {
        "waterfill_10k": {
            "n_flows": 1000, "n_nodes": 64, "rounds": 2,
            "checksum": 614.362056,
        },
        "shaper_64_tb": {
            "n_nodes": 64, "duration_s": 300.0,
            "n_steps": 3042, "checksum": 2254.927374,
        },
        "percore_64": {
            "n_nodes": 64, "duration_s": 300.0,
            "n_steps": 1184, "checksum": 427.075224,
        },
        "campaign_overhead": {
            "n_cells": 8, "cache_hits": 8, "checksum": 880.641,
        },
        "serving_openloop": {
            "n_nodes": 4, "rate_rps": 40.0, "duration_s": 30.0,
            "n_requests": 402, "n_steps": 4982, "slo_violations": 0,
            "checksum": 15.692904,
        },
    }

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_case_reproduces_its_pin(self, name):
        from repro.bench.hotpath import _CASES

        row = _CASES[name]()
        expected = self.PINS[name]
        assert {key: row[key] for key in expected} == expected
        assert workload_params(row) == workload_params(expected)


class TestLedger:
    def test_missing_ledger_is_empty(self, tmp_path):
        ledger = load_results(tmp_path / "nope.json")
        assert ledger["baseline"] is None
        assert ledger["smoke"] is None

    def test_record_smoke_keeps_the_frozen_sections(self, tmp_path):
        path = tmp_path / "BENCH_engine.json"
        frozen = {
            "schema": 1,
            "baseline": {"label": "old", "results": {"x": {"wall_s": 2.0}}},
            "current": {"label": "new", "results": {"x": {"wall_s": 0.5}}},
            "smoke": None,
            "speedup": {"x": 4.0},
        }
        path.write_text(json.dumps(frozen))
        record_smoke({"x": {"wall_s": 0.1, "checksum": 1.0}}, path=path)
        reloaded = json.loads(path.read_text())
        for section in ("baseline", "current", "speedup"):
            assert reloaded[section] == frozen[section]
        assert reloaded["smoke"] == {
            "label": "",
            "results": {"x": {"wall_s": 0.1, "checksum": 1.0}},
        }


class TestCheckGate:
    _REF = {"label": "ref", "results": {"x": {"wall_s": 1.0, "checksum": 42.0}}}

    def test_clean_run_passes(self):
        results = {"x": {"wall_s": 1.1, "checksum": 42.0}}
        assert check_results(results, self._REF) == []

    def test_checksum_drift_fails(self):
        results = {"x": {"wall_s": 1.0, "checksum": 43.0}}
        failures = check_results(results, self._REF)
        assert len(failures) == 1
        assert "checksum drifted" in failures[0]

    def test_wall_regression_fails_beyond_tolerance(self):
        results = {"x": {"wall_s": 1.3, "checksum": 42.0}}
        failures = check_results(results, self._REF, wall_tolerance=1.25)
        assert len(failures) == 1
        assert "regressed" in failures[0]
        assert check_results(results, self._REF, wall_tolerance=1.5) == []

    def test_unrecorded_case_fails(self):
        results = {
            "x": {"wall_s": 1.0, "checksum": 42.0},
            "new_case": {"wall_s": 9.0, "checksum": 1.0},
        }
        failures = check_results(results, self._REF)
        assert len(failures) == 1
        assert failures[0].startswith("new_case: not in the recorded reference")

    def test_case_missing_from_the_run_fails(self):
        # A registry that dropped a case must not print "bench check ok".
        failures = check_results({}, self._REF)
        assert failures == [
            "x: recorded in the reference but missing from the run"
        ]

    def test_workload_param_mismatch_is_refused(self):
        ref = {
            "label": "ref",
            "results": {
                "x": {"wall_s": 1.0, "checksum": 42.0, "n_jobs": 200}
            },
        }
        results = {"x": {"wall_s": 1.0, "checksum": 42.0, "n_jobs": 20}}
        failures = check_results(results, ref)
        assert len(failures) == 1
        assert "workload params differ" in failures[0]
        # The refusal replaces (not compounds) the checksum/wall gates:
        # a drifted checksum on mismatched params reports only the
        # param failure, since the comparison itself is meaningless.
        results = {"x": {"wall_s": 9.0, "checksum": 7.0, "n_jobs": 20}}
        failures = check_results(results, ref)
        assert len(failures) == 1
        assert "workload params differ" in failures[0]

    def test_workload_params_strips_only_measured_keys(self):
        row = {
            "wall_s": 1.0,
            "checksum": 42.0,
            "overhead_pct": 3.0,
            "batch_speedup": 2.0,
            "n_jobs": 200,
            "scheduler": "fair",
        }
        assert workload_params(row) == {"n_jobs": 200, "scheduler": "fair"}

    def test_missing_reference_section_fails_every_case(self):
        results = {"x": {"wall_s": 9.0, "checksum": 99.0}}
        failures = check_results(results, None)
        assert len(failures) == 1
        assert "not in the recorded reference" in failures[0]

    def test_cli_check_fails_without_reference(self, tmp_path, capsys):
        # Reference validation happens before any benchmark runs, so
        # this is instant despite going through the real CLI.
        path = tmp_path / "BENCH_engine.json"
        path.write_text(json.dumps({"schema": 1, "smoke": None}))
        code = main(["bench", "--check", "--json", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "no 'smoke' reference" in err

    def test_cli_smoke_check_round_trip(self, tmp_path, capsys, monkeypatch):
        # Gate plumbing only (exit codes, sections, output); the suite
        # itself is canned — the real suite already runs in CI and the
        # cheap cases run in TestGateCasePins.
        import repro.bench.hotpath as hotpath

        canned = {"stream_16x200": {"wall_s": 1.0, "checksum": 42.0}}
        monkeypatch.setattr(hotpath, "run_suite", lambda: canned)
        path = tmp_path / "BENCH_engine.json"
        assert main(["bench", "--save-smoke", "--json", str(path)]) == 0
        assert load_results(path)["smoke"] is not None
        code = main(
            [
                "bench", "--check", "--json", str(path),
                "--wall-tolerance", "1000",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "bench check ok: 1 case(s)" in out

    def test_cli_check_detects_checksum_drift(self, tmp_path, capsys, monkeypatch):
        import repro.bench.hotpath as hotpath

        canned = {"stream_16x200": {"wall_s": 1.0, "checksum": 42.0}}
        monkeypatch.setattr(hotpath, "run_suite", lambda: canned)
        path = tmp_path / "BENCH_engine.json"
        assert main(["bench", "--save-smoke", "--json", str(path)]) == 0
        ledger = load_results(path)
        ledger["smoke"]["results"]["stream_16x200"]["checksum"] += 1.0
        path.write_text(json.dumps(ledger))
        code = main(
            [
                "bench", "--check", "--json", str(path),
                "--wall-tolerance", "1000",
            ]
        )
        assert code == 1
        assert "checksum drifted" in capsys.readouterr().err

    def test_cli_plain_run_prints_rows_and_leaves_the_ledger(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.bench.hotpath as hotpath

        canned = {"stream_16x200": {"wall_s": 1.0, "checksum": 42.0}}
        monkeypatch.setattr(hotpath, "run_suite", lambda: canned)
        path = tmp_path / "BENCH_engine.json"
        assert main(["bench", "--json", str(path)]) == 0
        assert not path.exists()
        assert capsys.readouterr().out == (
            "stream_16x200: wall_s=1.0  checksum=42.0\n"
        )


class TestCampaignOverhead:
    def test_overhead_case_is_deterministic_and_cached(self):
        a = bench_campaign_overhead(n_cells=4, seed=77)
        b = bench_campaign_overhead(n_cells=4, seed=77)
        assert a["cache_hits"] == 4
        assert a["checksum"] == b["checksum"]
        assert a["wall_s"] >= 0.0
        # per_cell_ms derives from the unrounded wall clock; it must
        # sit within a rounding step of the recorded wall_s / n_cells.
        assert a["per_cell_ms"] == pytest.approx(
            a["wall_s"] / 4 * 1_000.0, abs=0.05
        )
