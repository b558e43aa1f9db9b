"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_figures_registered(self):
        parser = build_parser()
        for name in (f"fig{i:02d}" for i in range(1, 20)):
            args = parser.parse_args([name, "--fast"])
            assert args.artifact == name

    def test_tables_registered(self):
        parser = build_parser()
        for name in ("table1", "table2", "table3", "table4"):
            args = parser.parse_args([name])
            assert args.artifact == name

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figures_accept_seed(self):
        parser = build_parser()
        args = parser.parse_args(["fig16", "--fast", "--seed", "3"])
        assert args.seed == 3
        # Omitting --seed keeps the artifact's hardcoded default.
        assert parser.parse_args(["fig16"]).seed is None

    def test_scenario_registered(self):
        args = build_parser().parse_args(
            ["scenario", "--fast", "--seed", "7", "--workers", "2"]
        )
        assert args.seed == 7
        assert args.workers == 2

    def test_campaign_subcommands_share_runtime_flags(self):
        # The CLI-consistency contract: every campaign-ish subcommand
        # accepts the same --workers/--seed/--store vocabulary.
        parser = build_parser()
        cases = {
            "scenario": ["scenario"],
            "worker": ["worker", "m.json"],
            "merge": ["merge", "s0", "s1"],
        }
        for name, argv in cases.items():
            args = parser.parse_args(
                argv + ["--workers", "3", "--seed", "9", "--store", "d"]
            )
            assert args.workers == 3, name
            assert args.seed == 9, name
            assert args.store == "d", name

    def test_worker_requires_store(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["worker", "m.json"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["merge", "s0"])

    def test_remote_flag_spans_the_fabric(self):
        # worker, campaign run, and campaign status share one --remote
        # vocabulary naming the remote store root.
        parser = build_parser()
        cases = {
            "worker": ["worker", "m.json", "--store", "d"],
            "campaign run": ["campaign", "run", "shards"],
            "campaign status": ["campaign", "status", "shards"],
        }
        for name, argv in cases.items():
            args = parser.parse_args(argv + ["--remote", "r"])
            assert args.remote == "r", name
            assert parser.parse_args(argv).remote is None, name

    def test_store_sync_verbs_registered(self):
        parser = build_parser()
        for verb in ("push", "pull", "sync"):
            args = parser.parse_args(
                ["store", verb, "local", "--remote", "r",
                 "--retries", "5", "--timeout", "2.5", "--seed", "7"]
            )
            assert args.store_command == verb
            assert args.store_dir == "local" and args.remote == "r"
            assert args.retries == 5 and args.timeout == 2.5
            with pytest.raises(SystemExit):  # --remote is required
                parser.parse_args(["store", verb, "local"])

    def test_store_verify_flags(self):
        parser = build_parser()
        args = parser.parse_args(["store", "verify", "d0", "d1", "--repair"])
        assert args.repair and args.stores == ["d0", "d1"]

    def test_store_digest_is_not_a_verb(self, capsys):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(["store", "digest", "d0"])
        assert info.value.code == 2
        assert "invalid choice: 'digest'" in capsys.readouterr().err

    def test_figures_accept_workers(self):
        args = build_parser().parse_args(["fig16", "--fast", "--workers", "2"])
        assert args.workers == 2


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig06" in out
        assert "table3" in out
        assert "fingerprint" in out

    def test_fast_figure(self, capsys):
        assert main(["fig02"]) == 0
        out = capsys.readouterr().out
        assert "fig02" in out
        assert "cloud=A" in out

    @pytest.mark.parametrize("workers", ["0", "-5"])
    def test_figure_refuses_non_positive_workers(
        self, capsys, monkeypatch, workers
    ):
        from repro.runtime.campaign import CampaignRunner

        def no_cell_may_run(runner):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(CampaignRunner, "run", no_cell_may_run)
        assert main(["fig16", "--fast", "--workers", workers]) == 2
        assert "error: workers must be >= 1" in capsys.readouterr().err

    def test_fast_simulation_figure(self, capsys):
        assert main(["fig14", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "nrmse" in out

    def test_table(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "NSDI" in out

    def test_fingerprint(self, capsys):
        assert main(["fingerprint", "c5.xlarge"]) == 0
        out = capsys.readouterr().out
        assert "token bucket" in out
        assert "base bandwidth" in out

    def test_fingerprint_unknown_instance(self, capsys):
        assert main(["fingerprint", "z9.mega"]) == 2
        assert "error" in capsys.readouterr().err

    def test_seed_changes_stochastic_artifact(self, capsys):
        assert main(["fig12", "--seed", "0"]) == 0
        base = capsys.readouterr().out
        assert main(["fig12", "--seed", "0"]) == 0
        assert capsys.readouterr().out == base
        assert main(["fig12", "--seed", "5"]) == 0
        assert capsys.readouterr().out != base

    def test_seed_ignored_on_deterministic_artifact(self, capsys):
        assert main(["fig02", "--seed", "5"]) == 0
        captured = capsys.readouterr()
        assert "cloud=A" in captured.out
        assert "--seed ignored" in captured.err

    def test_scenario_fast(self, capsys, tmp_path):
        repo = str(tmp_path / "cells")
        argv = ["scenario", "--fast", "--seed", "7",
                "--providers", "amazon", "--arrival-rates", "2.0",
                "--repo", repo]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "scenario sweep" in first
        assert "computed=2 cached=0" in first
        # Re-running against the same repository hits the cache for
        # every cell and reproduces the rows byte for byte.
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "computed=0 cached=2" in second
        assert second.replace("computed=0 cached=2", "computed=2 cached=0") == first

    def test_scenario_bad_provider(self, capsys):
        assert main(["scenario", "--fast", "--providers", "clowncloud"]) == 2
        assert "error" in capsys.readouterr().err

    def test_scenario_store_flag_matches_repo_alias(self, capsys, tmp_path):
        argv = ["scenario", "--fast", "--seed", "7",
                "--providers", "amazon", "--arrival-rates", "2.0"]
        assert main(argv + ["--store", str(tmp_path / "a")]) == 0
        first = capsys.readouterr().out
        assert main(argv + ["--repo", str(tmp_path / "b")]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_shard_worker_merge_workflow(self, capsys, tmp_path):
        base = ["scenario", "--fast", "--seed", "7",
                "--providers", "amazon", "--arrival-rates", "2.0"]
        shard_dir = tmp_path / "shards"
        assert main(base + ["--shards", "2", "--shard-dir", str(shard_dir)]) == 0
        out = capsys.readouterr().out
        assert "2 shard manifest(s)" in out
        assert (shard_dir / "shard-0.json").exists()
        for index in range(2):
            assert main([
                "worker", str(shard_dir / f"shard-{index}.json"),
                "--store", str(shard_dir / f"shard-{index}-store"),
            ]) == 0
            assert "worker done" in capsys.readouterr().out
        merged = tmp_path / "merged"
        assert main([
            "merge", str(shard_dir / "shard-0-store"),
            str(shard_dir / "shard-1-store"), "--store", str(merged),
        ]) == 0
        assert "content hash" in capsys.readouterr().out
        # The merged store serves the whole sweep from cache.
        assert main(base + ["--store", str(merged)]) == 0
        assert "computed=0 cached=2" in capsys.readouterr().out

    def test_shards_requires_shard_dir(self, capsys):
        assert main(["scenario", "--fast", "--shards", "2"]) == 2
        assert "shard-dir" in capsys.readouterr().err

    def test_worker_missing_manifest(self, capsys, tmp_path):
        code = main(["worker", str(tmp_path / "nope.json"),
                     "--store", str(tmp_path / "s")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_scenario_corrupted_cache_is_clean_error(self, capsys, tmp_path):
        store = tmp_path / "cells"
        argv = ["scenario", "--fast", "--seed", "7",
                "--providers", "amazon", "--arrival-rates", "2.0",
                "--store", str(store)]
        assert main(argv) == 0
        capsys.readouterr()
        victim = next(store.glob("scn-*"))
        (victim / "runtimes.json").unlink()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "corrupt" in err

    def test_store_verify_missing_store_is_clean_error(
        self, capsys, tmp_path
    ):
        missing = tmp_path / "never-created"
        assert main(["store", "verify", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        # The audit must not scaffold the store it failed to find.
        assert not missing.exists()

    def test_campaign_run_empty_dir_is_clean_error(self, capsys, tmp_path):
        assert main(["campaign", "run", str(tmp_path)]) == 2
        assert "no shard manifests" in capsys.readouterr().err


class TestStoreMaintenance:
    def _store(self, tmp_path, name="local"):
        from repro.runtime import ArtifactStore

        store = ArtifactStore(tmp_path / name)
        store.put("k1", {"config": {"seed": 1}, "a": {"values": [1.0]}})
        store.put("k2", {"config": {"seed": 2}})
        return store

    def test_push_pull_roundtrip_via_cli(self, capsys, tmp_path):
        from repro.runtime import ArtifactStore

        source = self._store(tmp_path)
        remote = tmp_path / "remote"
        assert main([
            "store", "push", str(source.root), "--remote", str(remote),
            "--quiet",
        ]) == 0
        assert "pushed=2" in capsys.readouterr().out
        dest = ArtifactStore(tmp_path / "dest")
        assert main([
            "store", "pull", str(dest.root), "--remote", str(remote),
            "--quiet",
        ]) == 0
        assert "pulled=2" in capsys.readouterr().out
        assert dest.content_hash() == source.content_hash()
        assert dest.verify().ok

    def test_pull_failure_names_missing_keys(self, capsys, tmp_path):
        source = self._store(tmp_path)
        remote = tmp_path / "remote"
        assert main([
            "store", "push", str(source.root), "--remote", str(remote),
            "--quiet",
        ]) == 0
        capsys.readouterr()
        # Corrupt one remote document after the push: the pull must
        # fail that key (exit 1), land the healthy one, and say why.
        (remote / "k1" / "a.json").write_text('{"values": [9.0]}')
        dest = tmp_path / "dest"
        dest.mkdir()
        code = main([
            "store", "pull", str(dest), "--remote", str(remote),
            "--retries", "1", "--quiet",
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert "failed=1" in captured.out
        assert "missing k1" in captured.err
        from repro.runtime import ArtifactStore

        landed = ArtifactStore(dest)
        assert landed.keys() == ["k2"]
        assert landed.verify().ok

    def test_sync_missing_store_is_clean_error(self, capsys, tmp_path):
        code = main([
            "store", "sync", str(tmp_path / "never"), "--remote",
            str(tmp_path / "r"),
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_verify_flags_pre_digest_entries_and_repair_drops_them(
        self, capsys, tmp_path
    ):
        import json as json_module

        store = self._store(tmp_path)
        manifest_path = store.root / "manifest.json"
        manifest = json_module.loads(manifest_path.read_text())
        for entry in manifest.values():
            entry.pop("sha256", None)
            entry.pop("documents", None)
        manifest_path.write_text(json_module.dumps(manifest))
        assert main(["store", "verify", str(store.root)]) == 1
        out = capsys.readouterr().out
        assert "CORRUPT" in out and "2 problem(s)" in out
        assert "k1/*: bad-entry" in out and "predates" in out
        assert main(["store", "verify", str(store.root), "--repair"]) == 0
        assert "repaired: dropped 2" in capsys.readouterr().out
        assert main(["store", "verify", str(store.root)]) == 0

    def test_verify_repair_drops_corruption_and_exits_clean(
        self, capsys, tmp_path
    ):
        store = self._store(tmp_path)
        (store.root / "k1" / "a.json").write_text('{"values": [9.0]}')
        assert main(["store", "verify", str(store.root)]) == 1
        capsys.readouterr()
        assert main(["store", "verify", str(store.root), "--repair"]) == 0
        out = capsys.readouterr().out
        assert "repaired: dropped 1" in out
        assert store.verify().ok and "k1" not in store

    def test_worker_remote_syncs_and_resumes(self, capsys, tmp_path):
        # Full cross-machine loop at the CLI surface: shard, run the
        # worker with --remote, then a second worker on a fresh box
        # (fresh store) must serve everything from the pulled remote.
        base = ["scenario", "--fast", "--seed", "7",
                "--providers", "amazon", "--arrival-rates", "2.0"]
        shard_dir = tmp_path / "shards"
        assert main(base + ["--shards", "1", "--shard-dir", str(shard_dir)]) == 0
        capsys.readouterr()
        remote = tmp_path / "remote-store"
        manifest = str(shard_dir / "shard-0.json")
        assert main([
            "worker", manifest, "--store", str(shard_dir / "shard-0-store"),
            "--remote", str(remote), "--quiet",
        ]) == 0
        out = capsys.readouterr().out
        assert "worker done" in out and "sync push" in out
        fresh = tmp_path / "other-machine-store"
        assert main([
            "worker", manifest, "--store", str(fresh),
            "--remote", str(remote), "--quiet",
        ]) == 0
        out = capsys.readouterr().out
        assert "computed=0" in out  # every cell pulled, none recomputed
        from repro.runtime import ArtifactStore

        assert (
            ArtifactStore(fresh).content_hash()
            == ArtifactStore(shard_dir / "shard-0-store").content_hash()
        )


class TestServing:
    SERVE = ["serve", "--fast", "--provider", "fixed", "--rate", "10",
             "--duration", "10", "--seed", "3"]

    def test_serve_registered_with_defaults(self):
        args = build_parser().parse_args(["serve", "--fast"])
        assert args.provider == "hpccloud"
        assert args.arrival == "poisson"
        assert args.instance is None  # provider default applies later

    def test_scenario_workload_alias(self):
        args = build_parser().parse_args(
            ["scenario", "--workload", "serving", "--rates", "40,90"]
        )
        assert args.workloads == "serving"
        assert args.rates == "40,90"

    def test_serve_prints_verdict_table(self, capsys):
        assert main(self.SERVE) == 0
        out = capsys.readouterr().out
        assert "== serve: fixed/fixed-9gbps" in out
        assert "cell: srv-" in out
        assert "latency:" in out
        assert "slo verdicts:" in out
        assert "slo: PASS" in out or "slo: FAIL" in out

    def test_serve_is_deterministic(self, capsys):
        assert main(self.SERVE) == 0
        first = capsys.readouterr().out
        assert main(self.SERVE) == 0
        assert capsys.readouterr().out == first

    def test_serve_prom_output_parses(self, capsys):
        from repro.obs import parse_prometheus_text

        assert main(self.SERVE + ["--prom"]) == 0
        samples = parse_prometheus_text(capsys.readouterr().out)
        assert ("repro_slo_pass", ()) in samples
        assert (
            "repro_slo_target_seconds", (("quantile", "p99"),)
        ) in samples

    def test_serve_unknown_provider_needs_instance(self, capsys):
        assert main(["serve", "--fast", "--provider", "clowncloud"]) == 2
        assert "error" in capsys.readouterr().err

    def test_serving_sweep_caches(self, capsys, tmp_path):
        argv = ["scenario", "--workload", "serving", "--fast", "--seed", "3",
                "--providers", "fixed", "--arrivals", "poisson",
                "--rates", "10", "--store", str(tmp_path / "cells")]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "serving sweep" in first
        assert "computed=1 cached=0" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "computed=0 cached=1" in second
        assert second.replace(
            "computed=0 cached=1", "computed=1 cached=0"
        ) == first

    def test_serving_cannot_mix_with_dag_workloads(self, capsys):
        code = main(["scenario", "--workload", "serving,terasort", "--fast"])
        assert code == 2
        assert "its own sweep" in capsys.readouterr().err
