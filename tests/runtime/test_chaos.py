"""Chaos harness: injected faults, and convergence despite them.

The campaign fabric's central robustness claim is *convergence*: a
campaign interrupted by worker deaths anywhere — including inside the
store's put window — must, after supervision and resume, merge to a
store byte-identical to an unperturbed serial run.  These tests drive
real ``repro worker`` subprocesses through :func:`run_campaign` with
:mod:`repro.runtime.chaos` armed and assert exactly that.
"""

import json
import os
import subprocess
import sys

import pytest

from demo_helpers import serial_reference_hash, write_demo_shards

from repro.runtime import ArtifactStore, run_campaign
from repro.runtime.chaos import (
    ChaosInjector,
    ChaosPoisonError,
    active_injector,
    deactivate,
    demo_matrix,
)


def _campaign(shard_dir, store_root, **kwargs):
    kwargs.setdefault("lease_ttl_s", 10.0)
    kwargs.setdefault("poll_s", 0.05)
    kwargs.setdefault("backoff_base_s", 0.05)
    kwargs.setdefault("backoff_cap_s", 0.2)
    kwargs.setdefault("max_wall_s", 120.0)
    kwargs.setdefault("echo", None)
    return run_campaign(shard_dir, store_root=store_root, **kwargs)


class TestInjectorConfig:
    def test_from_file_parses_all_fault_fields(self, tmp_path):
        path = tmp_path / "chaos.json"
        path.write_text(json.dumps({
            "schema": 1,
            "state_dir": str(tmp_path / "state"),
            "only_worker": "w0-a1",
            "kill_at_cell": {"index": 2, "times": 1},
            "poison_keys": ["cell-abc"],
            "flaky": {"cell-def": 2},
            "slow_keys": {"cell-ghi": 0.5},
            "slow_cell_s": 0.1,
        }))
        injector = ChaosInjector.from_file(path)
        assert injector.only_worker == "w0-a1"
        assert injector.kill_at_cell == {"index": 2, "times": 1}
        assert injector.poison_keys == frozenset({"cell-abc"})
        assert injector.flaky == {"cell-def": 2}
        assert injector.slow_keys == {"cell-ghi": 0.5}
        assert injector.slow_cell_s == 0.1

    def test_kill_faults_require_state_dir(self, tmp_path):
        path = tmp_path / "chaos.json"
        path.write_text(json.dumps({
            "schema": 1, "kill_at_cell": {"index": 0},
        }))
        with pytest.raises(ValueError, match="state_dir"):
            ChaosInjector.from_file(path)

    def test_unknown_schema_refused(self, tmp_path):
        path = tmp_path / "chaos.json"
        path.write_text(json.dumps({"schema": 99}))
        with pytest.raises(ValueError, match="schema"):
            ChaosInjector.from_file(path)

    def test_claim_fires_exactly_n_times(self, tmp_path):
        injector = ChaosInjector(
            config_path="x", state_dir=tmp_path / "state"
        )
        fired = [injector._claim("tag", 2) for _ in range(5)]
        assert fired == [True, True, False, False, False]

    def test_poison_raises_every_time(self, tmp_path):
        injector = ChaosInjector(
            config_path="x", poison_keys=frozenset({"cell-bad"})
        )
        for _ in range(3):
            with pytest.raises(ChaosPoisonError):
                injector.before_cell("cell-bad")
        injector.before_cell("cell-fine")

    def test_env_activation_roundtrip(self, tmp_path, chaos_env):
        assert active_injector() is None
        path = tmp_path / "chaos.json"
        path.write_text(json.dumps({"schema": 1}))
        chaos_env(path)
        armed = active_injector()
        assert armed is not None and armed.config_path == str(path)
        deactivate()


class TestKillConvergence:
    @pytest.mark.parametrize("kill_index", [0, 1])
    def test_kill_at_cell_converges_to_serial(
        self, tmp_path, demo_cells, chaos_env, kill_index
    ):
        """SIGKILL a worker at cell N; the campaign must still converge.

        Each shard holds one 2-link chain, so index 0 kills before any
        progress and index 1 kills mid-chain — the resume must then
        rebuild the stored predecessor's result through the decode ref.
        """
        reference = serial_reference_hash(tmp_path, demo_cells)
        shard_dir = tmp_path / "shards"
        write_demo_shards(shard_dir, demo_cells, 2)
        config = tmp_path / "chaos.json"
        config.write_text(json.dumps({
            "schema": 1,
            "state_dir": str(tmp_path / "chaos-state"),
            "kill_at_cell": {"index": kill_index, "times": 1},
        }))
        chaos_env(config)
        summary = _campaign(shard_dir, tmp_path / "merged")
        assert summary["ok"]
        assert summary["deaths"] >= 1
        assert summary["merged"]["content_hash"] == reference

    def test_kill_mid_put_leaves_no_corruption_and_resumes(
        self, tmp_path, demo_cells, chaos_env
    ):
        """SIGKILL between document writes and the manifest entry.

        The write-ordering contract says the store must afterwards hold
        either nothing for the key (orphan files at worst) — never a
        manifested artifact that fails verification — and a plain
        re-run must converge.
        """
        reference = serial_reference_hash(tmp_path, demo_cells)
        shard_dir = tmp_path / "shards"
        (manifest,) = write_demo_shards(shard_dir, demo_cells, 1)
        victim = json.loads(manifest.read_text())["cells"][0]["key"]
        config = tmp_path / "chaos.json"
        config.write_text(json.dumps({
            "schema": 1,
            "state_dir": str(tmp_path / "chaos-state"),
            "kill_in_put": {"key": victim, "times": 1},
        }))
        store_root = tmp_path / "store"
        env = dict(os.environ)
        env["REPRO_CHAOS"] = str(config)
        cmd = [sys.executable, "-m", "repro", "worker", str(manifest),
               "--store", str(store_root)]
        first = subprocess.run(cmd, env=env, capture_output=True, text=True)
        assert first.returncode == -9
        report = ArtifactStore(store_root).verify()
        assert report.ok  # orphans allowed, corruption not
        assert victim not in ArtifactStore(store_root).keys()

        second = subprocess.run(cmd, env=env, capture_output=True, text=True)
        assert second.returncode == 0, second.stderr
        assert ArtifactStore(store_root).content_hash() == reference


class TestKillMidBatch:
    def test_the_killed_cell_is_blamed_not_the_batch_head(
        self, tmp_path, chaos_env
    ):
        """SIGKILL at the third cell of a four-cell lockstep batch.

        The first death strikes with all four cells in flight, so it
        charges none of them; the relaunch runs one cell at a time and
        dies at the same cell, which alone is charged and, with no
        retries to spare, quarantined.  The other three cells land.
        """
        from repro.scenarios import ScenarioCampaign, scenario_matrix

        configs = scenario_matrix(
            providers=("amazon",), arrival_rates=(2.0,),
            schedulers=("fifo", "fair"), workloads=("mixed", "tpch"),
            seed=11, n_nodes=4, n_jobs=3, data_scale=0.05,
        )
        shard_dir = tmp_path / "shards"
        (manifest,) = ScenarioCampaign(configs).shard_manifests(shard_dir, 1)
        keys = [entry["key"] for entry in json.loads(
            manifest.read_text())["cells"]]
        assert len(keys) == 4
        config = tmp_path / "chaos.json"
        config.write_text(json.dumps({
            "schema": 1,
            "state_dir": str(tmp_path / "chaos-state"),
            "kill_at_cell": {"index": 2, "times": 2},
        }))
        chaos_env(config)
        lines = []
        summary = _campaign(
            shard_dir, tmp_path / "merged", max_retries=0,
            allow_partial=True, echo=lines.append,
        )
        assert summary["deaths"] == 2
        assert summary["quarantined"] == (keys[2],)
        assert summary["blocked"] == ()
        assert sorted(ArtifactStore(tmp_path / "merged").keys()) == sorted(
            keys[:2] + keys[3:]
        )
        text = "\n".join(lines)
        assert text.count("event=cell_retry_deferred") == 1
        assert f"cell={keys[0]}" in text


class TestFlakyRetry:
    def test_flaky_cell_survives_on_retry(
        self, tmp_path, demo_cells, chaos_env
    ):
        """A cell failing once is retried and the campaign stays whole."""
        reference = serial_reference_hash(tmp_path, demo_cells)
        shard_dir = tmp_path / "shards"
        manifests = write_demo_shards(shard_dir, demo_cells, 2)
        flaky = json.loads(manifests[0].read_text())["cells"][0]["key"]
        config = tmp_path / "chaos.json"
        config.write_text(json.dumps({
            "schema": 1,
            "state_dir": str(tmp_path / "chaos-state"),
            "flaky": {flaky: 1},
        }))
        chaos_env(config)
        summary = _campaign(shard_dir, tmp_path / "merged", max_retries=2)
        assert summary["ok"]
        assert summary["deaths"] == 1
        assert summary["quarantined"] == ()
        assert summary["merged"]["content_hash"] == reference


class TestTransportFaultConfig:
    def test_from_file_parses_transport_section(self, tmp_path):
        path = tmp_path / "chaos.json"
        path.write_text(json.dumps({
            "schema": 1,
            "state_dir": str(tmp_path / "state"),
            "transport": {
                "truncate_upload": {"times": 2},
                "bit_flip": {"times": 1},
                "drop_at_document": {"index": 3, "times": 1},
                "stall": {"delay_s": 0.5, "times": 1},
            },
        }))
        injector = ChaosInjector.from_file(path)
        wrapped = injector.wrap_transport(object())
        assert wrapped is not None
        assert wrapped.truncate_upload == 2
        assert wrapped.bit_flip == 1
        assert wrapped.drop_at_document == 3
        assert wrapped.stall_s == 0.5

    def test_transport_faults_require_state_dir(self, tmp_path):
        path = tmp_path / "chaos.json"
        path.write_text(json.dumps({
            "schema": 1, "transport": {"bit_flip": {"times": 1}},
        }))
        with pytest.raises(ValueError, match="state_dir"):
            ChaosInjector.from_file(path)

    def test_wrap_transport_without_faults_is_none(self, tmp_path):
        injector = ChaosInjector(config_path="x")
        assert injector.wrap_transport(object()) is None

    def test_fault_budget_is_shared_across_wrappers(self, tmp_path):
        # Two wrapped transports (two worker processes, in spirit)
        # share one O_EXCL-claimed budget: the fault fires exactly
        # ``times`` in total, not per wrapper.
        from repro.runtime.remote import LocalDirTransport

        injector = ChaosInjector(
            config_path="x",
            state_dir=tmp_path / "state",
            transport={"bit_flip": {"times": 1}},
        )
        inner = LocalDirTransport(tmp_path / "remote")
        inner.write_bytes("k1/a.json", b'{"x": 1}')
        first = injector.wrap_transport(inner)
        second = injector.wrap_transport(inner)
        reads = [
            t.read_bytes("k1/a.json") for t in (first, second, first, second)
        ]
        assert sum(r != b'{"x": 1}' for r in reads) == 1

    def test_open_transport_is_chaos_armed(self, tmp_path, chaos_env):
        from repro.runtime.remote import (
            FaultyTransport,
            LocalDirTransport,
            open_transport,
        )

        assert isinstance(
            open_transport(tmp_path / "remote"), LocalDirTransport
        )
        config = tmp_path / "chaos.json"
        config.write_text(json.dumps({
            "schema": 1,
            "state_dir": str(tmp_path / "state"),
            "transport": {"bit_flip": {"times": 1}},
        }))
        chaos_env(config)
        deactivate()  # force re-read of the env var
        assert isinstance(
            open_transport(tmp_path / "remote"), FaultyTransport
        )


class TestTransportChaosConvergence:
    def test_transport_faults_converge_to_serial(
        self, tmp_path, demo_cells, chaos_env
    ):
        """Truncate, bit-flip, and drop sync traffic; convergence holds.

        A 2-shard campaign pushes through chaos-wrapped transports to
        per-shard remote stores and the coordinator pulls them back
        before the merge: despite every seeded fault, the merged store
        must hash identically to a serial run, every remote store must
        pass verification, and nothing corrupt may carry a manifest
        entry anywhere.
        """
        reference = serial_reference_hash(tmp_path, demo_cells)
        shard_dir = tmp_path / "shards"
        write_demo_shards(shard_dir, demo_cells, 2)
        config = tmp_path / "chaos.json"
        config.write_text(json.dumps({
            "schema": 1,
            "state_dir": str(tmp_path / "chaos-state"),
            "transport": {
                "truncate_upload": {"times": 1},
                "bit_flip": {"times": 1},
                "drop_at_document": {"index": 2, "times": 1},
            },
        }))
        chaos_env(config)
        summary = _campaign(
            shard_dir, tmp_path / "merged", remote_root=tmp_path / "remote"
        )
        assert summary["ok"]
        assert summary["merged"]["content_hash"] == reference
        assert summary["transport"]["failed"] == {}
        for index in range(2):
            remote = ArtifactStore(
                tmp_path / "remote" / f"shard-{index}-store"
            )
            assert remote.verify().ok
            assert len(remote.keys()) > 0


class TestDemoCampaign:
    def test_demo_matrix_chains_and_determinism(self):
        cells = demo_matrix(n_chains=2, chain_len=3, seed=7)
        assert len(cells) == 6
        again = demo_matrix(n_chains=2, chain_len=3, seed=7)
        assert [c.key for c in cells] == [c.key for c in again]
        chains = [c for c in cells if c.after is not None]
        assert len(chains) == 4  # every non-head link chains

    def test_demo_cell_accumulates_upstream(self):
        from repro.runtime.chaos import demo_cell

        first = demo_cell({"seed": 1})
        second = demo_cell({"seed": 2}, first)
        assert second["acc"] == second["value"] + first["acc"]
