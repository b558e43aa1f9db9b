"""Tests for the campaign pieces the DAG and serving sweeps share.

Both sweep layers build their chains, matrix seeds, cells and
campaigns from :mod:`repro.runtime.campaign`, run batched cells through
:func:`repro.simulator.multistream.run_cells` (their cell functions'
batched forms), and restore
warm fabrics through :func:`repro.netmodel.state.chained_models`; each
piece is checked here for both cell kinds where it serves both.
"""

import hashlib
import json
from dataclasses import asdict, dataclass, replace
from operator import attrgetter

import pytest

from repro.netmodel.state import chained_models, model_state_dict
from repro.runtime.campaign import (
    CampaignOutcome,
    CampaignRunner,
    axis_seed,
    chain_configs,
    config_cells,
    config_fields,
)
from repro.runtime.cell import Cell, cell_key, content_id, resolve_ref
from repro.scenarios import (
    ScenarioCampaign,
    ScenarioConfig,
    chain_scenarios,
    scenario_cells,
    scenario_matrix,
)
from repro.serving import (
    ServingCampaign,
    ServingConfig,
    chain_serving,
    run_serving,
    serving_matrix,
)
from repro.serving.scenario import prepare_serving, run_servings_batched, serving_cells
from repro.simulator import multistream

#: Per cell kind: a chain head, its chain builder, its id, its cell
#: builder and its campaign class.
KINDS = {
    "dag": (
        ScenarioConfig(seed=5, n_nodes=4, n_jobs=3, data_scale=0.05),
        chain_scenarios,
        attrgetter("scenario_id"),
        scenario_cells,
        ScenarioCampaign,
    ),
    "serving": (
        ServingConfig(
            provider_name="hpccloud",
            instance_name="hpccloud-8core",
            n_nodes=4,
            rate_rps=10.0,
            duration_s=10.0,
            slo_window_s=5.0,
            seed=11,
        ),
        chain_serving,
        attrgetter("serving_id"),
        serving_cells,
        ServingCampaign,
    ),
}


@pytest.fixture(params=sorted(KINDS))
def kind(request):
    return KINDS[request.param]


class TestContentId:
    def test_is_sha256_of_sorted_json(self):
        body = {"b": [1, 2.5], "a": "x"}
        digest = hashlib.sha256(
            json.dumps(body, sort_keys=True).encode()
        ).hexdigest()
        assert content_id("scn", body) == f"scn-{digest[:16]}"
        # Field order never moves a key.
        assert content_id("scn", {"a": "x", "b": [1, 2.5]}) == content_id("scn", body)
        assert content_id("srv", body) != content_id("scn", body)

    def test_cell_key_covers_the_predecessor_only_when_chained(self):
        assert cell_key("m:f", {"x": 1}) == content_id("cell", ["m:f", {"x": 1}])
        chained = cell_key("m:f", {"x": 1}, after="cell-0")
        assert chained == content_id("cell", ["m:f", {"x": 1}, "cell-0"])
        assert chained != cell_key("m:f", {"x": 1})


class TestAxisSeed:
    def test_depends_on_axis_values_and_base_seed(self):
        seed = axis_seed(0, "amazon", "c5.xlarge", 2.0)
        assert seed == axis_seed(0, "amazon", "c5.xlarge", 2.0)
        assert seed != axis_seed(0, "amazon", "c5.xlarge", 3.0)
        assert seed != axis_seed(0, "c5.xlarge", "amazon", 2.0)
        assert axis_seed(1, "amazon", "c5.xlarge", 2.0) != seed
        assert 0 <= seed < 2**32

    def test_scenario_matrix_seeds_every_cell_by_its_axes(self):
        configs = scenario_matrix(seed=3)
        assert len({config.seed for config in configs}) == len(configs)
        for config in configs:
            assert config.seed == axis_seed(
                3,
                config.provider_name,
                config.instance_name,
                float(config.arrival_rate_per_min),
                config.scheduler,
                config.workload,
            )

    def test_serving_matrix_seeds_every_cell_by_its_axes(self):
        configs = serving_matrix(seed=3)
        assert len({config.seed for config in configs}) == len(configs)
        for config in configs:
            assert config.seed == axis_seed(
                3,
                config.provider_name,
                config.instance_name,
                config.arrival,
                float(config.rate_rps),
                config.topology,
            )


class TestChainConfigs:
    def test_links_name_their_predecessor(self, kind):
        head, chain, key, _, _ = kind
        links = chain(head, 3)
        assert links[0] == head
        for i in range(1, 3):
            assert links[i].predecessor == key(links[i - 1])
            assert links[i].seed == head.seed + i
            assert replace(links[i], seed=head.seed, predecessor=None) == head
        assert len({key(link) for link in links}) == 3

    def test_extending_a_chain_keeps_its_prefix_ids(self, kind):
        head, chain, key, _, _ = kind
        short = [key(link) for link in chain(head, 2)]
        long = [key(link) for link in chain(head, 4)]
        assert long[:2] == short

    def test_length_must_be_positive(self, kind):
        head, chain, key, _, _ = kind
        assert chain(head, 1) == [head]
        with pytest.raises(ValueError, match="at least one cell"):
            chain_configs(head, 0, key)


class TestConfigCells:
    def test_cells_mirror_their_configs(self, kind):
        head, chain, key, make_cells, _ = kind
        links = chain(head, 2)
        cells = make_cells(links)
        assert [cell.key for cell in cells] == [key(link) for link in links]
        assert [cell.after for cell in cells] == [None, key(links[0])]
        for cell, link in zip(cells, links):
            assert type(head)(**cell.payload) == link


#: Per cell kind: the id prefix and the default fields its id drops.
ID_DROPS = {
    ScenarioConfig: ("scn", {"deadline_slack": 0.0, "predecessor": None}),
    ServingConfig: ("srv", {"predecessor": None}),
}


def _flat_config_population():
    """Every config shape that reaches ``config_cells``."""
    configs = []
    for head, chain, *_ in KINDS.values():
        configs += [type(head)(), head, *chain(head, 3)]
    configs += scenario_matrix(seed=0, chain_length=2)
    configs += scenario_matrix(seed=4, deadline_slack=1.5)
    configs += serving_matrix(seed=0, chain_length=2)
    return configs


class TestConfigFields:
    def test_equals_asdict_for_every_config_shape(self):
        # The flat dict is only a faster asdict while every field is a
        # JSON scalar; a nested field added later fails here first.
        configs = _flat_config_population()
        assert {type(c) for c in configs} == set(ID_DROPS)
        assert any(c.predecessor is not None for c in configs)
        assert any(c.predecessor is None for c in configs)
        for config in configs:
            assert config_fields(config) == asdict(config)

    def test_ids_and_payloads_match_the_asdict_reference(self):
        for config in _flat_config_population():
            prefix, drops = ID_DROPS[type(config)]
            reference = asdict(config)
            for name, default in drops.items():
                if reference[name] == default:
                    reference.pop(name)
            key = config.scenario_id if prefix == "scn" else config.serving_id
            assert key == content_id(prefix, reference)
            (cell,) = config_cells([config], "m:f", lambda c: key)
            assert cell.payload == asdict(config)

    def test_a_nested_field_fails_the_hash_loudly(self):
        @dataclass(frozen=True)
        class Nested:
            inner: _Toy

        flat = config_fields(Nested(_Toy(1)))
        assert flat["inner"] == _Toy(1)
        with pytest.raises(TypeError):
            content_id("x", flat)


@dataclass(frozen=True)
class _Toy:
    value: int
    predecessor: str | None = None


class TestBatchedForms:
    def test_rebuilds_configs_and_matches_the_cell_function(self, kind):
        head, chain, _, make_cells, _ = kind
        configs = [replace(head, seed=head.seed + 1), chain(head, 2)[1]]
        cells = make_cells(configs)
        fn = resolve_ref(cells[0].fn)
        upstream = fn(make_cells([head])[0].payload)
        batched = fn.batched(
            [cell.payload for cell in cells], [None, upstream]
        )
        serial = [fn(cells[0].payload), fn(cells[1].payload, upstream)]
        assert [r.config for r in batched] == configs
        assert [r.aggregate_row() for r in batched] == [
            r.aggregate_row() for r in serial
        ]


class _Row:
    def __init__(self, name):
        self.name = name

    def aggregate_row(self):
        return {"name": self.name}


class TestCampaignOutcome:
    def test_aggregate_rows_follow_keys_or_sorted_order(self):
        outcome = CampaignOutcome(
            results={"b": _Row("b"), "a": _Row("a"), "c": _Row("c")},
            cached_ids=("a",),
            computed_ids=("b", "c"),
        )
        assert [row["name"] for row in outcome.aggregate_rows()] == ["a", "b", "c"]
        assert [row["name"] for row in outcome.aggregate_rows(["c", "a"])] == [
            "c",
            "a",
        ]

    def test_cache_hit_fraction(self):
        assert CampaignOutcome({}, (), ()).cache_hit_fraction == 0.0
        outcome = CampaignOutcome({}, ("a",), ("b", "c", "d"))
        assert outcome.cache_hit_fraction == 0.25


class TestCampaignRunnerValidation:
    def test_rejects_empty_duplicate_and_codecless_matrices(self, tmp_path):
        from repro.runtime.store import ArtifactStore

        with pytest.raises(ValueError, match="at least one cell"):
            CampaignRunner([])
        cell = Cell(fn="m:f", payload={"x": 1})
        with pytest.raises(ValueError, match="duplicate cell keys"):
            CampaignRunner([cell, cell])
        with pytest.raises(ValueError, match="codec"):
            CampaignRunner([cell], store=ArtifactStore(tmp_path / "store"))


class TestCampaign:
    def test_workers_must_be_positive(self, kind):
        head, _, _, _, campaign_cls = kind
        with pytest.raises(ValueError, match="workers"):
            campaign_cls([head], workers=0)

    def test_shard_manifests_cover_the_cells_once(self, kind, tmp_path):
        head, chain, key, _, campaign_cls = kind
        configs = chain(head, 2) + chain(replace(head, seed=head.seed + 100), 2)
        campaign = campaign_cls(configs)
        assert [cell.key for cell in campaign.cells] == [key(c) for c in configs]
        paths = campaign.shard_manifests(tmp_path / "shards", 2)
        keys = []
        for path in paths:
            manifest = json.loads(path.read_text())
            assert manifest["encode"] == campaign_cls.codec.encode_ref
            assert manifest["decode"] == campaign_cls.codec.decode_ref
            shard_keys = [entry["key"] for entry in manifest["cells"]]
            # A warm-fabric chain lands whole on one shard.
            assert len(shard_keys) in (0, 2, 4)
            keys.extend(shard_keys)
        assert sorted(keys) == sorted(key(c) for c in configs)


class TestRunCells:
    def test_one_run_cores_call_per_fleet_class_in_input_order(self, monkeypatch):
        head = KINDS["serving"][0]
        fixed = replace(head, provider_name="fixed", instance_name="fixed-9gbps")
        configs = [head, fixed, replace(head, seed=12)]
        fleets = {type(prepare_serving(c).fabric.fleet) for c in configs}
        assert len(fleets) == 2

        calls = []
        run_cores = multistream.run_cores

        def counting(states):
            calls.append(len(states))
            return run_cores(states)

        monkeypatch.setattr(multistream, "run_cores", counting)
        batched = run_servings_batched(configs)
        assert sorted(calls) == [1, 2]
        serial = [run_serving(config) for config in configs]
        assert [r.aggregate_row() for r in batched] == [
            r.aggregate_row() for r in serial
        ]

    def test_one_upstream_per_config(self):
        head = KINDS["serving"][0]
        with pytest.raises(ValueError, match="one upstream"):
            run_servings_batched([head, head], upstreams=[None])


class TestChainedModels:
    def test_restores_the_predecessor_fabric(self):
        head = KINDS["serving"][0]
        tail = chain_serving(head, 2)[1]
        upstream = run_serving(head)
        models = chained_models(tail, upstream, tail.serving_id)
        assert len(models) == tail.n_nodes
        assert [model_state_dict(model) for model in models] == upstream.fabric_state
