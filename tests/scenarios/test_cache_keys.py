"""Matrix cache keys are pinned: a stored cell must stay findable.

A cached result is only reusable if rebuilding the same matrix finds
it again, so the ids of a chained default matrix are fixed literals
here, for both cell kinds.  They cover the per-cell axis seeds, the
chain seeds, and the predecessor links that enter each successor's id.
"""

from repro.scenarios import scenario_matrix
from repro.serving import serving_matrix

SCENARIO_IDS = [
    "scn-2a351b74f1f61303",
    "scn-e54c7ddd04448c12",
    "scn-43f7fb41e1e12e20",
    "scn-e87c532845a5a839",
    "scn-c55a5f4be86e293d",
    "scn-6cba280ca2ffb2ee",
    "scn-ad4f6a16287818ce",
    "scn-aad78478d3e71034",
    "scn-8bcaaaf71b2ca7e0",
    "scn-88e35223392192c4",
    "scn-583cc90484024e3d",
    "scn-72c81d8e4ad2d919",
    "scn-76bef204a34b6a5e",
    "scn-1048d15f004b5c3c",
    "scn-c0cae2cb22516f7f",
    "scn-cd1237c98ea46fba",
]

SERVING_IDS = [
    "srv-0dd394a0ae812284",
    "srv-8b6ad7c534d68eab",
    "srv-dd6a9efbc2bdac5b",
    "srv-3fc82adb26b38863",
    "srv-f9e112fa75699dd9",
    "srv-efd5297ef3385a46",
    "srv-7417bb259eb0a59b",
    "srv-b8a7b5d54bdd08ad",
]


def test_scenario_matrix_ids_are_pinned():
    configs = scenario_matrix(seed=0, chain_length=2)
    assert [c.scenario_id for c in configs] == SCENARIO_IDS
    for head, tail in zip(configs[::2], configs[1::2]):
        assert tail.predecessor == head.scenario_id


def test_serving_matrix_ids_are_pinned():
    configs = serving_matrix(seed=0, chain_length=2)
    assert [c.serving_id for c in configs] == SERVING_IDS
    for head, tail in zip(configs[::2], configs[1::2]):
        assert tail.predecessor == head.serving_id
