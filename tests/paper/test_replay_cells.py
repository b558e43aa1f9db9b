"""The figure replay sweeps' runtime entry point, ``run_replay_cells``."""

import pytest

from repro.paper._common import run_replay_cells


@pytest.mark.parametrize("workers", [0, -5])
def test_non_positive_workers_are_refused(workers):
    with pytest.raises(ValueError, match="workers"):
        run_replay_cells("repro.runtime.chaos:demo_cell", [{"seed": 1}], workers)


def test_results_come_back_in_payload_order():
    payloads = [{"seed": seed} for seed in (3, 1, 2)]
    results = run_replay_cells("repro.runtime.chaos:demo_cell", payloads)
    assert [result["seed"] for result in results] == [3, 1, 2]
