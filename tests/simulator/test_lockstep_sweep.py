"""Differential sweep: a core run alone equals the same core in a batch.

:func:`repro.simulator.core.run_cores` branches on the core count where
it takes horizons and advances the fabric: one core asks its own
fabric, two or more share a concatenated shaper super-fleet.  This
sweep draws batches of 2-6 cores over one fleet class — token-bucket,
resampling, per-core and constant-rate — mixing DAG streams under
every scheduler with serving states, places a target core at a random
position, and demands its batched result equal its lone run bit for
bit: runtimes, step counts and every telemetry array.

Slow-marked: run with ``pytest -m slow tests/simulator/test_lockstep_sweep.py``.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netmodel import ConstantRateModel
from repro.netmodel.fleet import (
    ConstantRateFleet,
    PerCoreQosFleet,
    ResamplingFleet,
    TokenBucketFleet,
)
from repro.serving.arrivals import poisson_process
from repro.serving.state import ServingState
from repro.serving.topology import ServiceTopology
from repro.simulator import Cluster, NodeSpec, SparkEngine
from repro.simulator.core import run_cores
from repro.simulator.engine import SCHEDULERS
from tests.simulator.test_multistream import (
    _bucket_model,
    _make_cell,
    _percore_model,
    _resampling_model,
)

pytestmark = pytest.mark.slow

#: Fleet class -> link model of node ``j`` in the cell keyed ``m``.
FLEETS = {
    TokenBucketFleet: _bucket_model,
    ResamplingFleet: _resampling_model,
    PerCoreQosFleet: _percore_model,
    ConstantRateFleet: lambda m, j: ConstantRateModel(5.0 + m % 4 + j),
}


def build_core(fleet_cls, spec):
    """A fresh unrun core for ``spec``; equal specs build equal cores."""
    kind, seed, n_nodes, option = spec
    models = FLEETS[fleet_cls]
    factory = lambda node: models(seed % 97, node)  # noqa: E731
    if kind == "stream":
        engine, stream = _make_cell(
            seed, option, n_nodes=n_nodes, n_jobs=2, model_factory=factory
        )
        state = engine.stream_state(stream, scheduler=option)
    else:
        cluster = Cluster(
            n_nodes=n_nodes, node_spec=NodeSpec(), link_model_factory=factory
        )
        engine = SparkEngine(cluster, rng=np.random.default_rng(seed))
        state = ServingState(
            engine,
            ServiceTopology.three_tier(),
            cluster.build_fabric(),
            duration_s=8.0,
            arrivals=poisson_process(engine.rng, 6.0, 8.0),
            users=option,
        )
    assert type(state.fabric.fleet) is fleet_cls
    return state


def bits(value):
    """A projection of a result that compares equal only bit for bit."""
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [bits(item) for item in value]
    if isinstance(value, dict):
        return {key: bits(item) for key, item in value.items()}
    if dataclasses.is_dataclass(value):
        return {
            field.name: bits(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    return value


core_specs = st.one_of(
    st.tuples(
        st.just("stream"),
        st.integers(0, 10_000),
        st.integers(2, 5),
        st.sampled_from(SCHEDULERS),
    ),
    st.tuples(
        st.just("serving"),
        st.integers(0, 10_000),
        st.integers(2, 5),
        st.integers(0, 2),
    ),
)


@settings(max_examples=150, deadline=None)
@given(
    fleet_cls=st.sampled_from(sorted(FLEETS, key=lambda cls: cls.__name__)),
    specs=st.lists(core_specs, min_size=2, max_size=6),
    data=st.data(),
)
def test_batched_core_equals_its_lone_run(fleet_cls, specs, data):
    position = data.draw(st.integers(0, len(specs) - 1), label="position")
    alone = build_core(fleet_cls, specs[position]).execute()
    batch = run_cores([build_core(fleet_cls, spec) for spec in specs])
    assert bits(batch[position]) == bits(alone)
    assert batch[position].n_steps == alone.n_steps > 0
