"""The refactor seam: workloads over the extracted event core.

The stream engine's loop was extracted into
:class:`repro.simulator.core.EventCore`; these tests pin the seam
itself — the hook protocol both workloads implement, the timer heap's
ordering contract, and the begin / prologue / epilogue / finish
decomposition: driving a state through the public helpers step by step
must reproduce ``execute()`` bit for bit, because that is exactly what
``run_cores`` does for every core.  (The golden-trace and scheduler
suites pin the *values* against pre-refactor fixtures, as does the
bench ``--check`` gate.)
"""

import math
import re

import numpy as np
import pytest

from repro.netmodel import ConstantRateModel, LinkModel, TokenBucketModel
from repro.netmodel.fleet import ScalarFleetAdapter
from repro.scenarios.generate import job_stream, poisson_arrivals
from repro.serving.arrivals import poisson_process
from repro.serving.state import ServingState
from repro.serving.topology import ServiceTopology
from repro.simulator import Cluster, NodeSpec, SparkEngine
from repro.simulator.core import EventCore, WorkloadSource
from repro.simulator.engine import _StreamState
from repro.simulator.multistream import run_cores
from tests.simulator.test_golden_trace import _BUCKET, _snapshot


def stream_state(
    seed=20260727,
    n_jobs=4,
    scheduler="fair",
    link_model_factory=lambda node: TokenBucketModel(_BUCKET),
):
    rng = np.random.default_rng(seed)
    cluster = Cluster(
        n_nodes=5,
        node_spec=NodeSpec(slots=4),
        link_model_factory=link_model_factory,
    )
    times = poisson_arrivals(rng, rate_per_min=3.0, n_jobs=n_jobs)
    stream = job_stream(rng, times, n_nodes=5, slots=4, data_scale=0.15)
    engine = SparkEngine(cluster, rng=rng, sample_interval_s=5.0)
    return _StreamState(
        engine, stream, cluster.build_fabric(), scheduler=scheduler
    )


def serving_state(
    seed=3, link_model_factory=lambda node: ConstantRateModel(10.0)
):
    cluster = Cluster(
        n_nodes=4,
        node_spec=NodeSpec(),
        link_model_factory=link_model_factory,
    )
    engine = SparkEngine(cluster, rng=np.random.default_rng(seed))
    return ServingState(
        engine,
        ServiceTopology.three_tier(),
        cluster.build_fabric(),
        duration_s=15.0,
        arrivals=poisson_process(engine.rng, 8.0, 15.0),
    )


def drive_externally(state):
    """Replay ``EventCore.execute`` through its public seam helpers."""
    state.begin()
    for _ in range(state.max_steps):
        if state.all_done:
            return state.finish()
        dt = min(state.fabric.horizon(), state.step_prologue())
        if math.isinf(dt):
            raise state.deadlock_error()
        state.step_epilogue(max(dt, 0.0), state.fabric.advance(max(dt, 0.0)))
    raise RuntimeError("step budget exhausted")


class TestProtocol:
    @pytest.mark.parametrize("make", [stream_state, serving_state])
    def test_workloads_are_event_cores(self, make):
        state = make()
        assert isinstance(state, EventCore)
        assert isinstance(state, WorkloadSource)

    def test_base_core_hooks_are_abstract_or_inert(self):
        cluster = Cluster(
            n_nodes=2,
            node_spec=NodeSpec(),
            link_model_factory=lambda node: ConstantRateModel(10.0),
        )
        engine = SparkEngine(cluster, rng=np.random.default_rng(0))
        core = EventCore(engine, cluster.build_fabric())
        # Arrival hooks default to "no external arrivals".
        assert core._next_arrival_time() == math.inf
        core._admit_arrivals()
        core._try_launch()
        for call in (
            lambda: core.all_done,
            lambda: core._on_timer(None),
            lambda: core._on_flow_complete(None),
            lambda: core._build_result(),
        ):
            with pytest.raises(NotImplementedError):
                call()


class _Tick:
    cancelled = False

    def __init__(self, tag):
        self.tag = tag


class TimerOnlyCore(EventCore):
    """A minimal workload: pre-scheduled timers, nothing else."""

    def __init__(self, engine, fabric, timers):
        super().__init__(engine, fabric)
        self.fired = []
        for due, tag in timers:
            self.schedule_timer(due, _Tick(tag))

    @property
    def all_done(self):
        return not self.timer_heap

    def _on_timer(self, payload):
        self.fired.append((self.now, payload.tag))

    def _on_flow_complete(self, flow):
        pass

    def _build_result(self):
        return list(self.fired)


def timer_core(timers):
    cluster = Cluster(
        n_nodes=2,
        node_spec=NodeSpec(),
        link_model_factory=lambda node: ConstantRateModel(10.0),
    )
    engine = SparkEngine(cluster, rng=np.random.default_rng(0))
    return TimerOnlyCore(engine, cluster.build_fabric(), timers)


class TestTimerHeap:
    def test_timers_fire_in_time_order(self):
        core = timer_core([(3.0, "c"), (1.0, "a"), (2.0, "b")])
        assert core.execute() == [(1.0, "a"), (2.0, "b"), (3.0, "c")]

    def test_equal_due_times_fire_in_schedule_order(self):
        # The monotone sequence number breaks ties stably — and one
        # event step drains the whole equal-time batch.
        core = timer_core([(1.0, i) for i in range(5)])
        result = core.execute()
        assert result == [(1.0, i) for i in range(5)]
        assert core._n_steps == 1

    def test_cancelled_timers_are_discarded(self):
        core = timer_core([(1.0, "live"), (1.0, "dead"), (2.0, "live2")])
        core.timer_heap[1][2].cancelled = True
        fired = [tag for _, tag in core.execute()]
        assert fired == ["live", "live2"]

    def test_purge_keeps_cancelled_heads_from_bounding_steps(self):
        # With purging on, a cancelled timer at the head must not
        # shorten the step: the first real event lands at t=5.
        core = timer_core([(1.0, "dead"), (5.0, "live")])
        core._purge_cancelled = True
        core.timer_heap[0][2].cancelled = True
        assert core.execute() == [(5.0, "live")]
        assert core._n_steps == 1

    def test_deadlock_is_detected(self):
        core = timer_core([])
        # Claim work remains while no event source can make progress.
        TimerOnlyCore.all_done.fget  # (property exists)
        core.fired = None  # sentinel irrelevant; force the loop in:
        type(core).all_done = property(lambda self: False)
        try:
            with pytest.raises(RuntimeError, match="deadlock"):
                core.execute()
        finally:
            del type(core).all_done


class TestSeamEquivalence:
    """External stepping == execute(), for both workloads."""

    @pytest.mark.parametrize("scheduler", ["fifo", "fair", "preempt"])
    def test_stream_state_external_drive_matches_execute(self, scheduler):
        serial = _snapshot(stream_state(scheduler=scheduler).execute())
        stepped = _snapshot(
            drive_externally(stream_state(scheduler=scheduler))
        )
        assert stepped == serial

    def test_serving_state_external_drive_matches_execute(self):
        serial = serving_state().execute()
        stepped = drive_externally(serving_state())
        assert stepped.latency == serial.latency
        assert stepped.windows == serial.windows
        assert stepped.n_steps == serial.n_steps
        assert stepped.sample_times.tolist() == serial.sample_times.tolist()
        assert stepped.egress_rates.tolist() == serial.egress_rates.tolist()

    def test_run_cores_drives_stream_states_bit_identically(self):
        seeds = [401, 402, 403]
        serial = [_snapshot(stream_state(seed=s).execute()) for s in seeds]
        batched = [
            _snapshot(r)
            for r in run_cores([stream_state(seed=s) for s in seeds])
        ]
        assert batched == serial


class TestStepBudget:
    """``execute`` and ``run_cores`` share one step-budget rule.

    A core that finishes on its last budgeted step completes; one still
    running after ``max_steps`` raises ``EventCore.step_budget_error``.
    """

    _MESSAGE = (
        r"step budget exhausted at t=\S+ after 3 steps: \d+ live flows, "
        r"next timer at t=\S+; stream did not converge"
    )

    def test_execute_raises_step_budget_error(self):
        state = stream_state()
        state.max_steps = 3
        with pytest.raises(RuntimeError, match=self._MESSAGE) as info:
            state.execute()
        assert str(info.value) == str(state.step_budget_error())

    def test_run_cores_raises_step_budget_error(self):
        states = [stream_state(seed=s) for s in (401, 402)]
        states[1].max_steps = 3
        with pytest.raises(RuntimeError, match=self._MESSAGE) as info:
            run_cores(states)
        assert str(info.value) == str(states[1].step_budget_error())

    @staticmethod
    def constant_rate_streams(n_cores, budget):
        """``n_cores`` 2-job constant-rate streams; the last one budgeted."""
        states = [
            stream_state(
                seed=seed,
                n_jobs=2,
                link_model_factory=lambda node: ConstantRateModel(10.0),
            )
            for seed in (401, 20260727)[-n_cores:]
        ]
        if budget is not None:
            states[-1].max_steps = budget
        return states

    @staticmethod
    def run(states):
        """``execute`` for one core, ``run_cores`` for more; the last result."""
        if len(states) == 1:
            return states[0].execute()
        return run_cores(states)[-1]

    def steps_needed(self):
        return self.run(self.constant_rate_streams(1, None)).n_steps

    @pytest.mark.parametrize("n_cores", [1, 2])
    def test_budget_equal_to_steps_needed_completes(self, n_cores):
        needed = self.steps_needed()
        result = self.run(self.constant_rate_streams(n_cores, needed))
        assert result.n_steps == needed

    @pytest.mark.parametrize("n_cores", [1, 2])
    def test_one_step_short_raises_step_budget_error(self, n_cores):
        needed = self.steps_needed()
        states = self.constant_rate_streams(n_cores, needed - 1)
        with pytest.raises(RuntimeError, match="step budget exhausted") as info:
            self.run(states)
        assert str(info.value) == str(states[-1].step_budget_error())
        assert states[-1]._n_steps == needed - 1


class ZeroLimitModel(LinkModel):
    """A link that never sends: every flow on it stalls at rate 0."""

    def limit(self):
        return 0.0

    def horizon(self, send_rate_gbps):
        return math.inf

    def advance(self, dt, send_rate_gbps):
        pass

    def reset(self):
        pass


def zero_limit(node):
    return ZeroLimitModel()


class TestDeadlock:
    """``execute`` and ``run_cores`` raise a ``deadlock_error`` with state."""

    _MESSAGE = (
        r"deadlock at t=\S+ after \d+ steps: (\d+) live flows, next timer "
        r"at t=inf, (\d+) flows at zero rate; no flow, timer or arrival "
        r"can make progress; "
    )

    def assert_stalled(self, message, state, queued):
        match = re.match(self._MESSAGE + queued, message)
        assert match, message
        live, stalled = map(int, match.groups())
        assert live == stalled == state.fabric._n > 0
        assert message == str(state.deadlock_error())

    def test_zero_limit_links_use_the_scalar_adapter(self):
        state = stream_state(link_model_factory=zero_limit)
        assert type(state.fabric.fleet) is ScalarFleetAdapter

    def test_execute_names_the_stalled_stream(self):
        state = stream_state(link_model_factory=zero_limit)
        with pytest.raises(RuntimeError) as info:
            state.execute()
        self.assert_stalled(str(info.value), state, r"jobs done 0/4$")

    def test_run_cores_names_the_stalled_stream(self):
        states = [
            stream_state(seed=s, link_model_factory=zero_limit)
            for s in (401, 402)
        ]
        with pytest.raises(RuntimeError) as info:
            run_cores(states)
        self.assert_stalled(str(info.value), states[0], r"jobs done 0/4$")

    def test_execute_names_the_stalled_serving_state(self):
        state = serving_state(link_model_factory=zero_limit)
        with pytest.raises(RuntimeError) as info:
            state.execute()
        self.assert_stalled(
            str(info.value),
            state,
            r"[1-9]\d* request\(s\) in flight, 0 user\(s\) live$",
        )


class NaNHorizonModel(ZeroLimitModel):
    """A sending link whose horizon is NaN: every step length is NaN."""

    def limit(self):
        return 10.0

    def horizon(self, send_rate_gbps):
        return math.nan


def nan_horizon(node):
    return NaNHorizonModel()


class TestNaNStep:
    """Both drivers raise ``nan_step_error`` instead of spinning on NaN.

    The small step budget turns a driver that clamps NaN to a zero step
    into a step-budget failure rather than a hang.
    """

    _MESSAGE = (
        r"NaN step at t=\S+ after \d+ steps: \d+ live flows, next timer at "
        r"t=\S+: fabric horizon nan, events_in (\S+)$"
    )

    def assert_nan_step(self, message, state):
        match = re.match(self._MESSAGE, message)
        assert match, message
        events_in = float(match.group(1))
        assert message == str(state.nan_step_error(math.nan, events_in))

    def test_execute_names_the_nan_step(self):
        state = stream_state(link_model_factory=nan_horizon)
        assert type(state.fabric.fleet) is ScalarFleetAdapter
        state.max_steps = 50
        with pytest.raises(RuntimeError) as info:
            state.execute()
        self.assert_nan_step(str(info.value), state)

    def test_run_cores_names_the_nan_step(self):
        states = [
            stream_state(seed=s, link_model_factory=nan_horizon)
            for s in (401, 402)
        ]
        for state in states:
            state.max_steps = 50
        with pytest.raises(RuntimeError) as info:
            run_cores(states)
        self.assert_nan_step(str(info.value), states[0])
