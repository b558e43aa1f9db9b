"""Link-model state snapshots: persist a shaper, restore it elsewhere.

Warm-fabric chains (:mod:`repro.runtime` cells that consume a
predecessor cell's artifacts) need to hand a *live* fabric from one
campaign cell to the next: the successor tenant must meet exactly the
token budgets, stream ages, and RNG positions the predecessor left
behind — the Figure 19 carry-over at campaign scale.  Cells cross
process and machine boundaries as JSON, so the snapshot must be a
plain JSON document, not a pickle.

:func:`model_state_dict` captures *everything* needed to reconstruct
the model — its construction parameters (the incarnation the provider
drew) and its dynamic state (budgets, clocks, the bit-generator
state) — and :func:`model_from_state` rebuilds an independent model
that continues the original's trajectory bit for bit.  Reconstruction
is exact: the restored model's future draw sequence is the same one
the snapshotted model would have produced.

Supported models are the ones cloud providers hand out
(:class:`~repro.netmodel.token_bucket.TokenBucketModel`,
:class:`~repro.netmodel.percore.PerCoreQosModel`,
:class:`~repro.netmodel.stochastic.UniformQuantileSamplingModel`,
:class:`~repro.netmodel.stochastic.Ar1QuantileModel`) plus
:class:`~repro.netmodel.base.ConstantRateModel`; anything else raises
a :class:`TypeError` naming the model, so an unsupported chain fails
loudly at snapshot time rather than resuming from half a state.
:func:`chained_models` is the successor cell's side: it checks that a
predecessor result can seed the cell, then restores its models.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Mapping

import numpy as np

from repro.netmodel.base import ConstantRateModel, LinkModel
from repro.netmodel.distributions import QuantileDistribution
from repro.netmodel.percore import PerCoreQosModel
from repro.netmodel.stochastic import (
    Ar1QuantileModel,
    UniformQuantileSamplingModel,
)
from repro.netmodel.token_bucket import TokenBucketModel, TokenBucketParams

__all__ = ["model_state_dict", "model_from_state", "chained_models"]


def _dist_to_json(dist: QuantileDistribution) -> dict:
    return {"probs": list(dist.probs), "values": list(dist.values)}


def _dist_from_json(payload: Mapping) -> QuantileDistribution:
    return QuantileDistribution(
        probs=tuple(payload["probs"]), values=tuple(payload["values"])
    )


def _rng_state(rng: np.random.Generator) -> dict:
    # The bit-generator state is a plain dict of ints/strings; Python's
    # json handles the 128-bit PCG64 integers natively.
    return rng.bit_generator.state


def _restore_rng(rng: np.random.Generator, state: Mapping) -> None:
    rng.bit_generator.state = dict(state)


def model_state_dict(model: LinkModel) -> dict:
    """Full JSON snapshot of a link model (parameters + dynamic state)."""
    if type(model) is TokenBucketModel:
        return {
            "kind": "token_bucket",
            "params": asdict(model.params),
            "budget_gbit": float(model.budget_gbit),
            "throttled": bool(model.throttled),
        }
    if type(model) is ConstantRateModel:
        return {"kind": "constant", "rate_gbps": float(model.limit())}
    if type(model) is PerCoreQosModel:
        return {
            "kind": "percore_qos",
            "cores": model.cores,
            "per_core_gbps": model.per_core_gbps,
            "warm_efficiency": _dist_to_json(model.warm_efficiency),
            "cold_efficiency": _dist_to_json(model.cold_efficiency),
            "ramp_s": model.ramp_s,
            "idle_reset_s": model.idle_reset_s,
            "interval_s": model.interval_s,
            "seed": model._seed,
            "stream_age": model._stream_age,
            "idle_time": model._idle_time,
            "elapsed_in_interval": model._elapsed_in_interval,
            "efficiency": model._efficiency,
            "rng": _rng_state(model._rng),
        }
    if type(model) is UniformQuantileSamplingModel:
        return {
            "kind": "uniform_sampling",
            "distribution": _dist_to_json(model.distribution),
            "interval_s": model._interval,
            "seed": model._seed,
            "elapsed": model._elapsed_in_interval,
            "current": model._current,
            "rng": _rng_state(model._rng),
        }
    if type(model) is Ar1QuantileModel:
        return {
            "kind": "ar1",
            "distribution": _dist_to_json(model.distribution),
            "interval_s": model._interval,
            "phi": model.phi,
            "seed": model._seed,
            "elapsed": model._elapsed_in_interval,
            "current": model._current,
            "z": model._z,
            "rng": _rng_state(model._rng),
        }
    raise TypeError(
        f"cannot snapshot link model {model!r}: no state codec for "
        f"{type(model).__name__} (warm-fabric chains support the "
        "provider-issued model types)"
    )


def model_from_state(state: Mapping[str, Any]) -> LinkModel:
    """Rebuild a link model from :func:`model_state_dict` output."""
    kind = state.get("kind")
    if kind == "token_bucket":
        model = TokenBucketModel(TokenBucketParams(**state["params"]))
        # set_budget applies resume-threshold hysteresis; the snapshot
        # is authoritative, so restore the raw tier flag directly.
        model._budget = float(state["budget_gbit"])
        model._throttled = bool(state["throttled"])
        return model
    if kind == "constant":
        return ConstantRateModel(state["rate_gbps"])
    if kind == "percore_qos":
        model = PerCoreQosModel(
            cores=int(state["cores"]),
            per_core_gbps=float(state["per_core_gbps"]),
            warm_efficiency=_dist_from_json(state["warm_efficiency"]),
            cold_efficiency=_dist_from_json(state["cold_efficiency"]),
            ramp_s=float(state["ramp_s"]),
            idle_reset_s=float(state["idle_reset_s"]),
            interval_s=float(state["interval_s"]),
            seed=state["seed"],
        )
        model._stream_age = float(state["stream_age"])
        model._idle_time = float(state["idle_time"])
        model._elapsed_in_interval = float(state["elapsed_in_interval"])
        model._efficiency = float(state["efficiency"])
        _restore_rng(model._rng, state["rng"])
        return model
    if kind == "uniform_sampling":
        model = UniformQuantileSamplingModel(
            _dist_from_json(state["distribution"]),
            interval_s=float(state["interval_s"]),
            seed=state["seed"],
        )
        model._elapsed_in_interval = float(state["elapsed"])
        model._current = float(state["current"])
        _restore_rng(model._rng, state["rng"])
        return model
    if kind == "ar1":
        model = Ar1QuantileModel(
            _dist_from_json(state["distribution"]),
            interval_s=float(state["interval_s"]),
            phi=float(state["phi"]),
            seed=state["seed"],
        )
        model._elapsed_in_interval = float(state["elapsed"])
        model._current = float(state["current"])
        model._z = float(state["z"])
        _restore_rng(model._rng, state["rng"])
        return model
    raise ValueError(f"unknown link-model state kind {kind!r}")


def chained_models(config, upstream, key: str) -> list[LinkModel]:
    """A chained cell's link models, restored from its predecessor.

    ``config`` is a scenario or serving config, ``upstream`` its
    predecessor's result and ``key`` the cell's id.  Raises ValueError
    when the predecessor is missing, carries no fabric state, ran
    another provider incarnation, or has another node count.
    """
    if upstream is None:
        raise ValueError(
            f"cell {key} chains after {config.predecessor} but no "
            "upstream result was supplied"
        )
    if upstream.fabric_state is None:
        raise ValueError(
            f"predecessor {config.predecessor} carries no fabric "
            "state (stored by an older version?); recompute it"
        )
    if (
        upstream.config.provider_name != config.provider_name
        or upstream.config.instance_name != config.instance_name
    ):
        # The inherited models ARE the predecessor's provider
        # incarnations; letting a cell labeled for another provider run
        # on them would poison rows and cache keys alike.
        raise ValueError(
            f"chained cell {key} targets "
            f"{config.provider_name}/{config.instance_name} but its "
            f"predecessor ran {upstream.config.provider_name}/"
            f"{upstream.config.instance_name}; a warm-fabric chain "
            "stays on one provider incarnation"
        )
    if len(upstream.fabric_state) != config.n_nodes:
        raise ValueError(
            f"predecessor fabric has {len(upstream.fabric_state)} "
            f"nodes, this cell needs {config.n_nodes}"
        )
    return [model_from_state(state) for state in upstream.fabric_state]
