"""Bit-exact pins of every scalar send-and-step integration path.

The emulated link (Figures 4-10), token-bucket identification (Figure
11), the F5.2 fingerprint, the CPU credit bucket and the idle rest all
integrate a shaper by stepping at its horizon.  These pins hold their
outputs to the last bit: any change to step floors, end tolerances or
the order of the step arithmetic moves a value here.

Floats are pinned as ``float.hex`` literals; long sample sequences as
the sha256 of their ``float.hex`` renderings.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.cloud.providers import default_providers
from repro.emulator import FIVE_THIRTY, FULL_SPEED, TEN_THIRTY, EmulatedLink
from repro.measurement.fingerprint import fingerprint_link, identify_token_bucket
from repro.netmodel import (
    Ar1QuantileModel,
    ConstantRateModel,
    CpuTokenBucket,
    PerCoreQosModel,
    QuantileDistribution,
    TokenBucketModel,
    TokenBucketParams,
    UniformQuantileSamplingModel,
)
from repro.netmodel.cpu_bucket import T2_MEDIUM_LIKE
from repro.netmodel.state import model_state_dict

INSTANCES = {
    "amazon": "c5.xlarge",
    "google": "gce-4core",
    "hpccloud": "hpccloud-8core",
}


def _hexify(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: _hexify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_hexify(v) for v in value]
    return value


def _sha(value) -> str:
    text = json.dumps(_hexify(value), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _estimate(estimate) -> dict:
    return {
        "detected": estimate.detected,
        "time_to_empty_s": estimate.time_to_empty_s.hex(),
        "high_gbps": estimate.high_gbps.hex(),
        "low_gbps": estimate.low_gbps.hex(),
        "replenish_gbps": estimate.replenish_gbps.hex(),
    }


FINGERPRINTS = {
    "amazon": {
        "base_bandwidth_gbps": "0x1.4000000000000p+3",
        "base_latency_ms": "0x1.3237006c375bfp-3",
        "loaded_latency_ms": "0x1.11a513c2001ffp-1",
        "token_bucket": {
            "detected": True,
            "time_to_empty_s": "0x1.3049fddfa2beep+9",
            "high_gbps": "0x1.4000000000000p+3",
            "low_gbps": "0x1.f1db0edf7b905p-1",
            "replenish_gbps": "0x1.d66dec86d5b5ap-1",
        },
    },
    "google": {
        "base_bandwidth_gbps": "0x1.dc1642fff8c5bp+2",
        "base_latency_ms": "0x1.fe7d58bc47095p+0",
        "loaded_latency_ms": "0x1.965259cd7bc5ep+2",
        "token_bucket": {
            "detected": False,
            "time_to_empty_s": "inf",
            "high_gbps": "0x1.e349ef569ded5p+2",
            "low_gbps": "0x1.e349ef569ded5p+2",
            "replenish_gbps": "0x0.0p+0",
        },
    },
    "hpccloud": {
        "base_bandwidth_gbps": "0x1.4001b5f32eb17p+3",
        "base_latency_ms": "0x1.9845652fcc126p-4",
        "loaded_latency_ms": "0x1.6cdc1a58002aap-2",
        "token_bucket": {
            "detected": False,
            "time_to_empty_s": "inf",
            "high_gbps": "0x1.2b87ecc1656c8p+3",
            "low_gbps": "0x1.2b87ecc1656c8p+3",
            "replenish_gbps": "0x0.0p+0",
        },
    },
}


def _fingerprint_pin(provider_name):
    provider = default_providers()[provider_name]
    rng = np.random.default_rng(0)
    model = provider.link_model(INSTANCES[provider_name], rng)
    fp = fingerprint_link(model, provider.latency_model(), rng=rng)
    return {
        "base_bandwidth_gbps": fp.base_bandwidth_gbps.hex(),
        "base_latency_ms": fp.base_latency_ms.hex(),
        "loaded_latency_ms": fp.loaded_latency_ms.hex(),
        "token_bucket": _estimate(fp.token_bucket),
    }


@pytest.mark.parametrize("provider_name", sorted(INSTANCES))
def test_fingerprint_link_pins(provider_name):
    assert _fingerprint_pin(provider_name) == FINGERPRINTS[provider_name]


IDENTIFICATIONS = {
    0: {
        "detected": True,
        "time_to_empty_s": "0x1.3049fddfa2beep+9",
        "high_gbps": "0x1.4000000000000p+3",
        "low_gbps": "0x1.f1db0edf7b905p-1",
        "replenish_gbps": "0x1.d66dec86d5b5ap-1",
        "state": "9f08f00ee8aefc71a713d86648ac28e6dd151e5918549e041c910bcc27b51cdb",
    },
    1: {
        "detected": True,
        "time_to_empty_s": "0x1.3f4d5c52f117ep+9",
        "high_gbps": "0x1.4000000000000p+3",
        "low_gbps": "0x1.0dd697354028bp+0",
        "replenish_gbps": "0x1.fdb0a0e09b3abp-1",
        "state": "a8cfee196248b29340613ab3068a6e49fe50ffdf2879e047850e2218a33871fd",
    },
    2: {
        "detected": True,
        "time_to_empty_s": "0x1.33e361fe326a0p+9",
        "high_gbps": "0x1.4000000000000p+3",
        "low_gbps": "0x1.f39e8a2c4427ep-1",
        "replenish_gbps": "0x1.d815fe226b0f6p-1",
        "state": "6bbae439b6f72524973d775b597a7ebd4bb98a1ba51a4d87340617f7bce49dc5",
    },
}


def _identify_pin(seed):
    provider = default_providers()["amazon"]
    model = provider.link_model("c5.xlarge", np.random.default_rng(seed))
    estimate = identify_token_bucket(model)
    # The probe leaves the bucket where its last step put it.
    return {**_estimate(estimate), "state": _sha(model_state_dict(model))}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_identify_token_bucket_pins(seed):
    assert _identify_pin(seed) == IDENTIFICATIONS[seed]


EMULATED_RUNS = {
    ("amazon", "full-speed"): {
        "samples": 720,
        "total_gbit": "0x1.8678e27e33468p+13",
        "digest": "d8181874e3fb549246adce4772c3117dc3ffd410d926a7e5ee3d11c299703b1b",
        "state": "9f08f00ee8aefc71a713d86648ac28e6dd151e5918549e041c910bcc27b51cdb",
    },
    ("amazon", "10-30"): {
        "samples": 180,
        "total_gbit": "0x1.7c9246c55c669p+13",
        "digest": "0608483110603f264b6d11f0750813cad141375dd36d14418a4dfd98ec4589a6",
        "state": "fc1bcf51c0da8b51a19bd8ce3fa6e3ac2fc635a66ebfc4b68af9b44c359bfb10",
    },
    ("amazon", "5-30"): {
        "samples": 206,
        "total_gbit": "0x1.41e0000000000p+13",
        "digest": "3146a87382abf18d1224ef9ebb50dee3b99a040d95022e14d2b38a272b23c71f",
        "state": "43e2246117a1d565217d73149b4b4b98574753cbd03caf4b90b75875830e9960",
    },
    ("google", "full-speed"): {
        "samples": 720,
        "total_gbit": "0x1.a8bea7f10748ep+15",
        "digest": "3047c96db3c2c0acc8c16a55b195637e82fb428a7afe37cdbcdda08e2cabe2d6",
        "state": "459ff598173ba0cab34c41dc16ef7a6f0ad283de24466791de36453a4162a302",
    },
    ("google", "10-30"): {
        "samples": 180,
        "total_gbit": "0x1.9147a831d54e0p+13",
        "digest": "430ccf4961055a52b862ce3047e32e0920f59d73059e9d2185bdbb4f729479d3",
        "state": "33fcebfc8b67954da028670b43e87819116e6ea64a58a73753cce23ca9bb38a5",
    },
    ("google", "5-30"): {
        "samples": 206,
        "total_gbit": "0x1.adc6e218d0a55p+12",
        "digest": "7ffc5ff5a1d06bff6a01ebe2b71bed6fd631af0913b0a6f18669a5d48d8c2c44",
        "state": "cd8a8869ac6bff730c0057e69b146755b306fcfa733ad0ca33cfb6089c12dd52",
    },
    ("hpccloud", "full-speed"): {
        "samples": 720,
        "total_gbit": "0x1.07427715fa24ap+16",
        "digest": "fd8b72da7e01e0679edbe689c6043bc2542ec1c46eb00f7f43b13c66736b36ff",
        "state": "f4a17885d2476e573ae811486794934cdf65e1f642bf0dc9f9424e660bf0fbe6",
    },
    ("hpccloud", "10-30"): {
        "samples": 180,
        "total_gbit": "0x1.081f655dde3f7p+14",
        "digest": "150921b84a0701ef6290227d59f72619ae510e490cf629401dbc328b2e83a89f",
        "state": "f4a17885d2476e573ae811486794934cdf65e1f642bf0dc9f9424e660bf0fbe6",
    },
    ("hpccloud", "5-30"): {
        "samples": 206,
        "total_gbit": "0x1.2bef95560f768p+13",
        "digest": "fd3cbb84432d585e416d1b21471c6dac90592c6dd082ecf27638b7e4cabe25e3",
        "state": "f4a17885d2476e573ae811486794934cdf65e1f642bf0dc9f9424e660bf0fbe6",
    },
}


def _emulated_pin(provider_name, pattern):
    provider = default_providers()[provider_name]
    model = provider.link_model(
        INSTANCES[provider_name], np.random.default_rng(0)
    )
    samples = EmulatedLink(model, pattern).run(7_200.0)
    return {
        "samples": len(samples),
        "total_gbit": sum(s.transferred_gbit for s in samples).hex(),
        "digest": _sha(
            [[s.t_start, s.duration_s, s.transferred_gbit] for s in samples]
        ),
        "state": _sha(model_state_dict(model)),
    }


@pytest.mark.parametrize("provider_name", sorted(INSTANCES))
@pytest.mark.parametrize("pattern", [FULL_SPEED, TEN_THIRTY, FIVE_THIRTY])
def test_emulated_link_pins(provider_name, pattern):
    got = _emulated_pin(provider_name, pattern)
    assert got == EMULATED_RUNS[(provider_name, pattern.name)]


CPU_SEQUENCE = [
    ("0x1.e000000000000p+6", "0x1.0800000000000p+8", False),
    ("0x1.e000000000000p+6", "0x1.5000000000000p+7", False),
    ("0x1.e000000000000p+6", "0x1.2000000000000p+6", False),
    ("0x1.e000000000000p+7", "0x0.0p+0", True),
    ("0x1.2c00000000000p+9", "0x0.0p+0", True),
    ("0x1.2c00000000000p+9", "0x0.0p+0", True),
    ("0x1.2c00000000000p+9", "0x0.0p+0", True),
    ("0x1.2c00000000000p+9", "0x0.0p+0", True),
]


def _cpu_pin():
    # The repetition loop of benchmarks/bench_ablation_cpu_bucket.py.
    bucket = CpuTokenBucket(T2_MEDIUM_LIKE)
    got = []
    for _ in range(8):
        elapsed = bucket.run_at_full_speed(120.0)
        got.append((elapsed.hex(), bucket.credits.hex(), bucket.throttled))
    return got


def test_run_at_full_speed_sequence():
    assert _cpu_pin() == CPU_SEQUENCE


_JITTER = QuantileDistribution(
    probs=(0.01, 0.25, 0.5, 0.75, 0.99), values=(7.7, 8.9, 9.4, 9.8, 10.4)
)


def _rest_models():
    return {
        "constant": ConstantRateModel(7.5),
        "token_bucket": TokenBucketModel(
            TokenBucketParams(
                peak_gbps=10.0,
                capped_gbps=1.0,
                replenish_gbps=0.9,
                capacity_gbit=600.0,
                initial_budget_gbit=0.0,
                resume_threshold_gbit=50.0,
            )
        ),
        "percore_qos": PerCoreQosModel(cores=4, per_core_gbps=2.0, seed=3),
        "uniform_sampling": UniformQuantileSamplingModel(
            _JITTER, interval_s=0.7, seed=5
        ),
        "ar1": Ar1QuantileModel(_JITTER, interval_s=1.3, phi=0.6, seed=7),
        # Floor-bound steps leave a countdown residue between 1e-12 and
        # 1e-9 s: this rest takes 10,000 steps only because a rest
        # ends at the coarser 1e-9 s tolerance.
        "fine_sampling": UniformQuantileSamplingModel(
            _JITTER, interval_s=0.05, seed=1
        ),
    }


REST_STATES = {
    "ar1": {
        "limit": "0x1.4b3fb892d58dcp+3",
        "state": "774559805f1843bac25ce539e3d0cad8a273623b3f701d304687f5e43f97fdd3",
    },
    "constant": {
        "limit": "0x1.e000000000000p+2",
        "state": "874ff5aaba64bc4baf4203462a1ab1c07b191f3e892336066a705319d5d1a779",
    },
    "fine_sampling": {
        "limit": "0x1.3cb7720e1863dp+3",
        "state": "79fc8bca96ff0a627fe8279677911fccf696e442badb436ae8019ddae813efe2",
    },
    "percore_qos": {
        "limit": "0x1.c3d9d40af2a87p+2",
        "state": "7ca899ca0ff51da67ab02342f6564a1d02c6f6e42b9ce16dea7f34c072a14f00",
    },
    "token_bucket": {
        "limit": "0x1.4000000000000p+3",
        "state": "40f8c09ea7ecbac7bdab9989ef870f6f10c354dd1b9fa237ca59cc6815096c29",
    },
    "uniform_sampling": {
        "limit": "0x1.35d89d76293dep+3",
        "state": "782f3fe6067a666f792a9d1bd5b8e02a5c5ec9efcdfe8a5d070dcf651ee7157b",
    },
}


def _rest_pin(kind):
    model = _rest_models()[kind]
    if kind == "fine_sampling":
        model.advance(0.0016229565597120023, 1.0)
        model.rest(584.5)
    else:
        # Send for a while so the clocks sit mid-interval, then rest
        # across many resample boundaries, a tiny gap and a long idle.
        model.advance(min(0.37, model.horizon(model.limit())), model.limit())
        for duration in (0.0, 2.5e-7, 3.3, 41.9, 12_345.6):
            model.rest(duration)
    return {"limit": model.limit().hex(), "state": _sha(model_state_dict(model))}


@pytest.mark.parametrize("kind", sorted(REST_STATES))
def test_rest_state_pins(kind):
    assert _rest_pin(kind) == REST_STATES[kind]
