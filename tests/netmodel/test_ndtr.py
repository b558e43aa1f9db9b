"""The pure-Python cephes port must equal ``scipy.special`` bit for bit.

:mod:`repro.netmodel._ndtr` replaces ``scipy.special.ndtr`` on the AR(1)
shaper's redraw path so that no simulation imports scipy.  Equality is
checked on the bits (``struct.pack``), not with a tolerance: the shaper's
seeded ceilings are pinned literally (``test_stochastic_percore.py``),
and one flipped last bit in ``u`` can move a ceiling.  The explicit
cases sit a few ulps either side of every branch edge of the port; the
slow sweep (``pytest -m slow tests/netmodel/test_ndtr.py``) runs a
million seeded doubles, because the port leans on the interpreter's
``math.exp``.
"""

import math
import struct

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.netmodel import _ndtr
from repro.netmodel._ndtr import erf, erfc, ndtr

SQRT2 = math.sqrt(2.0)
#: ``a`` where ``erfc(|a| / sqrt 2)`` leaves its rational approximation
#: for the ``MAXLOG`` underflow cut (|a| ~ 37.68).
UNDERFLOW_CUT = math.sqrt(_ndtr._MAXLOG) * SQRT2
#: Branch edges of ``ndtr(a)``, in ``a``: ``|x| < SQRTH`` picks erf
#: over erfc, ``x < 1`` inside erfc falls back to erf, ``x < 8`` picks
#: the P/Q over the R/S approximation (``x = |a| / sqrt 2``).
EDGES = (1.0, SQRT2, 8.0 * SQRT2, UNDERFLOW_CUT)
ULPS = 4

SPECIALS = (
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    2.225073858507201e-308,  # largest subnormal
    -2.225073858507201e-308,
    2.2250738585072014e-308,  # smallest normal
    1e-300,
    -1e-300,
    38.5,
    -38.5,
    40.0,
    -40.0,
    1.7976931348623157e308,
    -1.7976931348623157e308,
    math.inf,
    -math.inf,
)


def bits(value) -> bytes:
    return struct.pack("<d", float(value))


def around(edge: float, ulps: int = ULPS) -> list[float]:
    """``edge`` and ``ulps`` neighbouring doubles on each side of it."""
    below, above = [edge], [edge]
    for _ in range(ulps):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[:0:-1] + above


EDGE_POINTS = sorted(
    {sign * a for edge in EDGES for a in around(edge) for sign in (1.0, -1.0)}
)


@pytest.mark.parametrize(
    "port, reference",
    [
        (ndtr, scipy.special.ndtr),
        (erf, scipy.special.erf),
        (erfc, scipy.special.erfc),
    ],
    ids=["ndtr", "erf", "erfc"],
)
class TestBitEqualToScipy:
    @settings(max_examples=500, deadline=None)
    @given(a=st.floats(allow_nan=False, allow_infinity=False))
    def test_all_finite_doubles(self, port, reference, a):
        assert bits(port(a)) == bits(reference(a))

    @settings(max_examples=500, deadline=None)
    @given(a=st.floats(min_value=-40.0, max_value=40.0))
    @example(a=0.5)
    @example(a=-3.0)
    @example(a=20.0)
    def test_shaper_range(self, port, reference, a):
        assert bits(port(a)) == bits(reference(a))

    @pytest.mark.parametrize("a", SPECIALS + tuple(EDGE_POINTS))
    def test_specials_and_branch_edges(self, port, reference, a):
        assert bits(port(a)) == bits(reference(a))

    def test_nan_maps_to_nan(self, port, reference):
        assert math.isnan(port(math.nan))
        assert math.isnan(reference(math.nan))


def test_edge_windows_straddle_the_underflow_cut():
    # The explicit cases only cover the cut if the window crosses it:
    # below the cut the lower tail is a subnormal, above it exactly 0.
    window = around(UNDERFLOW_CUT)
    assert ndtr(-window[0]) > 0.0
    assert ndtr(-window[-1]) == 0.0


def test_port_returns_python_floats():
    assert all(type(ndtr(a)) is float for a in (0.0, 0.3, 2.0, 12.0, 50.0))


@pytest.mark.slow
def test_million_seeded_doubles_bit_equal_to_vectorized_ndtr():
    rng = np.random.default_rng(20261017)
    n = 260_000
    samples = np.concatenate(
        [
            rng.standard_normal(n),
            rng.uniform(-40.0, 40.0, n),
            rng.standard_normal(n) * 1e-3,
            # Every finite double is equally likely by bit pattern:
            # subnormals and huge magnitudes included.
            rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64),
        ]
    )
    samples = samples[np.isfinite(samples)]
    assert samples.size >= 1_000_000
    reference = scipy.special.ndtr(samples)
    ported = np.array([ndtr(a) for a in samples.tolist()])
    mismatched = np.flatnonzero(
        reference.view(np.uint64) != ported.view(np.uint64)
    )
    assert mismatched.size == 0, samples[mismatched[:10]].tolist()
