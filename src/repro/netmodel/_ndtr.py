"""The standard normal CDF as a pure-Python port of cephes ``ndtr``.

The AR(1) shaper maps its latent Gaussian through the normal CDF once
per redraw, and its seeded ceilings are pinned bit for bit.  The
reference is ``scipy.special.ndtr`` (what ``scipy.stats.norm.cdf`` ends
in), but importing ``scipy.special`` costs a fresh process about a
quarter of a second and ~20 MB, and every campaign shard, subprocess
cell and CLI call is a fresh process.  ``0.5 * math.erfc(-a / sqrt 2)``
is not a substitute: libm's ``erfc`` is a different approximation, and
its result differs from scipy's in the last bits on a third or more of
standard normal and of uniform inputs.

So this module is the same algorithm, operation for operation: the
cephes ``ndtr.c`` rational approximations that scipy's bundled special
function library still evaluates.  What keeps it bit-identical:

* the P/Q, R/S and T/U coefficient tables of cephes ``ndtr.c``;
* ``_polevl``/``_p1evl`` accumulate Horner's rule in the cephes order
  (``ans = ans * x + coef``), each step two IEEE roundings, as in C
  built without fused multiply-add;
* the same branch points: ``|a| < 1`` (``|x| < SQRTH``) in
  :func:`ndtr`, ``|x| < 1`` and ``|x| < 8`` in :func:`erfc`, and the
  ``MAXLOG`` underflow cut at ``|x| ~ 26.64`` (``|a| ~ 37.68``);
* ``math.exp``, which is the C library's ``exp``, the one scipy calls.

Python floats are IEEE doubles and every operation here rounds exactly
as the C source does, so the only platform dependency is ``exp``.  The
bitwise tests compare against ``scipy.special.ndtr`` directly.
"""

from __future__ import annotations

import math

__all__ = ["ndtr", "erf", "erfc"]

#: sqrt(1/2), the double nearest to it (NPY_SQRT1_2 in cephes).
_SQRTH = 7.07106781186547524401e-1
#: log(DBL_MAX): below exp(-MAXLOG) erfc underflows to zero.
_MAXLOG = 7.09782712893383996843e2

# erfc(x) = exp(-x^2) P(x) / Q(x) for 1 <= x < 8.
_P = (
    2.46196981473530512524e-10,
    5.64189564831068821977e-1,
    7.46321056442269912687e0,
    4.86371970985681366614e1,
    1.96520832956077098242e2,
    5.26445194995477358631e2,
    9.34528527171957607540e2,
    1.02755188689515710272e3,
    5.57535335369399327526e2,
)
_Q = (  # leading 1.0 implied (p1evl)
    1.32281951154744992508e1,
    8.67072140885989742329e1,
    3.54937778887819891062e2,
    9.75708501743205489753e2,
    1.82390916687909736289e3,
    2.24633760818710981792e3,
    1.65666309194161350182e3,
    5.57535340817727675546e2,
)
# erfc(x) = exp(-x^2) R(x) / S(x) for x >= 8.
_R = (
    5.64189583547755073984e-1,
    1.27536670759978104416e0,
    5.01905042251180477414e0,
    6.16021097993053585195e0,
    7.40974269950448939160e0,
    2.97886665372100240670e0,
)
_S = (  # leading 1.0 implied (p1evl)
    2.26052863220117276590e0,
    9.39603524938001434673e0,
    1.20489539808096656605e1,
    1.70814450747565897222e1,
    9.60896809063285878198e0,
    3.36907645100081516050e0,
)
# erf(x) = x T(x^2) / U(x^2) for |x| <= 1.
_T = (
    9.60497373987051638749e0,
    9.00260197203842689217e1,
    2.23200534594684319226e3,
    7.00332514112805075473e3,
    5.55923013010394962768e4,
)
_U = (  # leading 1.0 implied (p1evl)
    3.35617141647503099647e1,
    5.21357949780152679795e2,
    4.59432382970980127987e3,
    2.26290000613890934246e4,
    4.92673942608635921086e4,
)


def _polevl(x: float, coef: tuple) -> float:
    """Evaluate the polynomial ``coef[0] x^N + ... + coef[N]``."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef: tuple) -> float:
    """As :func:`_polevl` with an implied leading coefficient of 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def erf(x: float) -> float:
    """The error function (cephes ``erf``)."""
    if math.isnan(x):
        return math.nan
    if x < 0.0:
        return -erf(-x)
    if abs(x) > 1.0:
        return 1.0 - erfc(x)
    z = x * x
    return x * _polevl(z, _T) / _p1evl(z, _U)


def erfc(a: float) -> float:
    """The complementary error function (cephes ``erfc``)."""
    if math.isnan(a):
        return math.nan
    x = -a if a < 0.0 else a
    if x < 1.0:
        return 1.0 - erf(a)
    z = -a * a
    if z >= -_MAXLOG:
        z = math.exp(z)
        if x < 8.0:
            p = _polevl(x, _P)
            q = _p1evl(x, _Q)
        else:
            p = _polevl(x, _R)
            q = _p1evl(x, _S)
        y = (z * p) / q
        if a < 0:
            y = 2.0 - y
        if y != 0.0:
            return y
    # Underflow: exp(-a^2), or the whole tail, is below the smallest double.
    return 2.0 if a < 0 else 0.0


def ndtr(a: float) -> float:
    """The standard normal CDF at ``a`` (cephes ``ndtr``); NaN -> NaN."""
    if math.isnan(a):
        return math.nan
    x = a * _SQRTH
    z = abs(x)
    if z < _SQRTH:
        return 0.5 + 0.5 * erf(x)
    y = 0.5 * erfc(z)
    if x > 0:
        y = 1.0 - y
    return y
