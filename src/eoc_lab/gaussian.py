"""Standard-normal utilities and the variance domain check.

The CDF is ``math.erfc`` mapped over arrays, the quantile is
``statistics.NormalDist().inv_cdf`` and the inverse error function is built
on that quantile in its complementary form, which keeps full precision as
the argument nears 1.  Every Gaussian moment in the package is a closed
form of :mod:`eoc_lab._moments` built on ``normal_cdf``.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

_SQRT2 = math.sqrt(2.0)
_SQRT_HALF = math.sqrt(0.5)
_STANDARD_NORMAL = NormalDist()
_erfc = np.frompyfunc(math.erfc, 1, 1)


def _check_q(q):
    """A variance, or an array of them; each must be positive and finite
    (a subnormal q is exact, and the kernel computes at q / 4^k in [1, 4)).

    Returns a float for scalar input and a float array otherwise.
    """
    if isinstance(q, float) and 0.0 < q < math.inf:
        return float(q)
    arr = np.asarray(q, dtype=float)
    bad = ~(np.isfinite(arr) & (arr > 0.0))
    if bad.any():
        raise ValueError(f"variance must be positive and finite, got {arr[bad].flat[0]}")
    return arr if arr.ndim else float(arr)


def normal_cdf(x):
    """Standard-normal CDF, 0.5 erfc(-x / sqrt(2)), elementwise over arrays.

    Returns a Python float for scalar input and a float array otherwise.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        return 0.5 * math.erfc(-float(x) * _SQRT_HALF)
    return 0.5 * _erfc(np.multiply(x, -_SQRT_HALF)).astype(float)


def normal_quantile(p: float) -> float:
    """Inverse standard-normal CDF; p must lie strictly inside (0, 1)."""
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile argument must lie in (0, 1), got {p}")
    return _STANDARD_NORMAL.inv_cdf(p)


def erf_inv(p: float) -> float:
    """Inverse error function; p must lie strictly inside (-1, 1).

    Computed as -Phi^{-1}((1 - |p|) / 2) / sqrt(2) with the sign of p: the
    tail probability 1 - |p| is exact for |p| >= 1/2, where the form
    Phi^{-1}((1 + p) / 2) would round 1 + p and lose digits as p nears 1.
    """
    p = float(p)
    if not -1.0 < p < 1.0:
        raise ValueError(f"erf_inv argument must lie in (-1, 1), got {p}")
    return math.copysign(-_STANDARD_NORMAL.inv_cdf(0.5 * (1.0 - abs(p))) / _SQRT2, p)
