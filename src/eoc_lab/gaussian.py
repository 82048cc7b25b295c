"""Gaussian expectation engine and standard-normal utilities.

This module owns the scalar operator

    <f>_q = E[f(z)],  z ~ N(0, q),

evaluated by ``gauss_expect(f, q, kinks)`` on N(0, q) samples directly,
i.e. (2*pi*q)^(-1/2) * integral f(z) exp(-z^2 / (2q)) dz.

Activation integrands in this package are piecewise smooth with kinks, so
the integral is split at the given kink locations and each smooth segment
is integrated with composite Gauss-Legendre panels of one fixed order,
which keeps spectral accuracy on non-smooth integrands.  The closed forms
of :mod:`eoc_lab._moments` never call it; the two-input correlation map
does, and the test suite holds the closed forms against it.

The standard-normal utilities come from the standard library: the CDF is
``math.erfc`` mapped over arrays, the quantile is
``statistics.NormalDist().inv_cdf`` and the inverse error function is built
on that quantile in its complementary form, which keeps full precision as
the argument nears 1.
"""

from __future__ import annotations

import functools
import math
from statistics import NormalDist
from typing import Callable, Sequence

import numpy as np

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)
_SQRT_HALF = math.sqrt(0.5)
_STANDARD_NORMAL = NormalDist()
_erfc = np.frompyfunc(math.erfc, 1, 1)

# Standard-normal mass beyond 12 sigma is ~ 2e-33; activation integrands are
# bounded or of low polynomial growth so truncating panels there is exact at
# double precision.
_TAIL_SIGMA = 12.0

# Gauss-Legendre nodes per panel
_ORDER = 80


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    # built on first use, not at import: every CLI process imports this module
    return np.polynomial.legendre.leggauss(_ORDER)


def _check_q(q):
    """A variance, or an array of them; each must be positive and finite.

    Returns a float for scalar input and a float array otherwise.
    """
    arr = np.asarray(q, dtype=float)
    bad = ~(np.isfinite(arr) & (arr > 0.0))
    if bad.any():
        raise ValueError(f"variance must be positive and finite, got {arr[bad].flat[0]}")
    return arr if arr.ndim else float(arr)


def gauss_expect(
    f: Callable[[np.ndarray], np.ndarray],
    q: float,
    kinks: Sequence[float] = (),
) -> float:
    """Expectation of ``f(z)`` for ``z ~ N(0, q)``.

    ``f`` must accept a numpy array and return finite values on the nodes.
    ``kinks`` are the locations where f or a derivative jumps, in the
    coordinates of z; each smooth segment between them is integrated with
    composite Gauss-Legendre panels of at most 6 standard deviations, so
    the per-panel integrand stays spectrally resolvable.
    """
    q = _check_q(q)
    sq = math.sqrt(q)
    pts = sorted({float(k) / sq for k in kinks})
    lo, hi = -_TAIL_SIGMA, _TAIL_SIGMA
    if pts:
        lo, hi = min(lo, pts[0] - _TAIL_SIGMA), max(hi, pts[-1] + _TAIL_SIGMA)
    edges = [lo] + [p for p in pts if lo < p < hi] + [hi]

    gl_x, gl_w = _gauss_legendre()
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        if b - a <= 0:
            continue
        n_panels = max(1, math.ceil((b - a) / 6.0))
        panel_edges = np.linspace(a, b, n_panels + 1)
        for pa, pb in zip(panel_edges[:-1], panel_edges[1:]):
            half = 0.5 * (pb - pa)
            x = 0.5 * (pa + pb) + half * gl_x
            density = np.exp(-0.5 * x * x) / _SQRT2PI
            vals = np.asarray(f(sq * x), dtype=float)
            if not np.all(np.isfinite(vals)):
                raise ValueError("integrand returned a non-finite value")
            total += half * float(np.sum(gl_w * density * vals))
    return total


def normal_cdf(x):
    """Standard-normal CDF, 0.5 erfc(-x / sqrt(2)), elementwise over arrays.

    Returns a Python float for scalar input and a float array otherwise.
    """
    if np.ndim(x) == 0:
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
