"""Gaussian expectation engine and standard-normal utilities.

This module owns the scalar operator

    <f>_q = E[f(z)],  z ~ N(0, q),

evaluated by ``gauss_expect(f, q)`` on N(0, q) samples directly, i.e.
(2*pi*q)^(-1/2) * integral f(z) exp(-z^2 / (2q)) dz.

Quadrature is Gauss-Hermite in the probabilists' convention by default.
Activation integrands in this package are piecewise smooth with kinks, so
``gauss_expect`` accepts an optional list of kink locations; when given, the
integral is evaluated segment by segment with composite Gauss-Legendre
panels, which restores spectral accuracy that a global Hermite rule loses on
non-smooth integrands.

The standard-normal utilities come from the standard library: the CDF is
``math.erfc`` mapped over arrays, the quantile is
``statistics.NormalDist().inv_cdf`` and the inverse error function is built
on that quantile in its complementary form, which keeps full precision as
the argument nears 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable, Sequence

import numpy as np

from .config import DEFAULT_TOLERANCES

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)
_SQRT_HALF = math.sqrt(0.5)
_STANDARD_NORMAL = NormalDist()
_erfc = np.frompyfunc(math.erfc, 1, 1)

# Standard-normal mass beyond 12 sigma is ~ 2e-33; activation integrands are
# bounded or of low polynomial growth so truncating panels there is exact at
# double precision.
_TAIL_SIGMA = 12.0


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of a Gaussian quadrature rule.

    Weights are normalised against the Gaussian weight, so they sum to one
    and ``sum(w * f(x))`` is an expectation, not a bare integral.
    """

    nodes: np.ndarray
    weights: np.ndarray
    order: int

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if self.order < 1:
            raise ValueError("quadrature order must be a positive integer")
        if np.any(weights <= 0):
            raise ValueError("quadrature weights must be positive")
        if abs(weights.sum() - 1.0) > DEFAULT_TOLERANCES.quadrature_norm:
            raise ValueError("normalised weights must sum to 1")
        if not np.allclose(nodes, -nodes[::-1], atol=1e-12):
            raise ValueError("nodes must be symmetric about 0")

    @classmethod
    def gauss_hermite(cls, order: int = 101) -> "QuadratureRule":
        """Probabilists' Gauss-Hermite rule normalised to unit mass."""
        nodes, weights = np.polynomial.hermite_e.hermegauss(order)
        return cls(nodes=nodes, weights=weights / weights.sum(), order=order)


_DEFAULT_RULE_CACHE: dict[int, QuadratureRule] = {}


def default_rule(order: int = 101) -> QuadratureRule:
    rule = _DEFAULT_RULE_CACHE.get(order)
    if rule is None:
        rule = QuadratureRule.gauss_hermite(order)
        _DEFAULT_RULE_CACHE[order] = rule
    return rule


# cache of Gauss-Legendre panels on [-1, 1], keyed by order
_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    cached = _GL_CACHE.get(order)
    if cached is None:
        cached = np.polynomial.legendre.leggauss(order)
        _GL_CACHE[order] = cached
    return cached


def _check_q(q):
    """A variance, or an array of them; each must be positive and finite.

    Returns a float for scalar input and a float array otherwise.
    """
    arr = np.asarray(q, dtype=float)
    bad = ~(np.isfinite(arr) & (arr > 0.0))
    if bad.any():
        raise ValueError(f"variance must be positive and finite, got {arr[bad].flat[0]}")
    return arr if arr.ndim else float(arr)


def _segmented_expect(
    f: Callable[[np.ndarray], np.ndarray],
    q: float,
    kinks: Sequence[float],
    order: int,
) -> float:
    """Expectation of f under N(0, q), split at the given kink locations.

    Kinks are in the coordinates of f's argument; each smooth segment is
    integrated with composite Gauss-Legendre panels of at most 6 standard
    deviations so the per-panel integrand stays spectrally resolvable.
    """
    sq = math.sqrt(q)
    pts = sorted({float(k) / sq for k in kinks})
    lo = min(-_TAIL_SIGMA, (pts[0] - _TAIL_SIGMA) if pts else -_TAIL_SIGMA)
    hi = max(_TAIL_SIGMA, (pts[-1] + _TAIL_SIGMA) if pts else _TAIL_SIGMA)
    edges = [lo] + [p for p in pts if lo < p < hi] + [hi]

    gl_x, gl_w = _gauss_legendre(order)
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


def gauss_expect(
    f: Callable[[np.ndarray], np.ndarray],
    q: float,
    rule: QuadratureRule | None = None,
    kinks: Sequence[float] | None = None,
) -> float:
    """Expectation of ``f(z)`` for ``z ~ N(0, q)``.

    ``f`` must accept a numpy array and return finite values on the node
    set.  Passing ``kinks`` (locations where f or a derivative jumps, in the
    coordinates of z) switches to segment-split panel quadrature, which is
    the accurate path for piecewise-defined activations.
    """
    q = _check_q(q)
    if rule is None:
        rule = default_rule()
    if kinks is not None:
        return _segmented_expect(f, q, kinks, rule.order)
    z = math.sqrt(q) * rule.nodes
    vals = np.asarray(f(z), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("integrand returned a non-finite value at a quadrature node")
    return float(np.dot(rule.weights, vals))


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


def erf(x: float) -> float:
    return math.erf(x)


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
