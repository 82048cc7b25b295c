"""Leading finite-width corrections to the layer variance.

At finite width n the layer variance is a random quantity.  Writing its
mean as q + q1 / n + O(1/n^2) and tracking the fourth-moment deviation r
that measures departure from Gaussianity, a network initialised exactly at
the fixed point (so q stays q*) obeys the coupled recursions

    r_{l+1}  = V'(q*)^2 r_l + sw2^2 (E[phi^4] - E[phi^2]^2)
    q1_{l+1} = V'(q*) q1_l + (1/2) V''(q*) r_l

with r_1 = q1_1 = 0 because the first layer is exactly Gaussian.  Both
recursions resolve in closed form (geometric sums), and for 0 < V'(q*) < 1
the correction admits the depth-independent envelope

    |q1_l| <= (sw2^2 / 2) |V''(q*)| |E[phi^4] - E[phi^2]^2|
              / ((1 - V')^2 (1 + V')),    l >= 3.

The moments E[phi^2], E[phi^4] are taken at variance q* and evaluated by the
same segment-analytic engine as the variance map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import maps
from ._moments import _Kernel
from .solver import EocInit


class DegenerateSlopeError(ValueError):
    """Raised when V'(q*) = 1 makes the geometric closed forms singular."""


@dataclass(frozen=True)
class NloState:
    """Per-layer state (q, r, q1) of the finite-width recursion."""

    layer: int
    q: float
    r: float
    q1: float


def _innovation(k: _Kernel, sw2):
    return sw2 * sw2 * (k.fourth - k.second * k.second)


def _envelope(vp, vpp, inject):
    """The bound of :func:`theorem1_bound` over arrays; nan unless 0 < V' < 1."""
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = 0.5 * np.abs(vpp) * np.abs(inject) / ((1.0 - vp) * (1.0 - vp) * (1.0 + vp))
    return np.where((vp > 0.0) & (vp < 1.0), bound, np.nan)


def fourth_moment_innovation(init: EocInit) -> float:
    """The constant injection term sw2^2 (E[phi^4] - E[phi^2]^2) at q*."""
    return float(_innovation(_Kernel.at(init.spec, init.q_star), init.sw2))


def nlo_trajectory(init: EocInit, depth: int) -> list[NloState]:
    """Iterate the coupled recursions for ``depth`` layers from (q*, 0, 0)."""
    if depth < 1:
        raise ValueError("depth must be a positive integer")
    vp = init.v_prime_at_fp
    vpp = maps.v_prime2(init.spec, init.sw2, init.q_star)
    inject = fourth_moment_innovation(init)
    states = [NloState(layer=1, q=init.q_star, r=0.0, q1=0.0)]
    r, q1 = 0.0, 0.0
    for layer in range(2, depth + 1):
        r, q1 = vp * vp * r + inject, vp * q1 + 0.5 * vpp * r
        states.append(NloState(layer=layer, q=init.q_star, r=r, q1=q1))
    return states


def _check_slope(init: EocInit) -> float:
    vp = init.v_prime_at_fp
    if abs(vp - 1.0) < 1e-12:
        raise DegenerateSlopeError("V'(q*) = 1; geometric closed form is singular")
    return vp


def lemma_r_closed_form(init: EocInit, layer: int) -> float:
    """Closed form of the fourth-moment deviation r at a given layer (>= 2)."""
    if layer < 2:
        raise ValueError("closed form for r holds for layer >= 2")
    vp = _check_slope(init)
    inject = fourth_moment_innovation(init)
    return inject * (1.0 - vp ** (2 * (layer - 1))) / (1.0 - vp * vp)


def lemma_q1_closed_form(init: EocInit, layer: int) -> float:
    """Closed form of the width-correction q1 at a given layer (>= 3).

    Summing q1_l = (1/2) V'' sum_{i=0}^{l-3} V'^i r_{l-i-1} over the closed
    form of r gives, with n = l - 2,

        q1_l = (V'' inject / 2) (1 - V'^n) (1 - V'^(n+1)) / ((1 - V') (1 - V'^2)),

    whose limit in l is :func:`theorem1_bound` up to the signs it drops.
    """
    if layer < 3:
        raise ValueError("closed form for q1 holds for layer >= 3")
    vp = _check_slope(init)
    k = _Kernel.at(init.spec, init.q_star)
    n = layer - 2
    geometric = (1.0 - vp ** n) * (1.0 - vp ** (n + 1)) / ((1.0 - vp) * (1.0 - vp * vp))
    return float(0.5 * k.v_prime2(init.sw2) * _innovation(k, init.sw2) * geometric)


def theorem1_bound(init: EocInit) -> float:
    """Depth-independent envelope on |q1_l| for l >= 3.

    Requires 0 < V'(q*) < 1; the closed-form trajectory approaches this
    value from below as depth grows.
    """
    k = _Kernel.at(init.spec, init.q_star)
    vp = init.v_prime_at_fp
    bound = float(_envelope(vp, k.v_prime2(init.sw2), _innovation(k, init.sw2)))
    if math.isnan(bound):
        raise ValueError(f"bound requires 0 < V'(q*) < 1, got {vp}")
    return bound


def log_theorem1_bound(init: EocInit) -> float:
    """log of :func:`theorem1_bound`; -inf when the curvature vanishes."""
    bound = theorem1_bound(init)
    return math.log(bound) if bound > 0.0 else -math.inf
