"""Leading finite-width corrections to the layer variance.

At finite width n the layer variance is a random quantity.  Writing its
mean as q + q1 / n + O(1/n^2) and tracking the fourth-moment deviation r
that measures departure from Gaussianity, a network initialised exactly at
the fixed point (so q stays q*) obeys the coupled recursions

    r_{l+1}  = V'(q*)^2 r_l + sw2^2 (E[phi^4] - E[phi^2]^2)
    q1_{l+1} = V'(q*) q1_l + (1/2) V''(q*) r_l

with r_1 = q1_1 = 0 because the first layer is exactly Gaussian.  Both
recursions resolve in closed form (geometric sums, which the test suite
holds the recursion against), and for 0 < V'(q*) < 1 the correction admits
the depth-independent envelope

    |q1_l| <= (sw2^2 / 2) |V''(q*)| |E[phi^4] - E[phi^2]^2|
              / ((1 - V')^2 (1 + V')),    l >= 3.

The moments are taken in units of q* (the kernel at q = 1 with the a, b
and x of q*), by the same segment-analytic engine as the variance map,
which also supplies 1 - V' directly; the bound and q1 are then scaled by
q*, and r by q*^2 (so r reads inf above q* of about 1e154).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._moments import _Kernel
from .solver import EocInit


@dataclass(frozen=True)
class NloState:
    """Per-layer state (q, r, q1) of the finite-width recursion."""

    layer: int
    q: float
    r: float
    q1: float


def _innovation(k: _Kernel, sw2):
    return sw2 * sw2 * (k.fourth - np.square(k.second))


def _envelope(k: _Kernel, sw2):
    """The bound of :func:`theorem1_bound` over the arrays of ``k``, the
    kernel at a critical q*; nan unless 0 < V' < 1, inf where it exceeds
    the float range.  1 - V' is the kernel's ``slope_gap``: where it is
    below the ulp of 1, V' itself rounds to 1 and 1 - V' would read 0."""
    u = k.unit()
    vp, gap = u.v_prime(sw2), u.slope_gap
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        bound = k.q * (
            0.5 * np.abs(u.v_prime2(sw2)) * np.abs(_innovation(u, sw2))
            / (gap * gap * (1.0 + vp))
        )
    return np.where((vp > 0.0) & (gap > 0.0), bound, np.nan)


def nlo_trajectory(init: EocInit, depth: int) -> list[NloState]:
    """Iterate the coupled recursions for ``depth`` layers from (q*, 0, 0);
    r reads inf where it exceeds the float range."""
    if depth < 1:
        raise ValueError("depth must be a positive integer")
    q = init.q_star
    u = _Kernel.at(init.spec, q).unit()
    vp = init.v_prime_at_fp
    vpp, inject = float(u.v_prime2(init.sw2)), float(_innovation(u, init.sw2))
    states = [NloState(layer=1, q=q, r=0.0, q1=0.0)]
    r, q1 = 0.0, 0.0
    for layer in range(2, depth + 1):
        r, q1 = vp * vp * r + inject, vp * q1 + 0.5 * vpp * r
        states.append(NloState(layer=layer, q=q, r=r * q * q, q1=q1 * q))
    return states


def theorem1_bound(init: EocInit) -> float:
    """Depth-independent envelope on |q1_l| for l >= 3.

    Requires 0 < V'(q*) < 1 at a critical initialisation; the recursion's
    trajectory approaches this value from below as depth grows.  Reads
    inf where the bound exceeds the float range.
    """
    bound = float(_envelope(_Kernel.at(init.spec, init.q_star), init.sw2))
    if math.isnan(bound):
        raise ValueError(f"bound requires 0 < V'(q*) < 1, got {init.v_prime_at_fp}")
    return bound


def log_theorem1_bound(init: EocInit) -> float:
    """log of :func:`theorem1_bound`, summed from the logs of its factors
    where the bound overflows, at any q* (at q* = 1 for cst s 0.85, m 25.7);
    -inf when the curvature vanishes."""
    bound = theorem1_bound(init)
    if math.isfinite(bound):
        return math.log(bound) if bound > 0.0 else -math.inf
    u, sw2 = _Kernel.at(init.spec, init.q_star).unit(), init.sw2
    return (math.log(0.5 * abs(u.v_prime2(sw2))) + math.log(abs(_innovation(u, sw2)))
            - 2.0 * math.log(u.slope_gap) - math.log1p(u.v_prime(sw2))
            + math.log(init.q_star))
