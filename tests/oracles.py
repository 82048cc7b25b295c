"""Quadrature routes the closed forms are held against.

They evaluate the defining integrals directly, independently of the kernel
in ``eoc_lab._moments``, and are slower and (for the tensor rule) coarser
than the library's closed forms.
"""

import functools
import math

import numpy as np

from eoc_lab.gaussian import gauss_expect
from eoc_lab.maps import correlation_map_precise


@functools.cache
def _hermite_rule():
    """Probabilists' Gauss-Hermite nodes and weights, normalised to unit mass."""
    nodes, weights = np.polynomial.hermite_e.hermegauss(101)
    return nodes, weights / weights.sum()


def v_map_quadrature(spec, sw2, sb2, q):
    """V(q) by segment-split quadrature of the defining integral."""
    moment = gauss_expect(lambda z: spec.evaluate(z) ** 2, q, spec.kinks())
    return sw2 * moment + sb2


def correlation_map(spec, sw2, sb2, q_star, rho):
    """R(rho) by a tensor product of the 1D Hermite rule.

    R(rho) = (sw2 * E[phi(u1) phi(u2)] + sb2) / q_star with
    u1 = sqrt(q*) z1 and u2 = sqrt(q*) (rho z1 + sqrt(1 - rho^2) z2) for
    independent standard normals z1, z2.  |rho| = 1 degenerates the double
    integral; those limits, and the domain check, are the library's.
    """
    if abs(rho) >= 1.0:
        return correlation_map_precise(spec, sw2, sb2, q_star, rho)
    nodes, weights = _hermite_rule()
    sq = math.sqrt(q_star)
    z1 = nodes[:, None]
    z2 = nodes[None, :]
    w = weights[:, None] * weights[None, :]
    u1 = sq * z1
    u2 = sq * (rho * z1 + math.sqrt(1.0 - rho * rho) * z2)
    moment = float(np.sum(w * spec.evaluate(u1) * spec.evaluate(u2)))
    return (sw2 * moment + sb2) / q_star


def dense_forward(init, x0, depth, rng):
    """Per-layer (h, x, w) of one network drawn with explicit weights.

    The simulator's protocol, written out: layer 1 has N(0, 1/N) weights and
    no bias, later layers N(0, sw2/N) weights and N(0, sb2) biases, and
    every pre-activation is activated before the next layer.
    """
    n = x0.shape[1]
    x = x0
    out = []
    for layer in range(1, depth + 1):
        if layer == 1:
            w = rng.normal(0.0, math.sqrt(1.0 / n), size=(n, n))
            b = np.zeros(n)
        else:
            w = rng.normal(0.0, math.sqrt(init.sw2 / n), size=(n, n))
            b = rng.normal(0.0, math.sqrt(init.sb2), size=n)
        h = x @ w.T + b
        x = init.spec.evaluate(h)
        out.append((h, x, w))
    return out


def dense_backward(init, states, delta):
    """Per-layer error moments, bottom layer first, of the top error delta
    pulled down through the explicit weights of ``dense_forward``."""
    v_hat = [float(np.mean(delta * delta))]
    for (h, _, _), (_, _, w) in zip(states[-2::-1], states[:0:-1]):
        delta = (delta @ w) * init.spec.derivative(h)
        v_hat.append(float(np.mean(delta * delta)))
    return v_hat[::-1]
