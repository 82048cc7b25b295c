"""Independent routes the library is held against.

The quadrature routes evaluate the defining integrals directly,
independently of the kernel in ``eoc_lab._moments``, and are slower and
(for the tensor rule) coarser than the library's closed forms.  The dense
samplers draw explicit weight matrices.  The lemma closed forms sum the
finite-width recursions geometrically, and ``iterated_correlation`` is the
infinite-width correlation trajectory the simulator is checked against.
``write_csv_rowwise`` is the row-at-a-time CSV writer the CLI's streamed
one is held to, byte for byte.
"""

import functools
import math

import numpy as np

from eoc_lab.finite_width import fourth_moment_innovation
from eoc_lab.gaussian import gauss_expect
from eoc_lab.maps import correlation_map_precise, v_prime2


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


def iterated_correlation(init, rho0, depth):
    """rho repeatedly passed through the one-layer map, after an affine
    first layer that leaves it unchanged."""
    rho = float(rho0)
    out = [rho]
    for _ in range(depth - 1):
        rho = correlation_map_precise(init.spec, init.sw2, init.sb2, init.q_star, rho)
        rho = min(1.0, max(-1.0, rho))
        out.append(rho)
    return out


class DegenerateSlopeError(ValueError):
    """Raised when V'(q*) = 1 makes the geometric closed forms singular."""


def _check_slope(init):
    vp = init.v_prime_at_fp
    if abs(vp - 1.0) < 1e-12:
        raise DegenerateSlopeError("V'(q*) = 1; geometric closed form is singular")
    return vp


def lemma_r_closed_form(init, layer):
    """Closed form of the fourth-moment deviation r at a given layer (>= 2)."""
    if layer < 2:
        raise ValueError("closed form for r holds for layer >= 2")
    vp = _check_slope(init)
    inject = fourth_moment_innovation(init)
    return inject * (1.0 - vp ** (2 * (layer - 1))) / (1.0 - vp * vp)


def lemma_q1_closed_form(init, layer):
    """Closed form of the width-correction q1 at a given layer (>= 3).

    Summing q1_l = (1/2) V'' sum_{i=0}^{l-3} V'^i r_{l-i-1} over the closed
    form of r gives, with n = l - 2,

        q1_l = (V'' inject / 2) (1 - V'^n) (1 - V'^(n+1)) / ((1 - V') (1 - V'^2)),

    whose limit in l is ``theorem1_bound`` up to the signs it drops.
    """
    if layer < 3:
        raise ValueError("closed form for q1 holds for layer >= 3")
    vp = _check_slope(init)
    vpp = v_prime2(init.spec, init.sw2, init.q_star)
    n = layer - 2
    geometric = (1.0 - vp ** n) * (1.0 - vp ** (n + 1)) / ((1.0 - vp) * (1.0 - vp * vp))
    return 0.5 * vpp * fourth_moment_innovation(init) * geometric


def _format_cell(value):
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return "nan" if math.isnan(value) else repr(value)
    if isinstance(value, (int, np.integer)):
        return repr(int(value))
    return str(value)


def write_csv_rowwise(path, header, rows):
    """A CSV of raw values, one formatting call per cell and one write per
    row."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_format_cell(v) for v in row) + "\n")
