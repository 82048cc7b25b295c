"""Independent routes the library is held against.

The quadrature routes evaluate the defining integrals directly, with the
library's normal CDF and domain checks but none of its closed-form kernel,
and are slower and (for the tensor rule) coarser than the closed forms.
The dense samplers draw explicit weight matrices, and ``backward_keeping_h``
is the backward pass that keeps every layer's forward draw instead of
rebuilding it.  The lemma closed forms sum the
finite-width recursions geometrically from the injection term
``fourth_moment_innovation``, and ``iterated_correlation`` is the
infinite-width correlation trajectory the simulator is checked against.
``write_csv_rowwise`` is the row-at-a-time CSV writer the CLI's streamed
one is held to, byte for byte.  ``sgd_losses_at_logit_scale`` is the
trainer's SGD loop with its logits scaled and its backpropagation written
out one layer at a time.
"""

import functools
import math
from dataclasses import replace

import numpy as np

from eoc_lab import trainer
from eoc_lab._moments import _Kernel
from eoc_lab._streams import _philox
from eoc_lab.activations import CRELU, RELU
from eoc_lab.finite_width import _innovation
from eoc_lab.gaussian import _check_q, normal_cdf
from eoc_lab.maps import v_prime2
from eoc_lab.simulator import (
    _STREAM_COMPLEMENT,
    _STREAM_TOP_ERROR,
    _STREAM_WEIGHTS,
    _check_rho,
    _design,
    _draw_inputs,
    _in_safe_units,
    _layer_rng,
    _layer_stats,
)

_SQRT2PI = math.sqrt(2.0 * math.pi)

# Standard-normal mass beyond 12 sigma is ~ 2e-33; activation integrands are
# bounded or of low polynomial growth so truncating panels there is exact at
# double precision.
_TAIL_SIGMA = 12.0

# Gauss-Legendre nodes and weights of one panel
_GL_X, _GL_W = np.polynomial.legendre.leggauss(80)


def _pdf(x):
    return np.exp(-0.5 * x * x) / _SQRT2PI


def gauss_expect(f, q, kinks=()):
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

    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        if b - a <= 0:
            continue
        n_panels = max(1, math.ceil((b - a) / 6.0))
        panel_edges = np.linspace(a, b, n_panels + 1)
        for pa, pb in zip(panel_edges[:-1], panel_edges[1:]):
            half = 0.5 * (pb - pa)
            x = 0.5 * (pa + pb) + half * _GL_X
            vals = np.asarray(f(sq * x), dtype=float)
            if not np.all(np.isfinite(vals)):
                raise ValueError("integrand returned a non-finite value")
            total += half * float(np.sum(_GL_W * _pdf(x) * vals))
    return total


def kinks(spec):
    """Input locations where the activation is not differentiable."""
    if spec.kind == RELU:
        return (0.0,)
    if spec.kind == CRELU:
        return (spec.tau, spec.tau + spec.m)
    return (-spec.tau - spec.m, -spec.tau, spec.tau, spec.tau + spec.m)


def _clip_mean(tau, m, mu, sigma):
    """E[clip(x - tau, 0, m)], x ~ N(mu, sigma^2): with x = mu + sigma z and the
    kinks at z = a, b, it is sigma * int_a^b (z - a) g(z) dz + m P(z > b)."""
    a = (tau - mu) / sigma
    b = (tau + m - mu) / sigma
    segment = _pdf(a) - _pdf(b) - a * (normal_cdf(b) - normal_cdf(a))
    return sigma * segment + m * normal_cdf(-b)


def first_moment_shifted(spec, mu, sigma):
    """E[phi(x)] for x ~ N(mu, sigma^2), vectorised over mu.

    This is the exact inner integral of the two-input correlation map once
    the second Gaussian coordinate has been integrated out.
    """
    mu = np.asarray(mu, dtype=float)
    if spec.kind == RELU:
        return mu * normal_cdf(mu / sigma) + sigma * _pdf(mu / sigma)
    pos = _clip_mean(spec.tau, spec.m, mu, sigma)
    if spec.kind == CRELU:
        return pos
    # the odd family: phi(x) = clip(x - tau) - clip(-x - tau)
    return pos - _clip_mean(spec.tau, spec.m, -mu, sigma)


@functools.cache
def _hermite_rule():
    """Probabilists' Gauss-Hermite nodes and weights, normalised to unit mass."""
    nodes, weights = np.polynomial.hermite_e.hermegauss(101)
    return nodes, weights / weights.sum()


def v_map_quadrature(spec, sw2, sb2, q):
    """V(q) by segment-split quadrature of the defining integral."""
    moment = gauss_expect(lambda z: spec.evaluate(z) ** 2, q, kinks(spec))
    return sw2 * moment + sb2


def correlation_map(spec, sw2, sb2, q_star, rho):
    """R(rho) by a tensor product of the 1D Hermite rule.

    R(rho) = (sw2 * E[phi(u1) phi(u2)] + sb2) / q_star with
    u1 = sqrt(q*) z1 and u2 = sqrt(q*) (rho z1 + sqrt(1 - rho^2) z2) for
    independent standard normals z1, z2.  |rho| = 1 degenerates the double
    integral; those limits and the domain check are the precise route's.
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


def correlation_map_precise(spec, sw2, sb2, q_star, rho):
    """R(rho) with the inner Gaussian integral done in closed form.

    Conditioning on z1 reduces the double integral to a 1D integral of
    phi(u1) * E[phi | z1], whose inner factor is the exact shifted first
    moment; the outer integrand is then piecewise smooth and segment-split
    panels recover near machine precision.
    """
    rho = _check_rho(rho)
    q_star = _check_q(q_star)
    if rho == 1.0:
        return v_map_quadrature(spec, sw2, sb2, q_star) / q_star
    if rho == -1.0:
        split_points = [*kinks(spec), *(-k for k in kinks(spec))]
        moment = gauss_expect(lambda z: spec.evaluate(z) * spec.evaluate(-z), q_star, split_points)
        return (sw2 * moment + sb2) / q_star
    sq = math.sqrt(q_star)
    sigma = sq * math.sqrt(1.0 - rho * rho)
    # As |rho| -> 1 the conditional moment develops transition layers of
    # width sigma / |rho| around each kink preimage; panels must split there
    # or the layers fall between quadrature nodes.
    split_points = list(kinks(spec))
    if abs(rho) > 0.05:
        for kink in kinks(spec):
            center = kink / rho
            halfwidth = 10.0 * sigma / abs(rho)
            split_points += [center - halfwidth, center, center + halfwidth]

    moment = gauss_expect(
        lambda u1: spec.evaluate(u1) * first_moment_shifted(spec, rho * u1, sigma),
        q_star, split_points)
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


def _root_and_inverse_root(a):
    """((U sqrt(lam keep)) U^T, U keep / sqrt(lam)) of a a^T = U diag(lam)
    U^T: the symmetric root of the Gram matrix and a pseudo-inverse root,
    both formed at once, with the rank rule of ``simulator._gram_factor``."""
    lam, u = np.linalg.eigh(a @ a.T)
    keep = lam > lam[-1] * lam.size * np.finfo(float).eps
    root = np.sqrt(np.where(keep, lam, 1.0))
    return (u * np.where(keep, root, 0.0)) @ u.T, u * np.where(keep, 1.0 / root, 0.0)


@_in_safe_units
def backward_keeping_h(config):
    """``run_backward`` written out with every layer's pre-activations h
    kept from the forward pass and its factors (root, w) formed at once,
    where the library keeps one eigenbasis, forms root and w where they
    are used and draws h again on the way down."""
    n = config.width
    init = config.init
    stats, states = [], []
    x = _draw_inputs(config)
    for layer in range(1, config.depth + 1):
        root, w = _root_and_inverse_root(_design(init, layer, x))
        z = _layer_rng(config.seed, layer, _STREAM_WEIGHTS).standard_normal((config.batch, n))
        h = root @ z
        x = init.spec.evaluate(h)
        stats.append(_layer_stats(init, layer, h, x))
        states.append((h, w))

    rng = _layer_rng(config.seed, config.depth + 1, _STREAM_TOP_ERROR)
    delta = rng.normal(0.0, 1.0, size=(config.batch, config.width))
    v_hat = [float(np.mean(delta * delta))]
    scale = math.sqrt(init.sw2 / n)
    for layer in range(config.depth, 1, -1):
        h, w = states.pop()
        h_below = states[-1][0]
        a = _design(init, layer, init.spec.evaluate(h_below))
        root_delta, _ = _root_and_inverse_root(delta)
        fresh = _layer_rng(config.seed, layer, _STREAM_COMPLEMENT).standard_normal(
            (n + 1, config.batch)) @ root_delta
        theta_delta = a.T @ (w @ (w.T @ (h @ delta.T - a @ fresh))) + fresh
        delta = scale * theta_delta[:n].T * init.spec.segment_mask(h_below)
        v_hat.append(float(np.mean(delta * delta)))

    return [replace(st, v_hat=v) for st, v in zip(stats, reversed(v_hat))]


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


def fourth_moment_innovation(init):
    """The constant injection term sw2^2 (E[phi^4] - E[phi^2]^2) at q*."""
    return float(_innovation(_Kernel.at(init.spec, init.q_star), init.sw2))


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


def sgd_losses_at_logit_scale(config, scale):
    """The per-step losses of ``trainer.train``'s SGD loop on ``config``,
    with the logits multiplied by ``scale`` and the biases trained at
    lr / scale^2: the same data, initial parameters and batch order."""
    x, y = trainer.load_dataset(config)
    x = trainer.normalize_inputs(x, config.init.q_star)
    (x_tr, y_tr), _, _ = trainer.train_val_test_split(x, y, config.seed)
    spec = config.init.spec
    params = trainer.init_params(config)
    shuffle_rng = _philox(config.seed, 3000)
    losses = []
    for _ in range(config.epochs):
        order = shuffle_rng.permutation(len(x_tr))
        for start in range(0, len(x_tr), config.batch):
            idx = order[start : start + config.batch]
            x_b, y_b = x_tr[idx], y_tr[idx]
            rows = np.arange(len(y_b))
            *hidden, (logits, _) = trainer.forward(params, spec, x_b)
            p = scale * logits
            p -= p.max(axis=1, keepdims=True)
            p = np.exp(p)
            p /= p.sum(axis=1, keepdims=True)
            losses.append(float(-np.mean(np.log(p[rows, y_b] + 1e-300))))
            # the loss's gradient with respect to the unscaled logits
            delta = p
            delta[rows, y_b] -= 1.0
            delta /= len(y_b)
            delta *= scale
            inputs = [x_b] + [a for _, a in hidden]
            for layer in reversed(range(len(params))):
                w, b = params[layer]
                grad_w, grad_b = delta.T @ inputs[layer], delta.sum(axis=0)
                if layer:
                    delta = (delta @ w) * spec.segment_mask(hidden[layer - 1][0])
                w -= config.lr * grad_w
                b -= config.lr / (scale * scale) * grad_b
    return losses
