"""Finite-width Monte Carlo validation of the infinite-width predictions.

Networks are instantiated exactly as the theory assumes: equal hidden
widths, weights N(0, sw2 / N) and biases N(0, sb2) from layer 2 onward, and
the first-layer convention of the theory's experimental protocol: inputs
are drawn N(0, q*) and fed raw (nothing is activated before the first
weights), with the first layer using a variance-preserving 1/N weight law
and zero biases so its pre-activation already sits at q*.  Every hidden
pre-activation, the first included, then passes through the activation
before feeding the next layer, which is what keeps the variance recursion
at its fixed point from layer 2 onward.

No run builds a weight matrix.  Given the activations X (rows x N)
feeding a layer, its N pre-activation columns are independent
N(0, C) vectors with C = sw2/N X X^T + sb2 1 1^T (conditional
Gaussianity), so each layer factors the rows x rows matrix C with one
symmetric eigendecomposition and draws the columns from its symmetric
root, which no eigenbasis choice moves: rows x N normals instead of N x N,
exact in law and continuous in the init.  ``run_backward`` pulls an error
down through the same layers by drawing the weights' product with the
error from their law given the forward draw h (Gaussian conditioning),
from the same factor and again without the N x N matrix.  It keeps only
one eigenbasis of each layer, rows x rows and rows floats, and rebuilds h on
the way down from it and the layer's keyed stream, the same expression on
the same operands as the forward draw, so bit for bit.

Randomness comes from counter-based Philox streams keyed by (seed, layer,
stream tag), so runs are bit-reproducible and changing the width re-draws a
layer without reshuffling any other layer's stream.

Every run is computed in units of q*, with lengths scaled by the power of
two that brings q* to q0 in [1, 4) (``_in_safe_units``): the same network
and draw, so a run at q0 4^k is the run at q0 with q_hat scaled by 4^k.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import maps
from ._streams import _check_seed, _philox
from .gaussian import _check_q
from .solver import EocInit

_STREAM_INPUT = 0
_STREAM_WEIGHTS = 1
_STREAM_TOP_ERROR = 3
_STREAM_PAIR = 4
_STREAM_COMPLEMENT = 5

_EPS = np.finfo(float).eps
_LARGEST = float(np.finfo(float).max)
# a run whose variances are too far apart is refused where the larger
# one's sum of batch x width squares could come within 2^8 of overflow
_TOP_EXPONENT = 1016


def _layer_rng(seed: int, layer: int, stream: int) -> np.random.Generator:
    return _philox(seed, (layer << 8) | stream)


@dataclass(frozen=True)
class SimConfig:
    """Configuration of one Monte Carlo run."""

    init: EocInit
    depth: int
    width: int
    batch: int = 64
    seed: int = 0
    # variance of the drawn inputs; defaults to q*, override to probe the
    # map away from its fixed point
    input_variance: float | None = None

    def __post_init__(self):
        if self.depth < 2:
            raise ValueError("depth must be at least 2")
        if self.width < 8:
            raise ValueError("width must be at least 8")
        if self.batch < 1:
            raise ValueError("batch must be at least 1")
        _check_seed(self.seed)
        if self.input_variance is not None:
            _check_q(self.input_variance)

    def to_dict(self) -> dict:
        return {**asdict(self), "init": self.init.to_dict()}


@dataclass(frozen=True)
class LayerStats:
    """Empirical per-layer statistics of one run."""

    layer: int
    q_hat: float
    sparsity_hat: float
    chi1_hat: float
    v_hat: float | None = None
    rho_hat: float | None = None


CSV_COLUMNS = tuple(f.name for f in fields(LayerStats))


def _design(init: EocInit, layer: int, x: np.ndarray) -> np.ndarray:
    """The matrix A with h = A theta for a layer fed by the activations x,
    theta being the layer's standard-normal parameters: [sqrt(sw2/N) x,
    sqrt(sb2) 1] over weights and bias, or sqrt(1/N) x for layer 1."""
    n = x.shape[1]
    if layer == 1:
        return math.sqrt(1.0 / n) * x
    # filled in place: np.hstack costs ten times the scaling itself here
    a = np.empty((x.shape[0], n + 1))
    np.multiply(x, math.sqrt(init.sw2 / n), out=a[:, :n])
    a[:, n] = math.sqrt(init.sb2)
    return a


def _gram_factor(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The eigenbasis (U, s) of the Gram matrix a a^T = U diag(lam) U^T,
    from one eigh: s = sqrt(lam) on the kept directions and 0 on the others.

    ``keep`` is the rule ``np.linalg.matrix_rank`` applies to a symmetric
    matrix, lam > lam_max rows eps: the directions it drops carry round-off,
    not variance, so duplicate rows, a dead layer (a = 0 keeps nothing) and
    more rows than columns need no special case.
    """
    lam, u = np.linalg.eigh(a @ a.T)
    keep = lam > lam[-1] * lam.size * _EPS
    return u, np.sqrt(np.where(keep, lam, 0.0))


def _root(u: np.ndarray, s: np.ndarray) -> np.ndarray:
    """(u s) u^T, the symmetric root of the kept part of the Gram matrix:
    unique whatever eigenbasis and signs eigh returns."""
    return (u * s) @ u.T


def _draw(config: SimConfig, layer: int, u: np.ndarray, s: np.ndarray) -> np.ndarray:
    """A layer's pre-activations ``_root(u, s)`` Z, Z the (rows, width)
    standard normals of the layer's keyed stream: the same bits whenever called."""
    z = _layer_rng(config.seed, layer, _STREAM_WEIGHTS).standard_normal(
        (u.shape[0], config.width))
    return _root(u, s) @ z


def _conditional_pass(config: SimConfig, x: np.ndarray):
    """Propagate a (rows, width) input; yields (layer, h, x, u, s).

    Each layer's pre-activations are drawn from their law given the
    activations below: with A = ``_design(...)`` and (u, s) the eigenbasis
    of A A^T from ``_gram_factor``, the columns of h = (u s u^T) Z for
    standard normal (rows, N) Z have covariance A A^T up to the round-off
    directions the rank rule drops.  (u, s), rows x rows and rows floats, is
    all that ``run_backward`` keeps of a layer: ``_draw`` draws h again from
    it, and ``_pull_down`` forms w = u / s on the kept directions.  Z is not
    kept past its layer, nor the input past layer 1.
    """
    init = config.init
    for layer in range(1, config.depth + 1):
        u, s = _gram_factor(_design(init, layer, x))
        h = _draw(config, layer, u, s)
        x = init.spec.evaluate(h)
        yield layer, h, x, u, s


def _layer_stats(init: EocInit, layer: int, h: np.ndarray, x: np.ndarray) -> LayerStats:
    """The forward statistics of one layer's pre-activations h and
    activations x, the row every run reports."""
    q_hat = float(np.mean(h * h))
    # a fully dead layer has no growth factor; chi1 -> 0 as q -> 0 for a
    # positive threshold, so report the limit instead of failing
    chi1_hat = maps.chi1(init.spec, init.sw2, q_hat) if q_hat > 0.0 else 0.0
    return LayerStats(
        layer=layer, q_hat=q_hat, sparsity_hat=float(np.mean(x == 0.0)), chi1_hat=chi1_hat
    )


def _draw_inputs(config: SimConfig) -> np.ndarray:
    rng = _layer_rng(config.seed, 0, _STREAM_INPUT)
    var = config.init.q_star if config.input_variance is None else config.input_variance
    return rng.normal(0.0, math.sqrt(var), size=(config.batch, config.width))


def _in_safe_units(run):
    """``run``, computed with every length scaled by 2^-k, k = (e_q* + e_v)
    // 4 from the binary exponents of q* and the input variance (q*'s own
    without one, so that q* / 4^k is q0 in [1, 4)).  A power of two moves
    only exponents: the scaled run is the same network and the same draw,
    every statistic but q_hat is a ratio of lengths, and q_hat is scaled
    back by 4^k.  A q_hat beyond the float range raises ValueError, and so
    do variances too far apart: where the larger one times batch x width
    could reach 2^1016 even so.
    """

    @functools.wraps(run)
    def scaled_run(config: SimConfig, *args) -> list[LayerStats]:
        init, variance = config.init, config.input_variance
        e_q = math.frexp(init.q_star)[1] - 1  # 2^e_q <= q* < 2^(e_q + 1)
        e_v = e_q if variance is None else math.frexp(variance)[1] - 1
        k = (e_q + e_v) // 4
        cells = config.batch * config.width
        if max(e_q, e_v) + 1 - 2 * k + (cells - 1).bit_length() > _TOP_EXPONENT:
            raise ValueError(
                f"q* = {init.q_star!r} and the input variance {variance!r} are too far"
                " apart for one run to keep both in the float range")
        spec = replace(init.spec, tau=math.ldexp(init.spec.tau, -k),
                       m=math.ldexp(init.spec.m, -k))
        init = replace(init, spec=spec, q_star=math.ldexp(init.q_star, -2 * k),
                       sb2=math.ldexp(init.sb2, -2 * k))
        variance = None if variance is None else math.ldexp(variance, -2 * k)
        stats = []
        for st in run(replace(config, init=init, input_variance=variance), *args):
            try:
                stats.append(replace(st, q_hat=math.ldexp(st.q_hat, 2 * k)))
            except OverflowError:
                raise ValueError(
                    f"layer {st.layer}'s measured variance exceeds the largest float {_LARGEST!r}"
                ) from None
        return stats

    return scaled_run


@_in_safe_units
def run_forward(config: SimConfig) -> list[LayerStats]:
    """Forward propagation statistics, deterministic in the seed."""
    return [_layer_stats(config.init, layer, h, x)
            for layer, h, x, *_ in _conditional_pass(config, _draw_inputs(config))]


def _pull_down(a: np.ndarray, u: np.ndarray, s: np.ndarray, h_delta: np.ndarray,
               delta: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """theta delta^T for one layer, drawn from its law given the layer's
    forward draw h = A theta, from h_delta = h delta^T (A and the
    eigenbasis (u, s) of A A^T as ``_conditional_pass`` used and yielded
    them).

    With w = u / s on the kept directions (0 on the others), the draw fixed
    theta along V = A^T w, as V^T theta = w^T h, so theta = V w^T h +
    (I - V V^T) theta' with theta' fresh; and theta' delta^T has the law
    of F = Y L for a standard normal Y and L the symmetric root of
    delta delta^T.  Hence theta delta^T = A^T w (w^T (h delta^T - A F)) +
    F, with one fresh normal per parameter row and error row, no solve and
    no w w^T formed (w reads the eigenbasis only through it); A (theta
    delta^T) = h delta^T holds to round-off because the forward draw and
    this step keep the same directions, those where s > 0.
    """
    fresh = rng.standard_normal((a.shape[1], delta.shape[0])) @ _root(*_gram_factor(delta))
    w = u * np.divide(1.0, s, out=np.zeros_like(s), where=s > 0.0)
    theta_delta = a.T @ (w @ (w.T @ (h_delta - a @ fresh)))
    theta_delta += fresh
    return theta_delta


@_in_safe_units
def run_backward(config: SimConfig) -> list[LayerStats]:
    """Forward statistics plus the second moment of a backpropagated error.

    A synthetic unit-variance error vector is injected at the top layer and
    pulled down through transposed weights and the activation-derivative
    diagonal; no loss function is involved.  Each layer's weights times the
    error come from ``_pull_down``, given the forward draw.  Per-layer state
    is one eigenbasis (u, s), batch x batch and batch floats, popped
    top-down, and only the top layer's h outlives the forward pass: each
    layer below is drawn again once by ``_draw`` from (u, s), bit for bit the
    forward draw, and its activations, which A is built from, are
    recomputed from it.  A batch x width array is let go as soon as it is
    not read again, so the way down holds the error, one h and the pull-down
    arrays of one layer.
    """
    n = config.width
    init = config.init
    stats, bases = [], []
    for layer, h, x, u, s in _conditional_pass(config, _draw_inputs(config)):
        stats.append(_layer_stats(init, layer, h, x))
        bases.append((u, s))
    del x

    rng = _layer_rng(config.seed, config.depth + 1, _STREAM_TOP_ERROR)
    delta = rng.normal(0.0, 1.0, size=(config.batch, config.width))
    v_hat = [float(np.mean(delta * delta))]
    scale = math.sqrt(init.sw2 / n)
    for layer in range(config.depth, 1, -1):
        h_delta = h @ delta.T
        del h
        (u, s), (u_below, s_below) = bases.pop(), bases[-1]
        h = _draw(config, layer - 1, u_below, s_below)
        # theta delta^T is not bound: it goes once its error rows are scaled
        delta = scale * _pull_down(
            _design(init, layer, init.spec.evaluate(h)), u, s, h_delta, delta,
            _layer_rng(config.seed, layer, _STREAM_COMPLEMENT),
        )[:n].T * init.spec.segment_mask(h)
        v_hat.append(float(np.mean(delta * delta)))

    return [replace(st, v_hat=v) for st, v in zip(stats, reversed(v_hat))]


def _check_rho(rho: float) -> float:
    rho = float(rho)
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"correlation must lie in [-1, 1], got {rho}")
    return rho


def _correlated_input_pair(config: SimConfig, rho0: float):
    """Batch of input pairs with exact empirical correlation rho0.

    Each row pair is built from an orthonormalised basis so the sample
    correlation and the sample second moment match their targets exactly,
    not just in expectation.
    """
    rng = _layer_rng(config.seed, 0, _STREAM_PAIR)
    n = config.width
    scale = math.sqrt(n * config.init.q_star)
    a = rng.normal(size=(config.batch, n))
    b = rng.normal(size=(config.batch, n))
    a_hat = a / np.linalg.norm(a, axis=1, keepdims=True)
    b_perp = b - np.sum(b * a_hat, axis=1, keepdims=True) * a_hat
    b_hat = b_perp / np.linalg.norm(b_perp, axis=1, keepdims=True)
    xa = scale * a_hat
    xb = scale * (rho0 * a_hat + math.sqrt(1.0 - rho0 * rho0) * b_hat)
    return xa, xb


@_in_safe_units
def run_correlation(config: SimConfig, rho0: float) -> list[LayerStats]:
    """Track the empirical correlation of two inputs through shared weights.

    The two input batches ride through the network stacked into one
    forward pass, so each layer's pre-activations are drawn jointly for all
    rows, as shared weights would give.  Both are drawn at q*, so a config
    with an ``input_variance`` is refused.
    """
    if config.input_variance is not None:
        raise ValueError("run_correlation draws its inputs at q*: input_variance must be None")
    xa, xb = _correlated_input_pair(config, _check_rho(rho0))
    stacked = np.concatenate([xa, xb], axis=0)

    out = []
    # consumed layer by layer: only the current layer's draw is alive
    for layer, h, x, *_ in _conditional_pass(config, stacked):
        ha, hb = h[: config.batch], h[config.batch :]
        dot = np.sum(ha * hb, axis=1)
        qa = np.sum(ha * ha, axis=1)
        qb = np.sum(hb * hb, axis=1)
        denom = np.sqrt(qa * qb)
        # a dead pair has no defined correlation; report nan rather than crash
        rho_rows = np.divide(dot, denom, out=np.full_like(dot, np.nan), where=denom > 0)
        out.append(replace(_layer_stats(config.init, layer, h, x),
                           rho_hat=float(np.mean(rho_rows))))
    return out

