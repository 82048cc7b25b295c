"""Solve for complete critical initialisations and locate fixed points.

A critical initialisation is pinned down by three conditions:

1. the threshold tau is set from the target zero-activation rate s at the
   chosen fixed-point variance q*,
2. the weight gain sw2 makes the perturbation growth factor chi1(q*) equal
   to 1 (the gain has a closed form, the reciprocal of the linear-region
   probability),
3. the bias variance sb2 places the fixed point: sb2 = q* - sw2 E[phi^2].

What remains is the clip level m.  ``solve_init`` chooses it by 1D bracketed
root finding so that the variance-map slope at the fixed point hits a user
target in (0, 1).  The slope equation is solved in the one-sided threshold
convention for both clipped families: the residual

    g(m) = 1 - (2 m / sqrt(2 pi q)) exp(-(t+m)^2 / 2q)
               / [erf((t+m)/sqrt(2q)) - erf(t/sqrt(2q))]  -  target,

with t = sqrt(q) Phi^{-1}(s), is what the reference parameter grids for both
families were generated from, so both families share the same solved m at
equal (s, target, q*).  The residual depends on m only through
x = m / sqrt(q*) and on s only through a = Phi^{-1}(s), so the root is found
in x and scaled back, which makes the solve the same at every q*.  The
two-sided family then receives its own threshold tau = sqrt(2 q*) erfinv(s)
and gain, which means its achieved slope at q* differs from the nominal
target; the achieved value is what is stored in ``v_prime_at_fp``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import maps
from ._moments import _Kernel, _root, _value
from .activations import CRELU, CST, RELU, ActivationSpec
from .gaussian import _check_q, erf_inv, normal_quantile

# bracket of the clip level in units of sqrt(q*), x = m / sqrt(q*)
X_BRACKET = (1e-4, 50.0)

# intervals of the sign-change scan that brackets the fixed points
_FP_GRID = 2000

# |V(root) - root| / root accepted when reporting a fixed point
_FIXED_POINT_REPORT_TOL = 1e-8

# the two ways a critical initialisation fails, in the order _critical tests
# them; its verdict indexes into this tuple
_INFEASIBLE = (
    "activation is fully saturated; chi1 cannot reach 1",
    "required bias variance is negative or nan ({sb2:.6g}); "
    "the fixed point q*={q_star} is unreachable for this activation",
)
_SATURATED = 0


class InfeasibleTargetError(ValueError):
    """Raised when no valid initialisation exists for the requested targets."""


def _bisect(f, lo: float, hi: float) -> float:
    """A root of f in the sign-changing bracket [lo, hi], to the last bit.

    An endpoint where f vanishes is returned as is.  Otherwise the bracket
    is halved until its ends are adjacent floats, and the end with the
    smaller |f| is returned.  Raises ValueError when f(lo) and f(hi) have
    the same sign.
    """
    lo, hi = float(lo), float(hi)
    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if math.copysign(1.0, f_lo) == math.copysign(1.0, f_hi):
        raise ValueError("f(lo) and f(hi) must have different signs")
    while lo < (mid := lo + 0.5 * (hi - lo)) < hi:
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if math.copysign(1.0, f_mid) == math.copysign(1.0, f_lo):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return lo if abs(f_lo) <= abs(f_hi) else hi


@dataclass(frozen=True)
class EocInit:
    """A complete critical initialisation.

    Invariants: chi1(q*) = 1 and V(q*) = q*, which hold by construction,
    sw2 and sb2 being their closed-form solutions.  The constructors
    :func:`solve_init`, :func:`init_from_m` and :func:`relu_init` refuse a
    saturated activation and a negative or nan sb2; the dataclass itself
    checks nothing, so an instance built by hand (or by ``from_dict``) is
    taken as given.
    ``v_prime_at_fp`` is the achieved slope V'(q*), which for the one-sided
    family equals the requested target up to root-finder tolerance.
    """

    spec: ActivationSpec
    q_star: float
    sw2: float
    sb2: float
    s: float
    v_prime_at_fp: float

    def to_dict(self) -> dict:
        doc = asdict(self)
        return {"activation": doc.pop("spec"), **doc}

    @classmethod
    def from_dict(cls, data: dict) -> "EocInit":
        values = {k: float(v) for k, v in data.items() if k != "activation"}
        return cls(ActivationSpec.from_dict(data["activation"]), **values)


def sparsity_threshold(kind: str, s: float, q_star):
    """Threshold inducing zero-activation rate s at variance q*.

    One-sided family: sqrt(q*) Phi^{-1}(s), which is negative below s = 1/2,
    so crelu needs s >= 1/2.  Two-sided family: sqrt(2 q*) erfinv(s).  relu
    has no threshold and pins s = 1/2.  ``q_star`` may be an array.
    """
    if not 0.0 < s < 1.0:
        raise ValueError(f"sparsity must lie in (0, 1), got {s}")
    q_star = _check_q(q_star)
    if kind == CRELU:
        if s < 0.5:
            raise ValueError(
                f"crelu needs sparsity s >= 0.5, got s={s}: below 0.5 its "
                f"threshold sqrt(q*) Phi^-1(s) would be negative"
            )
        return _value(_root(q_star, 1.0, normal_quantile(s)))
    if kind == CST:
        return _value(_root(q_star, 2.0, erf_inv(s)))
    if kind == RELU:
        return 0.0
    raise ValueError(f"unknown activation kind {kind!r}")


def _critical(k: _Kernel):
    """Gain, bias variance and verdict of the critical initialisation, per cell.

    ``k`` is the kernel at q*; sw2 = 1 / P(phi' = 1) makes chi1(q*) = 1 and
    sb2 = q* - sw2 E[phi^2] makes V(q*) = q*.  The verdict, over the arrays
    of ``k``, indexes into _INFEASIBLE the first condition a cell breaks and
    reads -1 where the initialisation exists; a nan sb2 fails as negative.
    The solver raises from it and the sweep masks with it, so both apply
    the same rules.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        sw2 = 1.0 / k.linear
        sb2 = k.bias_variance(sw2)
        verdict = np.select([np.logical_not(k.linear > 0.0), np.logical_not(sb2 >= 0.0)],
                            range(len(_INFEASIBLE)), -1)
    return sw2, sb2, verdict


def critical_gain(spec: ActivationSpec, q_star: float) -> float:
    """The weight variance making chi1(q*) = 1, in closed form."""
    sw2, _, verdict = _critical(_Kernel.at(spec, q_star))
    if verdict == _SATURATED:
        raise InfeasibleTargetError(_INFEASIBLE[_SATURATED])
    return float(sw2)


def _slope_residual(a: float, x: float, target: float) -> float:
    """Slope-at-fixed-point minus target, one-sided threshold convention.

    ``a`` is Phi^{-1}(s) and ``x`` the clip level in units of sqrt(q*).
    """
    return float(1.0 - _Kernel(CRELU, a, x, 1.0).slope_gap) - target


def _solve_clip_level(s: float, q_star: float, v_prime_target: float) -> float:
    a = normal_quantile(s)
    lo, hi = X_BRACKET
    try:
        x = _bisect(lambda x: _slope_residual(a, x, v_prime_target), lo, hi)
    except ValueError:
        raise InfeasibleTargetError(
            f"no clip level m = x sqrt(q*) with x in ({lo}, {hi}) achieves slope "
            f"{v_prime_target} at s={s}, q*={q_star}"
        ) from None
    return math.sqrt(q_star) * x


def _finish_init(spec: ActivationSpec, s: float, q_star: float) -> EocInit:
    k = _Kernel.at(spec, q_star)
    sw2, sb2, verdict = _critical(k)
    if verdict >= 0:
        raise InfeasibleTargetError(_INFEASIBLE[verdict].format(sb2=float(sb2), q_star=q_star))
    return EocInit(spec=spec, q_star=q_star, sw2=float(sw2), sb2=float(sb2), s=s,
                   v_prime_at_fp=float(k.v_prime(sw2)))


def solve_init(kind: str, s: float, q_star: float, v_prime_target: float) -> EocInit:
    """Full initialisation from targets (s, q*, slope at the fixed point).

    Valid for the two clipped families.  relu has its slope pinned to 1 by
    criticality, so there is nothing to solve; use :func:`relu_init`.
    """
    if kind == RELU:
        raise InfeasibleTargetError(
            "relu has V'(q*) = chi1(q*) = 1 identically; use relu_init(q_star)"
        )
    if not 0.0 < v_prime_target < 1.0:
        raise ValueError(f"slope target must lie in (0, 1), got {v_prime_target}")
    tau = sparsity_threshold(kind, s, q_star)
    m = _solve_clip_level(s, q_star, v_prime_target)
    spec = ActivationSpec(kind, tau, m)
    return _finish_init(spec, s, q_star)


def init_from_m(kind: str, s: float, q_star: float, m: float) -> EocInit:
    """Critical initialisation with the clip level given directly.

    Used by parameter sweeps, where the (q*, m) plane is scanned with the
    gain re-solved cell by cell.  Valid for the two clipped families; relu
    has no clip level, so use :func:`relu_init`.
    """
    if kind == RELU:
        raise ValueError(
            "init_from_m takes the clipped families crelu and cst only; "
            "relu has no clip level, use relu_init(q_star)"
        )
    tau = sparsity_threshold(kind, s, q_star)
    spec = ActivationSpec(kind, tau, m)
    return _finish_init(spec, s, q_star)


def relu_init(q_star: float) -> EocInit:
    """The unique critical relu initialisation: sw2 = 2, sb2 = 0.

    V(q) = q holds identically, so every variance is a (marginal) fixed
    point and the stored q* only anchors input scaling downstream.
    """
    return _finish_init(ActivationSpec(RELU), 0.5, q_star)


@dataclass(frozen=True)
class FixedPoint:
    q: float
    slope: float
    stable: bool


@dataclass(frozen=True)
class FixedPointReport:
    """All fixed points of V found in a search interval.

    ``degenerate_line`` flags the relu case where V(q) - q vanishes
    identically and every point of the interval is a marginal fixed point.
    """

    points: tuple[FixedPoint, ...]
    search_interval: tuple[float, float]
    degenerate_line: bool = False

    def to_dict(self) -> dict:
        return asdict(self)


def find_fixed_points(
    init: EocInit,
    lo: float | None = None,
    hi: float | None = None,
) -> FixedPointReport:
    """Locate all solutions of V(q) = q in [lo, hi].

    A sign scan on a dense grid brackets each root and bisection refines
    it to the last bit.  Every tolerance is relative to q, so the search
    is the same at every scale of q*.  The anchoring fixed point q* is
    always included.  The default [q*/20, 20 q*] is clamped to the floats.
    """
    lo = max(init.q_star / 20.0, math.ulp(0.0)) if lo is None else float(lo)
    hi = min(init.q_star * 20.0, math.nextafter(math.inf, 0.0)) if hi is None else float(hi)
    if not (0.0 < lo <= init.q_star <= hi and lo < hi):
        raise ValueError(f"need 0 < lo <= q* <= hi with lo < hi, got --lo {lo!r} (q*/20 by"
                         f" default), q* {init.q_star!r}, --hi {hi!r} (20 q* by default)")
    if not math.isfinite(hi):
        raise ValueError(f"hi must be finite, got {hi}")

    spec, sw2, sb2 = init.spec, init.sw2, init.sb2

    def resid(q):
        return maps.v_map(spec, sw2, sb2, q) - q

    with np.errstate(over="ignore"):  # only the last point, set to hi, can overflow
        qs = np.linspace(lo, hi, _FP_GRID + 1)
    vals = resid(qs)

    if np.all(np.abs(vals) <= 1e-9 * qs):
        point = FixedPoint(q=init.q_star, slope=maps.v_prime(spec, sw2, init.q_star), stable=False)
        return FixedPointReport(points=(point,), search_interval=(lo, hi), degenerate_line=True)

    # grid points where V(q) = q exactly, then a root in each interval
    # whose ends have opposite signs
    signs = np.sign(vals)
    found = qs[signs == 0.0].tolist() + [
        _bisect(resid, qs[i], qs[i + 1]) for i in np.flatnonzero(signs[:-1] * signs[1:] < 0.0)
    ]
    roots = [init.q_star]
    for root in found:
        if all(abs(root - r) > 1e-6 * root for r in roots):
            if abs(resid(root)) <= _FIXED_POINT_REPORT_TOL * root:
                roots.append(root)

    slopes = [(r, maps.v_prime(spec, sw2, r)) for r in sorted(roots)]
    points = tuple(FixedPoint(q=r, slope=k, stable=abs(k) < 1.0) for r, k in slopes)
    return FixedPointReport(points=points, search_interval=(lo, hi))
