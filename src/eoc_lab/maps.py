"""Layer-to-layer maps of the wide-network Gaussian signal picture.

For weights drawn N(0, sw2 / fan_in) and biases N(0, sb2), the pre-activation
second moment q evolves under the variance map

    V(q) = sw2 * E[phi(sqrt(q) u)^2] + sb2,   u ~ N(0, 1),

and the correlation of two inputs evolves under the two-input map R.  The
per-layer growth factor of perturbations and backpropagated errors is

    chi1(q) = sw2 * E[phi'(sqrt(q) u)^2],

and an initialisation is critical when chi1(q*) = 1 at the fixed point q* of
V.  This module provides V and its first two q-derivatives, chi1 and its
q-sensitivity, and R.  V, V', V'', chi1 and chi1' are closed forms from the
kernel in :mod:`eoc_lab._moments`; they accept a numpy array of q and
return an array of the same shape, or a float for scalar q.

Closed forms (one-sided family with threshold tau and clip m; the two-sided
family is exactly twice each expression at identical parameters; relu is the
tau = 0, m -> inf limit):

    chi1(q)  = (sw2 / 2) [erf((tau+m)/sqrt(2q)) - erf(tau/sqrt(2q))]
    V'(q)    = chi1(q) - sw2 * m / sqrt(2 pi q) * exp(-(tau+m)^2 / (2q))
    chi1'(q) = (sw2 / sqrt(8 pi q^3)) [tau e^(-tau^2/2q) - (tau+m) e^(-(tau+m)^2/2q)]
    V''(q)   = chi1'(q) - (sw2 m / sqrt(8 pi q^3)) ((tau+m)^2 / q - 1) e^(-(tau+m)^2/2q)

The chi1 / V' and chi1' / V'' offsets above are exact identities, not
approximations, and the test suite pins them to 1e-10.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from . import _moments
from ._moments import _Kernel, _value
from .activations import CST, ActivationSpec
from .gaussian import _check_q, gauss_expect


def v_map(spec: ActivationSpec, sw2: float, sb2: float, q):
    """One-layer update V(q) of the pre-activation second moment."""
    return _value(_Kernel.at(spec, q).v(sw2, sb2))


def chi1(spec: ActivationSpec, sw2: float, q):
    """Per-layer multiplicative growth factor sw2 * E[phi'(sqrt(q) u)^2]."""
    return _value(_Kernel.at(spec, q).chi1(sw2))


def v_prime(spec: ActivationSpec, sw2: float, q):
    """dV/dq in closed form."""
    return _value(_Kernel.at(spec, q).v_prime(sw2))


def chi1_prime(spec: ActivationSpec, sw2: float, q):
    """d(chi1)/dq in closed form; identically 0 for relu."""
    return _value(_Kernel.at(spec, q).chi1_prime(sw2))


def v_prime2(spec: ActivationSpec, sw2: float, q):
    """d^2 V / dq^2 in closed form; identically 0 for relu."""
    return _value(_Kernel.at(spec, q).v_prime2(sw2))


@dataclass(frozen=True)
class MapDiagnostics:
    """V, V', V'', chi1 and chi1' evaluated at a single variance q."""

    q: float
    V: float
    Vprime: float
    Vprimeprime: float
    chi1: float
    chi1prime: float

    def to_dict(self) -> dict:
        return asdict(self)


def diagnostics(spec: ActivationSpec, sw2: float, sb2: float, q: float) -> MapDiagnostics:
    """All five scalar diagnostics at q, from one kernel evaluation."""
    k = _Kernel.at(spec, q)
    return MapDiagnostics(
        q=_value(k.q),
        V=_value(k.v(sw2, sb2)),
        Vprime=_value(k.v_prime(sw2)),
        Vprimeprime=_value(k.v_prime2(sw2)),
        chi1=_value(k.chi1(sw2)),
        chi1prime=_value(k.chi1_prime(sw2)),
    )


def _check_rho(rho: float) -> float:
    rho = float(rho)
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"correlation must lie in [-1, 1], got {rho}")
    return rho


def correlation_map_precise(
    spec: ActivationSpec,
    sw2: float,
    sb2: float,
    q_star: float,
    rho: float,
) -> float:
    """R(rho) with the inner Gaussian integral done in closed form.

    Conditioning on z1 reduces the double integral to a 1D integral of
    phi(u1) * E[phi | z1], whose inner factor is the exact shifted first
    moment; the outer integrand is then piecewise smooth and segment-split
    panels recover near machine precision.  This is the route used when an
    accurate derivative of R near rho = 1 is required.
    """
    rho = _check_rho(rho)
    q_star = _check_q(q_star)
    if rho == 1.0:
        return v_map(spec, sw2, sb2, q_star) / q_star
    if rho == -1.0:
        # phi(z) phi(-z) is -phi(z)^2 for the odd family and vanishes for the
        # others, whose threshold is nonnegative
        moment = -float(_Kernel.at(spec, q_star).second) if spec.kind == CST else 0.0
        return (sw2 * moment + sb2) / q_star
    sq = math.sqrt(q_star)
    sigma = sq * math.sqrt(1.0 - rho * rho)

    def integrand(u1):
        inner = _moments.first_moment_shifted(spec, rho * u1, sigma)
        return spec.evaluate(u1) * inner

    # As |rho| -> 1 the conditional moment develops transition layers of
    # width sigma / |rho| around each kink preimage; panels must split there
    # or the layers fall between quadrature nodes.
    split_points = list(spec.kinks())
    if abs(rho) > 0.05:
        for kink in spec.kinks():
            center = kink / rho
            halfwidth = 10.0 * sigma / abs(rho)
            split_points += [center - halfwidth, center, center + halfwidth]

    moment = gauss_expect(integrand, q_star, split_points)
    return (sw2 * moment + sb2) / q_star
