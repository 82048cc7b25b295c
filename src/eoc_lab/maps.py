"""Layer-to-layer maps of the wide-network Gaussian signal picture.

For weights drawn N(0, sw2 / fan_in) and biases N(0, sb2), the pre-activation
second moment q evolves under the variance map

    V(q) = sw2 * E[phi(sqrt(q) u)^2] + sb2,   u ~ N(0, 1),

and the correlation of two inputs evolves under the two-input map R, which
``correlate`` measures by Monte Carlo and the test suite evaluates by
quadrature.  The per-layer growth factor of perturbations and
backpropagated errors is

    chi1(q) = sw2 * E[phi'(sqrt(q) u)^2],

and an initialisation is critical when chi1(q*) = 1 at the fixed point q* of
V.  This module provides V and its first two q-derivatives, chi1 and its
q-sensitivity, all closed forms from the kernel in :mod:`eoc_lab._moments`;
they accept a numpy array of q and return an array of the same shape, or a
float for scalar q.

The closed forms, in the coordinates of the linear segment, and the exact
identities between chi1 and V' and between chi1' and V'' are written out
there; the test suite holds them against quadrature.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from ._moments import _Kernel, _value
from .activations import ActivationSpec


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
