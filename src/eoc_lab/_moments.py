"""Closed-form Gaussian moments of the activation families.

Every closed form in the package is assembled here, by one kernel
(:class:`_Kernel`) that works in the normalised coordinates of the linear
segment,

    a = tau / sqrt(q),   b = (tau + m) / sqrt(q),   x = m / sqrt(q),

and broadcasts over numpy arrays of (q, tau, m, sw2).  Writing g for the
standard-normal pdf and Phi for its cdf, the segment integrals
i_k = integral_a^b z^k g(z) dz are

    i0 = Phi(b) - Phi(a)             i1 = g(a) - g(b)
    i2 = i0 + a g(a) - b g(b)        i3 = (a^2 + 2) g(a) - (b^2 + 2) g(b)
    i4 = 3 i0 + (a^3 + 3a) g(a) - (b^3 + 3b) g(b)

and the clip puts the mass tail = 1 - Phi(b) at the level m.  For the
one-sided family phi(z) = clip(z - tau, 0, m) and z ~ N(0, q):

    E[phi^2]     = q [i2 - 2a i1 + a^2 i0 + x^2 tail]
    E[phi^4]     = q^2 [i4 - 4a i3 + 6a^2 i2 - 4a^3 i1 + a^4 i0 + x^4 tail]
    P(phi' = 1)  = i0
    V'  = sw2 (i0 - x g(b))                          chi1  = sw2 i0
    1 - V'/chi1 = x g(b) / i0
    V'' = sw2 / 2q (a g(a) - b g(b) + x (1 - b^2) g(b))
    chi1' = sw2 / 2q (a g(a) - b g(b))

The two-sided family is the one-sided value at its own threshold times 2,
by symmetry, applied once as the last multiply.  A clip with no mass in
float (g(b) = 0, b > 38.6) has clip terms 0; relu, tau = 0 and m = inf, is one.
The test suite holds every closed form against quadrature of its defining
integral, in ``tests/oracles.py``.
"""

from __future__ import annotations

import copy
import math
from functools import cached_property

import numpy as np

from .activations import CST, ActivationSpec
from .gaussian import _check_q, normal_cdf

_SQRT2PI = math.sqrt(2.0 * math.pi)


def _pdf(x):
    return np.exp(-0.5 * x * x) / _SQRT2PI


def _value(x):
    """A Python float for scalar results, the array otherwise."""
    return float(x) if np.ndim(x) == 0 else x


class _Kernel:
    """Closed forms of one activation family at variance q, over arrays.

    ``tau``, ``m`` and ``q`` broadcast against each other, and so does the
    ``sw2`` passed to the map methods.  Cached properties are free of q.
    """

    @np.errstate(over="ignore")
    def __init__(self, kind: str, tau, m, q):
        self.kind, self.q = kind, _check_q(q)
        sq = np.sqrt(self.q)
        self.a, self.b, self.x = tau / sq, (tau + m) / sq, m / sq
        self.ga, self.gb = _pdf(self.a), _pdf(self.b)
        # np.subtract keeps i0 a numpy scalar on scalar input, so 1 / i0 at
        # a saturated cell follows numpy's division rules like the arrays do
        self.i0 = np.subtract(normal_cdf(self.b), normal_cdf(self.a))
        self.tail = normal_cdf(-self.b)
        # each term in b or x has a factor g(b) or tail.  Where g(b) is 0 (b
        # may overflow to inf), b = x = a reads them 0 instead of inf * 0; a
        # scalar skips .any(), which costs a third of a scalar kernel
        massless = self.gb == 0.0
        if massless.any() if massless.ndim else massless:
            self.b = np.where(massless, self.a, self.b)
            self.x = np.where(massless, self.a, self.x)

    @classmethod
    def at(cls, spec: ActivationSpec, q) -> "_Kernel":
        return cls(spec.kind, spec.tau, spec.m, q)

    def unit(self) -> "_Kernel":
        """The same a, b and x at q = 1, so moments read in units of q:
        E[phi^2] / q, E[phi^4] / q^2, q V'' and q chi1'."""
        unit = copy.copy(self)
        unit.q = 1.0
        return unit

    def _family(self, one):
        return 2.0 * one if self.kind == CST else one

    # segment integrals beyond i0 and the shared exponential terms

    @cached_property
    def i1(self):
        return self.ga - self.gb

    @cached_property
    def i2(self):
        return self.i0 + self.a * self.ga - self.b * self.gb

    @cached_property
    def i3(self):
        a, b = self.a, self.b
        return (a * a + 2.0) * self.ga - (b * b + 2.0) * self.gb

    @cached_property
    def i4(self):
        a, b = self.a, self.b
        return 3.0 * self.i0 + (a * a * a + 3.0 * a) * self.ga - (b * b * b + 3.0 * b) * self.gb

    @cached_property
    def _edge(self):
        # a g(a) - b g(b), the q-derivative of i0 times -2q
        return self.a * self.ga - self.b * self.gb

    # moments of phi and phi'

    @property
    def second(self):
        """E[phi(z)^2]."""
        a, x = self.a, self.x
        return self._family(
            self.q * (self.i2 - 2.0 * a * self.i1 + a * a * self.i0 + x * x * self.tail)
        )

    @property
    def fourth(self):
        """E[phi(z)^4]."""
        a, x = self.a, self.x
        a2 = a * a
        linear = (
            self.i4 - 4.0 * a * self.i3 + 6.0 * a2 * self.i2
            - 4.0 * a2 * a * self.i1 + a2 * a2 * self.i0
        )
        return self._family(self.q * self.q * (linear + x * x * x * x * self.tail))

    @cached_property
    def linear(self):
        """P(phi'(z) = 1), which is E[phi'(z)^(2k)] for every k >= 1."""
        return self._family(self.i0)

    # the variance map, its derivatives and the growth factor

    def v(self, sw2, sb2):
        return sw2 * self.second + sb2

    def chi1(self, sw2):
        return sw2 * self.linear

    def v_prime(self, sw2):
        return self._family(sw2 * (self.i0 - self.x * self.gb))

    def chi1_prime(self, sw2):
        return self._family(0.5 * sw2 / self.q * self._edge)

    def v_prime2(self, sw2):
        x, b, gb = self.x, self.b, self.gb
        return self._family(0.5 * sw2 / self.q * (self._edge + x * (1.0 - b * b) * gb))

    @property
    def slope_gap(self):
        """1 - V'/chi1, which is x g(b) / i0 (0 for relu); at a critical
        init it is 1 - V'(q*) without the cancellation of 1 - V', so it
        stays exact where V' rounds to 1."""
        return self.x * self.gb / self.i0
