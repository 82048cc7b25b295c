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
A threshold with no mass in float (g(a) = 0) is a dead segment, whose terms
read 0.  With q = q0 4^k, q0 in [1, 4), E[phi^2], E[phi^4], chi1' and V''
are computed at q0 and scaled once: exactly covariant under q -> 4^k q for
any finite q > 0, subnormal included, and inf beyond the float range.  The
test suite holds every closed form against quadrature in ``tests/oracles.py``.
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


def _in_units(q):
    """(q0, k) with q = q0 4^k and q0 in [1, 4), over arrays too."""
    k = (np.frexp(q)[1] - 1) // 2
    return np.ldexp(q, -2 * k), k


def _root(q, c, z):
    """z sqrt(c q), formed at q0 and scaled once by 2^k, so that c q is
    never rounded as a subnormal and never overflows."""
    q0, k = _in_units(q)
    return np.ldexp(np.sqrt(c * q0) * z, k)


class _Kernel:
    """Closed forms of one activation family at variance q, over arrays.

    ``tau``, ``m`` and ``q`` broadcast against each other, and so does the
    ``sw2`` passed to the map methods.  Cached properties are free of q.
    """

    @np.errstate(over="ignore")
    def __init__(self, kind: str, tau, m, q):
        self.kind, self.q = kind, _check_q(q)
        self.q0, self._k = _in_units(self.q)
        sq = np.sqrt(self.q)
        self.a, self.b, self.x = tau / sq, (tau + m) / sq, m / sq
        self.ga, self.gb = _pdf(self.a), _pdf(self.b)
        # np.subtract keeps i0 a numpy scalar on scalar input, so 1 / i0 at
        # a saturated cell follows numpy's division rules like the arrays do
        self.i0 = np.subtract(normal_cdf(self.b), normal_cdf(self.a))
        self.tail = normal_cdf(-self.b)
        # terms in b or x carry g(b) or tail, and terms in a g(a), i0 or tail:
        # where g(b) is 0 (b may be inf) b = x = a, and where g(a) is 0 a = 0,
        # read them 0, not inf * 0; a scalar skips .any() (a third of a kernel)
        massless = self.gb == 0.0
        if massless.any() if massless.ndim else massless:
            self.a = np.where(self.ga == 0.0, 0.0, self.a)
            self.b = np.where(massless, self.a, self.b)
            self.x = np.where(massless, self.a, self.x)

    @classmethod
    def at(cls, spec: ActivationSpec, q) -> "_Kernel":
        return cls(spec.kind, spec.tau, spec.m, q)

    def unit(self) -> "_Kernel":
        """The same a, b and x at q = 1, so moments read in units of q:
        E[phi^2] / q, E[phi^4] / q^2, q V'' and q chi1'.  The 1/n bound is
        formed here, not at q0, where the last bit of most cells moves."""
        unit = copy.copy(self)
        unit.q, unit.q0, unit._k = 1.0, 1.0, 0
        return unit

    def _scaled(self, value, power):
        """``value``, computed at q0, times 4^(k power), the scale of q^power."""
        with np.errstate(over="ignore"):
            return np.ldexp(value, 2 * power * self._k)

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
    def _second0(self):
        # E[phi(z)^2] at q0, which is E[phi^2] / 4^k
        a, x = self.a, self.x
        return self._family(
            self.q0 * (self.i2 - 2.0 * a * self.i1 + a * a * self.i0 + x * x * self.tail)
        )

    @property
    def second(self):
        """E[phi(z)^2]."""
        return self._scaled(self._second0, 1)

    @property
    def fourth(self):
        """E[phi(z)^4]."""
        a, x = self.a, self.x
        a2 = a * a
        linear = (
            self.i4 - 4.0 * a * self.i3 + 6.0 * a2 * self.i2
            - 4.0 * a2 * a * self.i1 + a2 * a2 * self.i0
        )
        q0 = self.q0
        return self._scaled(self._family(q0 * q0 * (linear + x * x * x * x * self.tail)), 2)

    @cached_property
    def linear(self):
        """P(phi'(z) = 1), which is E[phi'(z)^(2k)] for every k >= 1."""
        return self._family(self.i0)

    # the variance map, its derivatives and the growth factor

    @np.errstate(over="ignore")
    def v(self, sw2, sb2):
        return sw2 * self.second + sb2

    def bias_variance(self, sw2):
        """q - sw2 E[phi^2], the sb2 placing a fixed point at q, scaled once."""
        return self._scaled(self.q0 - sw2 * self._second0, 1)

    def chi1(self, sw2):
        return sw2 * self.linear

    def v_prime(self, sw2):
        return self._family(sw2 * (self.i0 - self.x * self.gb))

    def chi1_prime(self, sw2):
        return self._scaled(self._family(0.5 * sw2 / self.q0 * self._edge), -1)

    def v_prime2(self, sw2):
        x, b, gb = self.x, self.b, self.gb
        return self._scaled(
            self._family(0.5 * sw2 / self.q0 * (self._edge + x * (1.0 - b * b) * gb)), -1)

    @property
    def slope_gap(self):
        """1 - V'/chi1, which is x g(b) / i0 (0 for relu); at a critical
        init it is 1 - V'(q*) without the cancellation of 1 - V', so it
        stays exact where V' rounds to 1."""
        return self.x * self.gb / self.i0
