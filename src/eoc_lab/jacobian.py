"""Spectral moments of the depth-L input-output Jacobian.

The Jacobian of the hidden-layer stack is a product of per-layer factors
D W, where D is the diagonal of activation derivatives.  With q pinned at
q*, the derivative moments

    mu_k = E[phi'(sqrt(q*) u)^(2k)],   u ~ N(0, 1),

determine the first two spectral moments of J J^T through

    m1 = (sw2 mu1)^L
    m2 = (sw2 mu1)^(2L) L (mu2 / mu1^2 + 1/L - 1 - s1)
    sigma_jjt = m2 - m1^2 = L (mu2 / mu1^2 - 1 - s1)

where s1 is the first S-transform moment of the weight Gram matrix, equal
to -1 for iid Gaussian weight matrices (the only weight law this package
draws).  The reduction of m2 - m1^2 to the linear-in-L form uses
sw2 mu1 = chi1 = 1, so these moments are only offered at criticality.

For the clipped families phi' is an indicator, hence mu_k is the same
linear-region probability for every k and mu2 / mu1^2 = 1 / mu1.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from ._moments import _Kernel
from .solver import EocInit

# First S-transform moment of the Gram matrix of an iid Gaussian weight
# matrix; a fixed property of the weight law, not a computed quantity.
S1_GAUSSIAN_WEIGHTS = -1.0


@dataclass(frozen=True)
class JacobianMoments:
    """First two spectral moments of J J^T for a depth-L stack."""

    mu1: float
    mu2: float
    m1: float
    m2: float
    sigma_jjt: float
    s1: float
    depth: int

    def to_dict(self) -> dict:
        return asdict(self)


def jacobian_moments(init: EocInit, depth: int) -> JacobianMoments:
    """Spectral moments at a critical initialisation.

    Raises if chi1(q*) deviates from 1, or is nan, as the closed forms
    assume it is 1.
    """
    if depth < 1:
        raise ValueError("depth must be a positive integer")
    mu1 = float(_Kernel.at(init.spec, init.q_star).linear)
    growth = init.sw2 * mu1  # chi1(q*)
    if not abs(growth - 1.0) <= 1e-8:
        raise ValueError(
            f"spectral moments are defined here only at criticality; chi1(q*) = {growth!r}"
        )
    mu2 = mu1  # indicator derivative: identical moments of every order
    ratio = mu2 / (mu1 * mu1)
    m1 = growth ** depth
    m2 = growth ** (2 * depth) * depth * (ratio + 1.0 / depth - 1.0 - S1_GAUSSIAN_WEIGHTS)
    # at criticality the variance reduces to a form exactly linear in depth;
    # computing it that way keeps sigma(2L) = 2 sigma(L) bit-exact
    sigma = depth * (ratio - 1.0 - S1_GAUSSIAN_WEIGHTS)
    return JacobianMoments(
        mu1=mu1, mu2=mu2, m1=m1, m2=m2, sigma_jjt=sigma,
        s1=S1_GAUSSIAN_WEIGHTS, depth=depth,
    )
