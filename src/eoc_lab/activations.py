"""Sparsity-inducing activation families.

Three pointwise nonlinearities are supported:

* ``relu``:   max(x, 0)
* ``crelu``:  a shifted and clipped ReLU.  Zero below the threshold tau,
  linear with unit slope on [tau, tau + m], constant at the clip level m
  above.  Outputs are exactly zero with probability Phi(tau / sqrt(q)) when
  the input is N(0, q), which is how a target sparsity is dialled in
  (``solver.sparsity_threshold`` inverts that law for both families).
* ``cst``:    the odd (two-sided) counterpart, a clipped soft-threshold.
  Zero on |x| < tau, sign(x) * (|x| - tau) on tau <= |x| <= tau + m and
  sign(x) * m beyond.

Derivatives are indicator functions of the linear segments.  At the kink
points themselves the derivative is defined to be 0; those points carry no
Gaussian measure, so every integral in the package is insensitive to the
choice, and 0 matches the subgradient the trainer uses.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

RELU = "relu"
CRELU = "crelu"
CST = "cst"
KINDS = (RELU, CRELU, CST)


def _check_shape(tau, m) -> None:
    """Validate a threshold and a clip level, or arrays of them."""
    tau, m = np.asarray(tau, dtype=float), np.asarray(m, dtype=float)
    if not np.all((tau >= 0.0) & np.isfinite(tau)):
        raise ValueError("tau must be a finite nonnegative threshold")
    if not np.all((m > 0.0) & np.isfinite(m)):
        raise ValueError("m must be a finite positive clip level")


@dataclass(frozen=True)
class ActivationSpec:
    """An activation family plus its shape parameters.

    ``tau`` and ``m`` are ignored for ``relu`` (stored as 0 and inf so the
    piecewise definitions coincide).  Instances are immutable value types.
    """

    kind: str
    tau: float = 0.0
    m: float = math.inf

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown activation kind {self.kind!r}")
        if self.kind == RELU:
            object.__setattr__(self, "tau", 0.0)
            object.__setattr__(self, "m", math.inf)
            return
        _check_shape(self.tau, self.m)

    def evaluate(self, x, out=None):
        """Pointwise activation value; accepts scalars or arrays.

        ``out``, a float array of x's shape, receives the values when given.
        """
        x = np.asarray(x, dtype=float)
        # one buffer, filled in place: on a batch x width array the
        # temporaries of the plain expressions cost more than the
        # arithmetic, and the operations and their order are unchanged.
        # ndarray.clip calls the clip ufunc without np.clip's dispatch; the
        # maximum and minimum ufuncs would not keep its signed zeros
        if out is None:
            out = np.empty_like(x)
        if self.kind == RELU:
            np.maximum(x, 0.0, out=out)
        elif self.kind == CRELU:
            np.subtract(x, self.tau, out=out)
            out.clip(0.0, self.m, out=out)
        else:
            np.abs(x, out=out)
            out -= self.tau
            out.clip(0.0, self.m, out=out)
            np.multiply(np.sign(x), out, out=out)
        return out if out.ndim else float(out)

    def segment_mask(self, x, out=None):
        """Boolean indicator of the open linear segments, False at the kink
        points (and at the origin for relu); accepts scalars or arrays.

        A product with the mask has the bits of the product with
        :meth:`derivative`, whose values are exactly 0.0 and 1.0.
        ``out``, a boolean array of x's shape, receives the mask when given.
        """
        x = np.asarray(x, dtype=float)
        if self.kind == RELU:
            return np.greater(x, 0.0, out=out)
        if self.kind == CST:
            x = np.abs(x)
        mask = np.greater(x, self.tau, out=out)
        mask &= x < self.tau + self.m
        return mask

    def derivative(self, x):
        """Pointwise derivative: the float cast of :meth:`segment_mask`."""
        out = self.segment_mask(x).astype(float)
        return out if out.ndim else float(out)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ActivationSpec":
        # JSON has no infinity: the strict writer prints relu's m = inf as null
        return cls(**{k: math.inf if v is None else v for k, v in data.items()})
