"""Centralised numerical tolerances.

Every module pulls its tolerance constants from the single record below so
that precision policy lives in one place instead of being scattered through
call sites.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # |V(q*) - q*| and |chi1(q*) - 1| accepted for a solved initialisation
    fixed_point: float = 1e-9
    # closed-form identities between the slope/curvature maps
    identity: float = 1e-10
    # absolute x-tolerance of bracketed root finding on the clip width
    root_xtol: float = 1e-12
    # |V(root) - root| accepted when reporting a fixed point
    fixed_point_report: float = 1e-8


DEFAULT_TOLERANCES = Tolerances()
