"""Edge-of-chaos initialisation toolkit for sparsity-inducing activations."""

from .activations import ActivationSpec
from .finite_width import (
    NloState,
    log_theorem1_bound,
    nlo_trajectory,
    theorem1_bound,
)
from .gaussian import (
    erf_inv,
    normal_cdf,
    normal_quantile,
)
from .jacobian import JacobianMoments, jacobian_moments
from .maps import (
    MapDiagnostics,
    chi1,
    chi1_prime,
    diagnostics,
    v_map,
    v_prime,
    v_prime2,
)
from .simulator import LayerStats, SimConfig, run_backward, run_correlation, run_forward
from .solver import (
    EocInit,
    FixedPoint,
    FixedPointReport,
    InfeasibleTargetError,
    critical_gain,
    find_fixed_points,
    init_from_m,
    relu_init,
    solve_init,
    sparsity_threshold,
)
from .trainer import TrainConfig, TrainReport, train

__version__ = "0.1.0"

__all__ = [
    "ActivationSpec",
    "EocInit",
    "FixedPoint",
    "FixedPointReport",
    "InfeasibleTargetError",
    "JacobianMoments",
    "LayerStats",
    "MapDiagnostics",
    "NloState",
    "SimConfig",
    "TrainConfig",
    "TrainReport",
    "chi1",
    "chi1_prime",
    "critical_gain",
    "diagnostics",
    "erf_inv",
    "find_fixed_points",
    "init_from_m",
    "jacobian_moments",
    "log_theorem1_bound",
    "nlo_trajectory",
    "normal_cdf",
    "normal_quantile",
    "relu_init",
    "run_backward",
    "run_correlation",
    "run_forward",
    "solve_init",
    "sparsity_threshold",
    "theorem1_bound",
    "train",
    "v_map",
    "v_prime",
    "v_prime2",
]
