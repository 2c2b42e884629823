"""Simulation of drift-plus-Poisson random-time-change systems.

Fixed-step Theta-Maruyama solvers with five internal-clock quadrature
rules, an exact jump-adapted solver for models with closed-form flow, and
a coupled-path Monte Carlo harness for strong-error and convergence-order
experiments.
"""

from .analysis import (ErrorReport, ErrorRow, MartingaleCheck, OrderFit,
                       fit_order, generator_apply, integrate_along_path,
                       local_errors, martingale_check, strong_error)
from .errors import (ConfigurationError, FitError, GridError,
                     ImplicitSolveError, ModelEvaluationError,
                     NegativeStateError, QueryError, RteSimError,
                     RunawayJumpError, UnsupportedModelError)
from .exact import BlockEnds, ExactTrajectory, exact_block, exact_trajectory
from .model import (AnalyticHooks, RteModel, ScalingSpec, apply_scaling,
                    bacteriophage_scaling, builtin_bacteriophage,
                    builtin_bacteriophage_scaled, builtin_linear_scalar,
                    builtin_quadratic_scalar, eval_drift, eval_rate,
                    eval_rates, get_model, model_names)
from .poisson import EpochWindows, PathBundle, PoissonPath
from .stepper import QUADRATURES, SolverConfig, Trajectory, solve_trajectory

__version__ = "0.1.0"

__all__ = [
    "AnalyticHooks", "BlockEnds", "ConfigurationError", "EpochWindows",
    "ErrorReport", "ErrorRow",
    "ExactTrajectory", "FitError", "GridError", "ImplicitSolveError",
    "MartingaleCheck", "ModelEvaluationError",
    "NegativeStateError", "OrderFit", "PathBundle", "PoissonPath",
    "QUADRATURES", "QueryError", "RteModel", "RteSimError",
    "RunawayJumpError", "ScalingSpec", "SolverConfig", "Trajectory",
    "UnsupportedModelError", "apply_scaling",
    "bacteriophage_scaling", "builtin_bacteriophage",
    "builtin_bacteriophage_scaled", "builtin_linear_scalar",
    "builtin_quadratic_scalar", "eval_drift", "eval_rate", "eval_rates",
    "exact_block", "exact_trajectory", "fit_order", "generator_apply",
    "get_model",
    "integrate_along_path", "local_errors", "martingale_check", "model_names",
    "solve_trajectory", "strong_error",
]
