"""Simulation of drift-plus-Poisson random-time-change systems.

Fixed-step Theta-Maruyama solvers with five internal-clock quadrature
rules, an exact jump-adapted solver for models with closed-form flow, and
a coupled-path Monte Carlo harness for strong-error and convergence-order
experiments.
"""

from .analysis import (ErrorReport, ErrorRow, LocalErrorSample,
                       MartingaleCheck, OrderFit, fit_order, generator_apply,
                       integrate_along_path, local_errors, martingale_check,
                       strong_error)
from .errors import (ConfigurationError, FitError, GridError,
                     ImplicitSolveError, ModelEvaluationError,
                     NegativeStateError, QueryError, RteSimError,
                     RunawayJumpError, UnsupportedModelError)
from .exact import (BlockEnds, ExactTrajectory, ReferenceSpec, exact_block,
                    exact_trajectory, next_jump, reference_trajectory)
from .model import (AnalyticHooks, RteModel, ScalingSpec, apply_scaling,
                    bacteriophage_scaling, builtin_bacteriophage,
                    builtin_bacteriophage_scaled, builtin_linear_scalar,
                    builtin_quadratic_scalar, eval_drift, eval_rate,
                    eval_rates, get_model, model_names)
from .poisson import PathBundle, PoissonPath
from .stepper import (QUADRATURES, SolverConfig, StepperState, Trajectory,
                      phi3, solve_trajectory, step)

__version__ = "0.1.0"

__all__ = [
    "AnalyticHooks", "BlockEnds", "ConfigurationError", "ErrorReport",
    "ErrorRow",
    "ExactTrajectory", "FitError", "GridError", "ImplicitSolveError",
    "LocalErrorSample", "MartingaleCheck", "ModelEvaluationError",
    "NegativeStateError", "OrderFit", "PathBundle", "PoissonPath",
    "QUADRATURES", "QueryError", "ReferenceSpec", "RteModel", "RteSimError",
    "RunawayJumpError", "ScalingSpec", "SolverConfig", "StepperState",
    "Trajectory", "UnsupportedModelError", "apply_scaling",
    "bacteriophage_scaling", "builtin_bacteriophage",
    "builtin_bacteriophage_scaled", "builtin_linear_scalar",
    "builtin_quadratic_scalar", "eval_drift", "eval_rate", "eval_rates",
    "exact_block", "exact_trajectory", "fit_order", "generator_apply",
    "get_model",
    "integrate_along_path", "local_errors", "martingale_check", "model_names",
    "next_jump", "phi3", "reference_trajectory", "solve_trajectory", "step",
    "strong_error",
]
