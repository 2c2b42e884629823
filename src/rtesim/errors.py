"""Exception hierarchy shared across the package."""

import copy


class RteSimError(Exception):
    """Base class for all rtesim errors.

    A Monte Carlo routine that knows where a failure happened sets
    ``replication`` (its index) and ``config`` (the solver config label, or
    "reference") through ``in_replication``; both are None otherwise.
    """

    replication = None
    config = None


class ConfigurationError(RteSimError):
    """Invalid model, solver or run configuration."""


class GridError(ConfigurationError):
    """Horizon T is not an integer multiple of the step size."""


class QueryError(RteSimError):
    """Invalid counting-process query (negative, non-finite or reversed interval)."""


class ModelEvaluationError(RteSimError):
    """A coefficient function returned a non-finite value.

    Carries the offending state in ``x``.
    """

    def __init__(self, message, x=None):
        super().__init__(message)
        self.x = x


class ImplicitSolveError(RteSimError):
    """Picard iteration for the implicit drift did not converge.

    Carries the last max-norm ``residual`` and the step index ``step``.
    """

    def __init__(self, message, residual=None, step=None):
        super().__init__(message)
        self.residual = residual
        self.step = step


class NegativeStateError(RteSimError):
    """A state component went negative under the 'error' negativity policy."""


class RunawayJumpError(RteSimError):
    """Exact solver exceeded the configured maximum number of jumps."""


class UnsupportedModelError(RteSimError):
    """Operation requires analytic hooks the model does not provide."""


class FitError(RteSimError):
    """Order fit impossible (too few rows or nonpositive mean errors)."""


def in_replication(error, replication, where=None, config=None):
    """Copy of ``error`` that names the replication it happened in.

    The copy keeps the type and fields of ``error`` (``x``, ``residual``,
    ``step``), prefixes its message with ``replication j[, where]: `` and
    sets ``replication`` and ``config``.  Raise it ``from error`` to keep
    the original as ``__cause__``.
    """
    located = copy.copy(error)
    prefix = f"replication {replication}" + (f", {where}" if where else "")
    located.args = (f"{prefix}: {error}",)
    located.replication = replication
    located.config = config
    return located
