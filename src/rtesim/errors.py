"""Exception hierarchy shared across the package."""

import copy


class RteSimError(Exception):
    """Base class for all rtesim errors.

    ``x`` is the offending state, ``residual`` an implicit solve's last
    max-norm residual; each is None when it does not apply.  A Monte Carlo
    routine that knows where a failure happened sets ``replication`` (its
    index) and ``config`` (the solver config label, or "reference") through
    ``in_replication``: ``strong_error`` sets both, ``local_error_study``,
    ``exact_block`` and ``martingale_check`` set ``replication``.  Both are
    None otherwise.  ``solve_lockstep``, so ``solve_trajectory`` and
    ``strong_error``, sets ``row``, the index of the failing row in its
    block of replications, and ``step``, that row's own step index;
    ``exact_block`` and ``exact_rows``, so ``strong_error`` and
    ``local_error_study``, set ``row`` for an exact path.
    """

    replication = None
    config = None
    row = None

    def __init__(self, message, *, x=None, residual=None, step=None):
        super().__init__(message)
        self.x, self.residual, self.step = x, residual, step


class ConfigurationError(RteSimError):
    """Invalid model, solver or run configuration."""


class GridError(ConfigurationError):
    """Horizon T is not an integer multiple of the step size."""


class QueryError(RteSimError):
    """Invalid counting-process query (negative, non-finite or reversed interval)."""


class ModelEvaluationError(RteSimError):
    """A coefficient function returned a non-finite value."""


class ImplicitSolveError(RteSimError):
    """Picard iteration for the implicit drift did not converge."""


class NegativeStateError(RteSimError):
    """A state component went negative under the 'error' negativity policy."""


class RunawayJumpError(RteSimError):
    """An exact path took more than exact.MAX_JUMPS jumps."""


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
