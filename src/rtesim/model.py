"""Model definitions for random-time-change jump systems.

A model is a dimension, a drift field, p state-dependent jump rates and p
jump vectors, optionally augmented with closed-form flow/hazard hooks that
make exact jump-adapted solving possible.  The two benchmark systems (a
linear scalar decay model and a hybrid viral-replication model) are built
in and registered by name for the CLI.
"""

import math
import numbers
import threading
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ModelEvaluationError


@dataclass(frozen=True)
class AnalyticHooks:
    """Closed-form solution machinery for the inter-jump flow.

    flow(t, x)             solution of dx/dt = f(x) started at x
    hazard_integral[k](t, x)   integral of rate k along the flow over [0, t]
    hazard_inverse[k](delta, x)  smallest t with hazard_integral == delta,
                                 math.inf when the total hazard stays below delta
    drift_integral(t, x)   integral of f along the flow over [0, t] (optional,
                           needed for local-error sampling)

    Hooks must satisfy hazard_inverse(hazard_integral(t, x), x) == t to a
    relative 1e-10 wherever the inverse is finite; the test suite asserts
    this rather than assuming it.  Every hook must also broadcast over a
    batch: times (or increments) of shape (m,) with states of shape (m, d)
    give (m, d) for flow and drift_integral and (m,) for hazard_integral
    and hazard_inverse.  exact_trajectory calls them with one time and one
    state (d,), where a hook returns a float; exact_block calls flow and
    each hazard_integral and hazard_inverse once per pass on all its active
    rows; path integrals and local-error sampling call them once per batch.

    exact_block rows equal exact_trajectory bit for bit only if a batched
    call computes each row as the single-state call does.  The built-in
    inverses (``_saturating_inverse``) keep that by calling np.log1p on
    both: a float branch for one state keeps exact_trajectory at its cost
    per jump (on the linear-scalar study model, 5.4 us with it and 19.1 us
    with a broadcast-only hook, best of 5 on a 2-vCPU VM), and np.log1p
    gives the same bits at 0-d and at any array length or offset.  Moving
    the built-ins from math.log1p to np.log1p shifted exact outputs by
    ulps, once.
    """

    flow: callable
    hazard_integral: tuple
    hazard_inverse: tuple
    drift_integral: callable = None


class _ClampCounter:
    """Contention-safe counter for out-of-domain rate evaluations."""

    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0

    def bump(self, n=1):
        with self._lock:
            self.count += n


class RteModel:
    """Drift, rates and jump vectors of one jump system.

    Parameters
    ----------
    dim : int
        State dimension d >= 1.
    drift : callable
        f : R^d -> R^d.  Must broadcast: a state (d,) gives (d,) and a
        batch of states (m, d) gives (m, d).
    rates : sequence of callables
        p functions R^d -> R, broadcasting the same way ((d,) gives a
        scalar, (m, d) gives (m,)); there is no pointwise fallback.
        Evaluations are clamped at 0 (the benchmark models leave the
        nonnegative orthant only through transient iterates, where a
        negative rate has no meaning).
    jumps : array_like, shape (p, d)
        Jump vectors nu_k added to the state when process k fires.
    lipschitz_f : optional declared Lipschitz bound of the drift, used
        only for the implicit step-size warning.
    analytic : AnalyticHooks, optional
    name : str, registry/reporting label
    """

    def __init__(self, dim, drift, rates, jumps, lipschitz_f=None,
                 analytic=None, name=""):
        jumps = np.asarray(jumps, dtype=float)
        if dim < 1:
            raise ConfigurationError(f"dim must be >= 1, got {dim}")
        if len(rates) < 1:
            raise ConfigurationError("at least one jump process is required")
        if jumps.shape != (len(rates), dim):
            raise ConfigurationError(
                f"jumps must have shape ({len(rates)}, {dim}), got {jumps.shape}")
        self.dim = int(dim)
        self.jump_count = len(rates)
        self.drift = drift
        self.rates = tuple(rates)
        self.jumps = jumps
        self.lipschitz_f = lipschitz_f
        self.analytic = analytic
        self.name = name
        self.clamp_diag = _ClampCounter()

    def __repr__(self):
        return (f"RteModel(name={self.name!r}, dim={self.dim}, "
                f"jump_count={self.jump_count})")


def is_finite_number(v):
    """A finite real number; bools, strings and ints beyond float range are not."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _first_nonfinite(x, vals):
    """x for one state (d,); for a batch, its first row where vals is not finite."""
    if x.ndim < 2:
        return x
    return x[np.argmax(~np.isfinite(vals.reshape(len(x), -1)).all(axis=1))]


def initial_state(model, x0):
    """x0 as a new float array of shape (d,).

    ConfigurationError unless it has the model's dimension and finite entries.
    """
    try:
        x = np.array(x0, dtype=float).reshape(model.dim)
    except (TypeError, ValueError):
        raise ConfigurationError(f"initial state {x0!r} does not match model "
                                 f"dimension {model.dim}") from None
    if not np.isfinite(x).all():
        raise ConfigurationError(f"initial state must be finite, got {x!r}")
    return x


def eval_drift(model, x):
    """Evaluate f(x), raising ModelEvaluationError on non-finite output."""
    fx = np.asarray(model.drift(x), dtype=float)
    if not np.isfinite(fx).all():
        x = _first_nonfinite(x, fx)
        raise ModelEvaluationError(f"drift of {model.name!r} non-finite at x={x!r}", x=x)
    return fx


def eval_rate(model, k, x):
    """Evaluate rate k (0-based) at x, clamped to be nonnegative.

    Clamp events are counted on ``model.clamp_diag``.
    """
    v = float(model.rates[k](x))
    if not math.isfinite(v):
        raise ModelEvaluationError(
            f"rate {k} of {model.name!r} non-finite at x={x!r}", x=x)
    if v < 0.0:
        model.clamp_diag.bump()
        return 0.0
    return v


def eval_rates(model, x):
    """All p clamped rates at a state (d,) or a batch of states (m, d).

    Returns shape (p,) or (m, p).  Each negative entry is clamped to 0 and
    counted once on ``model.clamp_diag``.
    """
    vals = np.empty(x.shape[:-1] + (model.jump_count,))
    for k, rate in enumerate(model.rates):
        vals[..., k] = rate(x)
    if vals.min() >= 0.0 and vals.max() < math.inf:
        return vals
    if not np.isfinite(vals).all():
        x = _first_nonfinite(x, vals)
        raise ModelEvaluationError(
            f"rates of {model.name!r} non-finite at x={x!r}", x=x)
    neg = vals < 0.0
    model.clamp_diag.bump(int(neg.sum()))
    return np.where(neg, 0.0, vals)


# ---------------------------------------------------------------------------
# system-size scaling


@dataclass(frozen=True)
class ScalingSpec:
    """System-size normalisation X_i -> N^{-alpha_i} X_i."""

    N: float
    alpha: tuple

    def __post_init__(self):
        if not (is_finite_number(self.N) and self.N > 0):
            raise ConfigurationError(f"scaling N must be positive, got {self.N}")
        object.__setattr__(self, "alpha", tuple(float(a) for a in self.alpha))

    def state_factors(self):
        return np.array([self.N ** a for a in self.alpha])

    def scale_state(self, x):
        """Map an original state to the scaled one, X^N = X / N^alpha."""
        return np.asarray(x, dtype=float) / self.state_factors()

    def unscale_state(self, y):
        """Map a scaled state back, X = N^alpha * X^N."""
        return np.asarray(y, dtype=float) * self.state_factors()


def apply_scaling(model, spec):
    """Return the model of the rescaled process X^N = N^{-alpha} * X.

    Coefficients are composed by substitution: the scaled drift is
    N^{-alpha} f(N^alpha y) and the scaled rates are lambda_k(N^alpha y),
    which leaves every Poisson clock unchanged -- a scaled trajectory
    multiplied back by N^alpha reproduces the unscaled one on the same
    epochs.  Jump vectors shrink entrywise by N^{-alpha}.
    """
    if len(spec.alpha) != model.dim:
        raise ConfigurationError(
            f"scaling alpha has length {len(spec.alpha)}, model dim is {model.dim}")
    up = spec.state_factors()
    if not (np.isfinite(up) & (up > 0.0)).all():
        raise ConfigurationError(f"scaling factors N**alpha = {up} must be "
                                 f"positive and finite")
    down = 1.0 / up

    def scale_in(fn):
        def scaled(*args):  # the state is the last argument
            return fn(*args[:-1], up * args[-1])
        return scaled

    def scale_both(fn):
        scaled = scale_in(fn)
        return lambda *args: down * np.asarray(scaled(*args), dtype=float)

    hooks = None
    if model.analytic is not None:
        a = model.analytic
        hooks = AnalyticHooks(
            flow=scale_both(a.flow),
            hazard_integral=tuple(map(scale_in, a.hazard_integral)),
            hazard_inverse=tuple(map(scale_in, a.hazard_inverse)),
            drift_integral=(None if a.drift_integral is None
                            else scale_both(a.drift_integral)),
        )

    # declared Lipschitz bounds do not transform mechanically; drop them
    return RteModel(model.dim, scale_both(model.drift),
                    tuple(map(scale_in, model.rates)), model.jumps * down,
                    analytic=hooks, name=f"{model.name}-scaled")


# ---------------------------------------------------------------------------
# built-in benchmark models


def _saturating_inverse(a, rate):
    """hazard_inverse of the hazard r * -expm1(-a t) / a, r = rate(x[..., 0]).

    The hook returns -log1p(-a delta / r) / a: 0 where delta <= 0, inf
    where r <= 0 or a delta >= r (the total hazard r / a never reaches
    delta).  One state (d,) with a scalar delta takes a branch on Python
    floats and returns a float; a batch (m, d) with delta (m,) returns
    (m,).  Both call np.log1p, whose bits do not depend on the array's
    shape, length or offset, so a batch row equals the single-state call.
    """
    def hazard_inverse(delta, x):
        if x.ndim == 1:
            r, delta = rate(float(x[0])), float(delta)
            if delta <= 0.0:
                return 0.0
            if r <= 0.0 or a * delta >= r:
                return math.inf
            return -float(np.log1p(-a * delta / r)) / a
        r = rate(x[:, 0])
        delta = np.asarray(delta, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = -np.log1p(-a * delta / r) / a
        t = np.where((r <= 0.0) | (a * delta >= r), math.inf, t)
        return np.where(delta <= 0.0, 0.0, t)
    return hazard_inverse


def _scalar_decay(name, alpha, rate, power, eps):
    """Scalar decay model dX = -alpha X dt + eps dY(integral of rate(X)).

    ``rate`` maps the state's entry x to c * x**power.  Along the flow
    x e^{-alpha t} it decays as e^{-a t}, a = power * alpha, so the
    cumulative hazard from x, max(rate(x), 0) * -expm1(-a t) / a, and its
    inverse are closed forms, and the model supports exact jump-adapted
    solving.
    """
    a = power * alpha

    def flow(t, x):
        return x * np.exp(-alpha * t)[..., None]

    def hazard_integral(t, x):
        return np.maximum(rate(x[..., 0]), 0.0) * -np.expm1(-a * t) / a

    def drift_integral(t, x):
        return x * np.expm1(-alpha * t)[..., None]

    hooks = AnalyticHooks(
        flow=flow,
        hazard_integral=(hazard_integral,),
        hazard_inverse=(_saturating_inverse(a, rate),),
        drift_integral=drift_integral)
    return RteModel(
        dim=1,
        drift=lambda x: -alpha * x,
        rates=(lambda x: rate(x[..., 0]),),
        jumps=[[eps]],
        lipschitz_f=alpha,
        analytic=hooks,
        name=name,
    )


def builtin_linear_scalar(alpha, lam, eps):
    """Scalar decay model dX = -alpha X dt + eps dY(lam * integral X)."""
    if not all(is_finite_number(v) and v > 0 for v in (alpha, lam, eps)):
        raise ConfigurationError(
            f"linear-scalar needs finite positive alpha, lambda, eps; "
            f"got ({alpha}, {lam}, {eps})")
    return _scalar_decay("linear-scalar", alpha, lambda x0: lam * x0, 1, eps)


def builtin_quadratic_scalar(alpha=1.0, beta=2.0, eps=0.01):
    """Scalar decay model with a genuinely nonlinear rate beta * x^2.

    Used to exercise the improved quadrature rules, which only differ from
    the classical ones when the rates are nonlinear.
    """
    if not all(is_finite_number(v) and v > 0 for v in (alpha, beta, eps)):
        raise ConfigurationError(
            f"quadratic-scalar needs finite positive alpha, beta, eps; "
            f"got ({alpha}, {beta}, {eps})")
    return _scalar_decay("quadratic-scalar", alpha, lambda x0: beta * (x0 * x0),
                         2, eps)


# viral replication rates (per day): template/genome/structural kinetics
_R1, _R2, _R3, _R4, _R5, _R6 = 0.025, 0.25, 1.0, 7.5e-6, 1000.0, 1.9985


def builtin_bacteriophage():
    """Hybrid viral replication model, state (template, genome, structural).

    The two fast synthesis/degradation reactions of the structural protein
    run deterministically in the drift; the four slow reactions drive the
    Poisson part.  No closed-form flow exists, so exact solving is replaced
    by a fine-step reference.
    """
    def drift(x):
        fx = np.zeros_like(x)
        fx[..., 2] = _R5 * x[..., 0] - _R6 * x[..., 2]
        return fx

    rates = (
        lambda x: _R1 * x[..., 1],              # genome -> template
        lambda x: _R2 * x[..., 0],              # template degradation
        lambda x: _R3 * x[..., 0],              # template-catalysed genome synthesis
        lambda x: _R4 * x[..., 1] * x[..., 2],  # genome + structural -> virus
    )
    jumps = [[1.0, -1.0, 0.0],
             [-1.0, 0.0, 0.0],
             [0.0, 1.0, 0.0],
             [0.0, -1.0, -1.0]]
    return RteModel(dim=3, drift=drift, rates=rates, jumps=jumps,
                    name="bacteriophage")


def bacteriophage_scaling(N=10000.0):
    """The published normalisation of the viral model (states become O(1)).

    The rate constants are the published ones at this N, so only N and the
    species exponents alpha transform the process.
    """
    return ScalingSpec(N=N, alpha=(0.25, 0.5, 1.0))


def builtin_bacteriophage_scaled():
    return apply_scaling(builtin_bacteriophage(), bacteriophage_scaling())


_REGISTRY = {
    "linear-scalar": builtin_linear_scalar,
    "quadratic-scalar": builtin_quadratic_scalar,
    "bacteriophage": builtin_bacteriophage,
    "bacteriophage-scaled": builtin_bacteriophage_scaled,
}

# JSON configs use spelled-out parameter names
_PARAM_ALIASES = {"lambda": "lam", "epsilon": "eps"}


def model_names():
    return sorted(_REGISTRY)


def get_model(name, params=None, scaling=None):
    """Build a registered model by name, optionally rescaled.

    ``params`` is the keyword map for the builder (e.g. alpha/lambda/eps for
    linear-scalar); ``scaling`` is a ScalingSpec or a mapping of its fields.
    """
    if not isinstance(name, str) or name not in _REGISTRY:
        raise ConfigurationError(
            f"unknown model {name!r}; known: {', '.join(model_names())}")
    if params is not None and not isinstance(params, Mapping):
        raise ConfigurationError(
            f"params for model {name!r} must be a mapping, got {params!r}")
    kwargs = {}
    for key, value in (params or {}).items():
        kwargs[_PARAM_ALIASES.get(key, key)] = value
    try:
        model = _REGISTRY[name](**kwargs)
    except TypeError as e:
        raise ConfigurationError(f"bad parameters for model {name!r}: {e}") from e
    if scaling is None:
        return model
    try:
        if not isinstance(scaling, ScalingSpec):
            scaling = ScalingSpec(**scaling)
        return apply_scaling(model, scaling)
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigurationError(f"bad scaling for model {name!r}: {e}") from e
