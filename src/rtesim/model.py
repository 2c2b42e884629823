"""Model definitions for random-time-change jump systems.

A model is a dimension, a drift field, p state-dependent jump rates and p
jump vectors, optionally augmented with closed-form flow/hazard hooks that
make exact jump-adapted solving possible.  The two benchmark systems (a
linear scalar decay model and a hybrid viral-replication model) are built
in and registered by name for the CLI.
"""

import math
import threading
from dataclasses import dataclass, field

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
    this rather than assuming it.  flow, hazard_integral and drift_integral
    must also broadcast over a batch: times of shape (m,) with states of
    shape (m, d) give (m, d), (m,) and (m, d).  exact_trajectory calls them
    with one time and one state (d,); exact_block calls flow and each
    hazard_integral once per pass on all its active rows; path integrals
    and local-error sampling call them once per batch.  hazard_inverse is
    only ever called pointwise, with one increment and one state (d,), by
    both exact solvers.
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


def eval_drift(model, x):
    """Evaluate f(x), raising ModelEvaluationError on non-finite output."""
    fx = np.asarray(model.drift(x), dtype=float)
    if not np.isfinite(fx).all():
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
        raise ModelEvaluationError(
            f"rates of {model.name!r} non-finite at x={x!r}", x=x)
    neg = vals < 0.0
    model.clamp_diag.bump(int(neg.sum()))
    return np.where(neg, 0.0, vals)


# ---------------------------------------------------------------------------
# system-size scaling


@dataclass(frozen=True)
class ScalingSpec:
    """System-size normalisation X_i -> N^{-alpha_i} X_i.

    ``c`` carries the rate exponents (entries beyond the jump count are
    allowed for bookkeeping of deterministic reactions).  ``rho`` are the
    jump-height decay exponents and default to ``c``; when given they must
    dominate, c_k <= rho_k.  Only N and alpha affect the dynamics -- the
    remaining exponents are metadata for the error-scaling bookkeeping.
    """

    N: float
    alpha: tuple
    eta: float = 0.0
    gamma: float = 0.0
    c: tuple = ()
    rho: tuple = None

    def __post_init__(self):
        if self.N <= 0:
            raise ConfigurationError(f"scaling N must be positive, got {self.N}")
        object.__setattr__(self, "alpha", tuple(float(a) for a in self.alpha))
        object.__setattr__(self, "c", tuple(float(v) for v in self.c))
        if self.rho is not None:
            rho = tuple(float(v) for v in self.rho)
            object.__setattr__(self, "rho", rho)
            for ck, rk in zip(self.c, rho):
                if ck > rk + 1e-12:
                    raise ConfigurationError(
                        f"scaling requires c_k <= rho_k, got c={ck} > rho={rk}")

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
    if len(spec.c) < model.jump_count:
        raise ConfigurationError(
            f"scaling c has length {len(spec.c)}, need >= {model.jump_count}")
    up = spec.state_factors()
    down = 1.0 / up

    def scaled_drift(y, _f=model.drift, _up=up, _down=down):
        return _down * np.asarray(_f(_up * y), dtype=float)

    def _scaled_rate(rate_fn):
        def scaled(y, _r=rate_fn, _up=up):
            return _r(_up * y)
        return scaled

    scaled_rates = tuple(_scaled_rate(r) for r in model.rates)
    scaled_jumps = model.jumps * down

    hooks = None
    if model.analytic is not None:
        a = model.analytic

        def scaled_flow(t, y, _flow=a.flow, _up=up, _down=down):
            return _down * np.asarray(_flow(t, _up * y), dtype=float)

        def _scaled_haz(fn):
            def scaled(t, y, _fn=fn, _up=up):
                return _fn(t, _up * y)
            return scaled

        def _scaled_inv(fn):
            def scaled(delta, y, _fn=fn, _up=up):
                return _fn(delta, _up * y)
            return scaled

        drift_int = None
        if a.drift_integral is not None:
            def drift_int(t, y, _fn=a.drift_integral, _up=up, _down=down):
                return _down * np.asarray(_fn(t, _up * y), dtype=float)

        hooks = AnalyticHooks(
            flow=scaled_flow,
            hazard_integral=tuple(_scaled_haz(f) for f in a.hazard_integral),
            hazard_inverse=tuple(_scaled_inv(f) for f in a.hazard_inverse),
            drift_integral=drift_int,
        )

    # declared Lipschitz bounds do not transform mechanically; drop them
    return RteModel(model.dim, scaled_drift, scaled_rates, scaled_jumps,
                    analytic=hooks, name=f"{model.name}-scaled")


# ---------------------------------------------------------------------------
# built-in benchmark models


def builtin_linear_scalar(alpha, lam, eps):
    """Scalar decay model dX = -alpha X dt + eps dY(lam * integral X).

    Linearity gives closed forms for the flow, the cumulative hazard and
    its inverse, so the model supports exact jump-adapted solving.
    """
    if alpha <= 0 or lam <= 0 or eps <= 0:
        raise ConfigurationError(
            f"linear-scalar needs positive alpha, lambda, eps; "
            f"got ({alpha}, {lam}, {eps})")

    def flow(t, x):
        return x * np.exp(-alpha * t)[..., None]

    def hazard_integral(t, x):
        lx = np.maximum(lam * x[..., 0], 0.0)
        return lx * -np.expm1(-alpha * t) / alpha

    def hazard_inverse(delta, x):
        lx = lam * float(np.asarray(x).reshape(-1)[0])
        if delta <= 0.0:
            return 0.0
        if lx <= 0.0 or alpha * delta >= lx:
            return math.inf
        return -math.log1p(-alpha * delta / lx) / alpha

    def drift_integral(t, x):
        return x * np.expm1(-alpha * t)[..., None]

    hooks = AnalyticHooks(flow=flow,
                          hazard_integral=(hazard_integral,),
                          hazard_inverse=(hazard_inverse,),
                          drift_integral=drift_integral)
    return RteModel(
        dim=1,
        drift=lambda x: -alpha * x,
        rates=(lambda x: lam * x[..., 0],),
        jumps=[[eps]],
        lipschitz_f=alpha,
        analytic=hooks,
        name="linear-scalar",
    )


def builtin_quadratic_scalar(alpha=1.0, beta=2.0, eps=0.01):
    """Scalar decay model with a genuinely nonlinear rate beta * x^2.

    Same exponential flow as the linear model; the quadratic hazard still
    integrates and inverts in closed form.  Used to exercise the improved
    quadrature rules, which only differ from the classical ones when the
    rates are nonlinear.
    """
    if alpha <= 0 or beta <= 0 or eps <= 0:
        raise ConfigurationError(
            f"quadratic-scalar needs positive alpha, beta, eps; "
            f"got ({alpha}, {beta}, {eps})")

    def flow(t, x):
        return x * np.exp(-alpha * t)[..., None]

    def hazard_integral(t, x):
        bx2 = np.maximum(beta * x[..., 0] ** 2, 0.0)
        return bx2 * -np.expm1(-2.0 * alpha * t) / (2.0 * alpha)

    def hazard_inverse(delta, x):
        x0 = float(np.asarray(x).reshape(-1)[0])
        bx2 = beta * x0 * x0
        if delta <= 0.0:
            return 0.0
        if bx2 <= 0.0 or 2.0 * alpha * delta >= bx2:
            return math.inf
        return -math.log1p(-2.0 * alpha * delta / bx2) / (2.0 * alpha)

    def drift_integral(t, x):
        return x * np.expm1(-alpha * t)[..., None]

    hooks = AnalyticHooks(flow=flow,
                          hazard_integral=(hazard_integral,),
                          hazard_inverse=(hazard_inverse,),
                          drift_integral=drift_integral)
    return RteModel(
        dim=1,
        drift=lambda x: -alpha * x,
        rates=(lambda x: beta * x[..., 0] ** 2,),
        jumps=[[eps]],
        lipschitz_f=alpha,
        analytic=hooks,
        name="quadratic-scalar",
    )


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
    """The published normalisation of the viral model (states become O(1))."""
    return ScalingSpec(N=N, alpha=(0.25, 0.5, 1.0), eta=0.0, gamma=0.0,
                       c=(0.5, 0.25, 0.25, 1.5, -0.75, 0.0))


def builtin_bacteriophage_scaled():
    model = apply_scaling(builtin_bacteriophage(), bacteriophage_scaling())
    model.name = "bacteriophage-scaled"
    return model


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
    kwargs = {}
    for key, value in (params or {}).items():
        kwargs[_PARAM_ALIASES.get(key, key)] = value
    try:
        model = _REGISTRY[name](**kwargs)
    except TypeError as e:
        raise ConfigurationError(f"bad parameters for model {name!r}: {e}") from e
    if scaling is not None:
        if not isinstance(scaling, ScalingSpec):
            try:
                scaling = ScalingSpec(**scaling)
            except (TypeError, ValueError) as e:
                raise ConfigurationError(f"bad scaling for model {name!r}: {e}") from e
        model = apply_scaling(model, scaling)
    return model
