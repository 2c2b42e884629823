"""Fixed-step Theta-Maruyama solver.

One step advances the state by a blended explicit/implicit drift increment
plus the actual Poisson counts observed while each internal clock moves
forward by h * phi3, where phi3 is one of five quadrature rules for the
rate integral.  Because the counts come from shared epoch streams rather
than fresh Poisson draws, runs with different step sizes or rules on the
same PathBundle are pathwise coupled.  One engine solves one replication
or a block of them in lock step.
"""

import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigurationError, GridError, ImplicitSolveError,
                     NegativeStateError, QueryError, RteSimError)
from .model import eval_drift, eval_rates, is_finite_number
from .poisson import EpochWindows, PathBundle

QUADRATURES = ("euler", "midpoint", "trapezoidal",
               "improved-midpoint", "improved-trapezoidal")
NEGATIVITY_POLICIES = ("reset-to-zero", "allow", "error")
# largest T/h of a grid; a solve records (T/h + 1) * B * (d + p) floats
MAX_STEPS = 100_000


@dataclass(frozen=True)
class SolverConfig:
    """One Theta-Maruyama variant: theta, step size and quadrature rule.

    fp_tol / fp_max_iter control the Picard iteration of the implicit
    drift solve (max-norm on successive iterates).  clamp_phi3 keeps the
    clock increments nonnegative; the improved rules can dip below zero
    near the boundary and a Poisson count over a negative interval is
    undefined.
    """

    theta: float
    h: float
    quadrature: str = "euler"
    fp_tol: float = 1e-12
    fp_max_iter: int = 100
    negativity: str = "reset-to-zero"
    clamp_phi3: bool = True

    def __post_init__(self):
        for name in ("theta", "h", "fp_tol"):
            if not is_finite_number(getattr(self, name)):
                raise ConfigurationError(
                    f"{name} must be a finite number, got {getattr(self, name)!r}")
        if (isinstance(self.fp_max_iter, bool)
                or not isinstance(self.fp_max_iter, numbers.Integral)):
            raise ConfigurationError(
                f"fp_max_iter must be an integer, got {self.fp_max_iter!r}")
        if not isinstance(self.clamp_phi3, (bool, np.bool_)):
            raise ConfigurationError(
                f"clamp_phi3 must be true or false, got {self.clamp_phi3!r}")
        if not 0.0 <= self.theta <= 1.0:
            raise ConfigurationError(f"theta must be in [0, 1], got {self.theta}")
        if not self.h > 0:
            raise ConfigurationError(f"step size h must be positive, got {self.h}")
        if self.quadrature not in QUADRATURES:
            raise ConfigurationError(
                f"unknown quadrature {self.quadrature!r}; known: {', '.join(QUADRATURES)}")
        if self.negativity not in NEGATIVITY_POLICIES:
            raise ConfigurationError(
                f"unknown negativity policy {self.negativity!r}; "
                f"known: {', '.join(NEGATIVITY_POLICIES)}")
        if not self.fp_tol > 0:
            raise ConfigurationError(f"fp_tol must be positive, got {self.fp_tol}")
        if self.fp_max_iter < 1:
            raise ConfigurationError(f"fp_max_iter must be >= 1, got {self.fp_max_iter}")

    def label(self):
        return f"theta{self.theta:g}-{self.quadrature}-h{self.h:g}"

    def variant(self):
        """Label without the step size (variants share theta and rule)."""
        return f"theta{self.theta:g}-{self.quadrature}"


@dataclass
class Trajectory:
    """Grid, states and internal clocks of one fixed-step run.

    States are (nbar+1, d) and clocks (nbar+1, p); a block of B
    replications adds a row axis after the step axis.
    """

    grid: np.ndarray
    states: np.ndarray
    clocks: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def endpoint(self):
        return self.states[-1]


def _jump_sum(v, model):
    """sum_k v[..., k] nu_k, each row of v (m, p) its own vector-matrix product.

    A matrix product over the rows, or einsum, rounds differently.
    """
    return (v[..., None, :] @ model.jumps)[..., 0, :]


def _shifted_rates(model, x):
    """R[..., j, k] = clamped rate k at the state displaced by jump j."""
    return eval_rates(model, x[..., None, :] + model.jumps)


def _phi3_rows(model, x, h, rule, clamp):
    """phi3 for all p processes at a state (d,) or a batch (m, d).

    Returns (values, clamped): values of shape (p,) or (m, p), and the
    number of clamped entries of each row, or None when none was clamped.
    The midpoint/trapezoidal predictor points are shared across k, so the
    vector form costs p+1 rate evaluations instead of p*(p+1).  Only the
    improved rules can go negative, so only they are clamped.
    """
    if rule not in QUADRATURES:
        raise ConfigurationError(f"unknown quadrature {rule!r}")
    lam0 = eval_rates(model, x)
    if rule == "euler":
        return lam0, None
    if rule == "midpoint":
        xm = x + 0.5 * h * eval_drift(model, x) + 0.5 * h * _jump_sum(lam0, model)
        return eval_rates(model, xm), None
    if rule == "trapezoidal":
        xe = x + h * eval_drift(model, x) + h * _jump_sum(lam0, model)
        return 0.5 * (lam0 + eval_rates(model, xe)), None
    shifted = _shifted_rates(model, x)
    corr = 0.5 * h * ((lam0[..., None, :] @ shifted)[..., 0, :]
                      - lam0.sum(axis=-1, keepdims=True) * lam0)
    if rule == "improved-midpoint":
        vals = eval_rates(model, x + 0.5 * h * eval_drift(model, x)) + corr
    else:
        vals = (0.5 * lam0
                + 0.5 * eval_rates(model, x + h * eval_drift(model, x))
                + corr)
    if clamp:
        neg = vals < 0.0
        if neg.any():
            return np.where(neg, 0.0, vals), neg.sum(axis=-1)
    return vals, None


def _phi3_vector(model, x, h, rule, clamp):
    """_phi3_rows with the clamps summed: (values, clamp_count)."""
    vals, clamped = _phi3_rows(model, x, h, rule, clamp)
    return vals, 0 if clamped is None else int(clamped.sum())


def _implicit_solve(model, x_prev, h, theta, disp, fp_tol, fp_max_iter, step_idx):
    """Picard iteration for y = x_prev + h*theta*f(y) + h*(1-theta)*f(x_prev) + disp.

    ``theta`` is a float, or a column (m, 1) with one value per row of
    (m, d).  Each row stops at its own first iterate within fp_tol of the
    one before.  The map is a contraction for h*theta*L_f < 1; the
    explicit full step is the initial guess.
    """
    f_prev = eval_drift(model, x_prev)
    base = x_prev + h * (1.0 - theta) * f_prev + disp
    y = x_prev + h * f_prev + disp
    ht = h * theta
    out = np.empty_like(y)
    rows = np.arange(len(y))
    for _ in range(fp_max_iter):
        y_next = base + ht * eval_drift(model, y)
        resid = np.abs(y_next - y).max(axis=-1)
        done = resid < fp_tol
        if done.any():
            out[rows[done]] = y_next[done]
            if done.all():
                return out
            go = ~done
            rows, base, y_next = rows[go], base[go], y_next[go]
            if np.ndim(ht):
                ht = ht[go]
        y = y_next
    resid = float(resid[~done][0])
    raise ImplicitSolveError(
        f"implicit drift solve stalled at step {step_idx}: residual {resid:.3e} "
        f"after {fp_max_iter} iterations (tolerance {fp_tol:.1e})",
        residual=resid, step=step_idx)


def _select(mask):
    """The rows where ``mask`` holds: None, a slice when they are contiguous,
    or else an index array."""
    rows = np.flatnonzero(mask)
    if rows.size == 0:
        return None
    if rows[-1] - rows[0] + 1 == rows.size:
        return slice(rows[0], rows[-1] + 1)
    return rows


class _Layout:
    """Which config each row of a lock-step block runs.

    Row i runs ``configs[i // per_config]``.  The configs share h, fp_tol,
    fp_max_iter, negativity and clamp_phi3, and differ at most in theta
    and the quadrature rule; ``rules`` pairs each rule with its rows, and
    ``implicit_theta`` is the theta of the implicit rows: a float when they
    share one, else a column.
    """

    def __init__(self, configs, per_config):
        self.configs, self.per_config = configs, per_config
        self.shared = configs[0]
        of_row = np.repeat(np.arange(len(configs)), per_config)
        theta = np.array([c.theta for c in configs])[of_row]
        rule = np.array([c.quadrature for c in configs])[of_row]
        self.rules = [(q, _select(rule == q))
                      for q in dict.fromkeys(c.quadrature for c in configs)]
        self.explicit = _select(theta == 0.0)
        self.implicit = _select(theta > 0.0)
        implicit = {c.theta for c in configs} - {0.0}
        self.implicit_theta = (implicit.pop() if len(implicit) == 1
                               else theta[self.implicit, None])

    def row(self, i):
        """The layout of row i alone."""
        return _Layout([self.configs[i // self.per_config]], 1)


def _assemble(like, parts):
    """One array like ``like`` from (rows, values) parts that partition its rows."""
    if len(parts) == 1:
        return parts[0][1]
    out = np.empty_like(like)
    for rows, values in parts:
        out[rows] = values
    return out


def _step(model, layout, epochs, x, clocks, counts, step_idx):
    """One Theta-Maruyama update of every row: (x, clocks, counts Y(clocks), clamps).

    phi3 is computed rule by rule on each rule's rows, and the Picard
    iteration runs on the theta > 0 rows only; ``clamps`` lists (rows,
    phi3 clamps of each of those rows) for the rules that clamped.
    """
    cfg = layout.shared
    h = cfg.h
    phi = [(rows, _phi3_rows(model, x[rows], h, rule, cfg.clamp_phi3))
           for rule, rows in layout.rules]
    vals = _assemble(clocks, [(rows, v) for rows, (v, _) in phi])
    clamps = [(rows, c) for rows, (_, c) in phi if c is not None]
    r = h * vals
    ahead = clocks + r
    if not (r.min() >= 0.0 and ahead.max() < math.inf):
        bad = np.argwhere(~((clocks <= ahead) & (ahead < math.inf)))
        if bad.size:
            a, b = float(clocks[tuple(bad[0])]), float(ahead[tuple(bad[0])])
            need = "a <= b" if a > b else "finite 0 <= a <= b"
            raise QueryError(f"increment needs {need}, got a={a!r} b={b!r}")
    ahead_counts = epochs.count(ahead)
    disp = _jump_sum(ahead_counts - counts, model)
    parts = []
    if (rows := layout.explicit) is not None:
        parts.append((rows, x[rows] + h * eval_drift(model, x[rows]) + disp[rows]))
    if (rows := layout.implicit) is not None:
        parts.append((rows, _implicit_solve(model, x[rows], h, layout.implicit_theta,
                                            disp[rows], cfg.fp_tol, cfg.fp_max_iter,
                                            step_idx)))
    x_new = _assemble(x, parts)
    low = x_new.min(axis=-1) < 0.0
    if low.any():
        if cfg.negativity == "reset-to-zero":
            x_new = np.where(low[:, None], np.maximum(x_new, 0.0), x_new)
        elif cfg.negativity == "error":
            raise NegativeStateError(f"negative component at step {step_idx}: "
                                     f"x={x_new[np.argmax(low)]!r}")
    return x_new, ahead, ahead_counts, clamps


def _raise_first_failing_row(model, layout, epochs, x, clocks, counts, step_idx):
    """Step each row alone, in row order, and raise the first error, naming its row.

    Rows do not interact, so a row fails alone as it fails in the block.
    """
    for i in range(len(x)):
        one = EpochWindows(epochs.master_seed, epochs.replications[i:i + 1],
                           clocks.shape[1])
        one.count(clocks[i:i + 1])
        try:
            _step(model, layout.row(i), one, x[i:i + 1], clocks[i:i + 1],
                  counts[i:i + 1], step_idx)
        except RteSimError as e:
            e.row = i
            raise


def _whole_ratio(a, b):
    """The integer n >= 1 with a = n*b up to roundoff, or None."""
    ratio = a / b
    n = round(ratio) if math.isfinite(ratio) else 0
    return n if n >= 1 and abs(ratio - n) <= 1e-9 * max(1.0, ratio) else None


def grid_steps(T, h):
    """Number of steps n with n*h = T.

    GridError if T/h is not integral; ConfigurationError if h is not finite
    and positive or T/h is above MAX_STEPS, which bounds a solve's history.
    """
    if not 0.0 < h < math.inf:
        raise ConfigurationError(f"step size h={h!r} is not a finite positive number")
    ratio = T / h
    if ratio > MAX_STEPS:
        raise ConfigurationError(
            f"T/h = {ratio:g} steps (T={T}, h={h}) is above the limit of "
            f"{MAX_STEPS} steps")
    nbar = _whole_ratio(T, h)
    if nbar is None:
        raise GridError(f"horizon T={T} is not an integer multiple of h={h}")
    return nbar


def check_nesting(h_ref, h_values):
    """GridError unless the reference step h_ref divides every h, so grids nest."""
    for h in h_values:
        if _whole_ratio(h, h_ref) is None:
            raise GridError(f"reference step h_ref={h_ref} does not divide h={h}")


def step_size_warning(model, config):
    """Message when h*theta*L_f >= 1, so the Picard map may not contract.

    Returns None when the condition holds or the model declares no L_f.
    """
    if config.theta > 0.0 and model.lipschitz_f:
        bound = config.h * config.theta * model.lipschitz_f
        if bound >= 1.0:
            return (f"h*theta*L_f = {bound:g} >= 1 for h={config.h!r} on model "
                    f"{model.name!r}: the implicit solve may not contract")
    return None


_LOCKSTEP_FIELDS = ("h", "fp_tol", "fp_max_iter", "negativity", "clamp_phi3")


def lockstep_key(config):
    """What configs must share to run in one lock-step block: all but theta
    and the quadrature rule."""
    return tuple(getattr(config, f) for f in _LOCKSTEP_FIELDS)


def solve_lockstep(model, configs, epochs, x0, T):
    """Run several Theta-Maruyama configs over [0, T] on one block, in lock step.

    ``epochs`` is a new EpochWindows of B = G * R rows for G configs; row i
    runs ``configs[i // R]``, so each config holds R consecutive rows.  The
    configs must share h, fp_tol, fp_max_iter, negativity and clamp_phi3;
    theta and the quadrature rule may differ.  A row computes exactly what
    it computes alone, in any block and beside any configs: phi3 is
    evaluated rule by rule on each rule's rows, and a theta = 0 row never
    evaluates the drift at an implicit iterate.  Grid times are n*h by
    integer multiplication, never accumulated.

    Returns a Trajectory whose states are (nbar+1, B, d) and clocks
    (nbar+1, B, p); ``meta`` holds ``configs``, the final ``jump_counts``
    (B, p) and ``phi3_clamps``, the clamp count of each config.  A failing
    block raises the error of its lowest-indexed row among those failing
    at the earliest failing step, with ``row`` set to it.  Does not warn
    about step sizes; solve_trajectory and strong_error do.
    """
    configs = list(configs)
    cfg = configs[0]
    for other in configs[1:]:
        if lockstep_key(other) != lockstep_key(cfg):
            raise ConfigurationError(
                f"configs {cfg.label()} and {other.label()} differ in one of "
                f"{', '.join(_LOCKSTEP_FIELDS)}, so they cannot share a block")
    B = len(epochs.replications)
    if B % len(configs):
        raise ConfigurationError(
            f"a block of {B} rows does not split evenly among "
            f"{len(configs)} configs")
    nbar = grid_steps(T, cfg.h)
    d, p = model.dim, model.jump_count
    try:
        x0 = np.asarray(x0, dtype=float).reshape(d)
    except ValueError:
        raise ConfigurationError(
            f"initial state {x0!r} does not match model dimension {d}") from None
    if not np.isfinite(x0).all():
        raise ConfigurationError(f"initial state must be finite, got {x0!r}")
    layout = _Layout(configs, B // len(configs))
    x = np.repeat(x0[None, :], B, axis=0)
    clocks = np.zeros((B, p))
    counts = np.zeros((B, p), dtype=np.int64)
    states = np.empty((nbar + 1, B, d))
    clock_hist = np.empty((nbar + 1, B, p))
    states[0] = x
    clock_hist[0] = clocks
    row_clamps = np.zeros(B, dtype=np.int64)
    for n in range(nbar):
        try:
            x, clocks, counts, clamps = _step(model, layout, epochs, x, clocks,
                                              counts, n)
        except RteSimError as e:
            e.row = 0
            if B > 1:
                _raise_first_failing_row(model, layout, epochs, x, clocks,
                                         counts, n)
            raise
        for rows, c in clamps:
            row_clamps[rows] += c
        states[n + 1] = x
        clock_hist[n + 1] = clocks
    meta = {
        "model": model.name,
        "configs": configs,
        "jump_counts": counts,
        "phi3_clamps": row_clamps.reshape(len(configs), -1).sum(axis=1).tolist(),
    }
    return Trajectory(grid=np.arange(nbar + 1) * cfg.h, states=states,
                      clocks=clock_hist, meta=meta)


def solve_trajectory(model, config, epochs, x0, T):
    """Run the Theta-Maruyama method over [0, T] on the given epoch streams.

    ``epochs`` is one replication's PathBundle, or a new EpochWindows whose
    B rows are solved in lock step; a row has the same bits in any block.
    Deterministic in (model, config, epochs, x0, T).  Warns when h*theta*L_f
    >= 1.  A thin wrapper of solve_lockstep with one config: ``meta`` holds
    ``config``, ``jump_counts`` and the total ``phi3_clamps``, and a block
    raises the error of its lowest-indexed row among those failing at the
    earliest failing step, with ``row`` set to it.
    """
    if message := step_size_warning(model, config):
        warnings.warn(message, stacklevel=2)
    one_bundle = isinstance(epochs, PathBundle)
    if one_bundle:
        epochs = EpochWindows(epochs.master_seed, [epochs.replication],
                              model.jump_count)
    traj = solve_lockstep(model, [config], epochs, x0, T)
    counts = traj.meta["jump_counts"]
    if one_bundle:
        traj.states, traj.clocks, counts = (traj.states[:, 0], traj.clocks[:, 0],
                                            counts[0])
    traj.meta = {"model": model.name, "config": config, "jump_counts": counts,
                 "phi3_clamps": traj.meta["phi3_clamps"][0]}
    return traj
