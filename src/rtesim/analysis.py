"""Strong-error estimation, order fitting and pathwise diagnostics.

All Monte Carlo estimators here run variants and their reference on the
*same* Poisson epoch streams per replication, so endpoint differences are
pathwise strong errors with low variance.  Replications are independent
tasks; results are reduced in replication order, which keeps every
reported number bit-stable no matter how many workers run.
"""

import math
import multiprocessing as mp
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (ConfigurationError, FitError, ModelEvaluationError,
                     RteSimError, UnsupportedModelError, in_replication)
from .exact import exact_block, exact_trajectory
from .model import eval_drift, eval_rate
from .poisson import PathBundle
from .stepper import _phi3_vector, grid_steps, solve_trajectory

# ---------------------------------------------------------------------------
# replication worker pool (fork-based; serial fallback elsewhere)

_ACTIVE_WORKER = None


def _pool_call(j):
    return _ACTIVE_WORKER(j)


def run_replications(worker, M, threads=1):
    """Evaluate worker(0..M-1), in replication order, optionally in parallel."""
    threads = max(1, int(threads))
    if threads == 1 or M < 2:
        return [worker(j) for j in range(M)]
    try:
        ctx = mp.get_context("fork")
    except ValueError:
        return [worker(j) for j in range(M)]
    global _ACTIVE_WORKER
    _ACTIVE_WORKER = worker
    try:
        with ctx.Pool(min(threads, M)) as pool:
            chunk = max(1, M // (4 * threads))
            return pool.map(_pool_call, range(M), chunksize=chunk)
    finally:
        _ACTIVE_WORKER = None


# ---------------------------------------------------------------------------
# strong error and order fitting


class ErrorRow(NamedTuple):
    h: float
    mean_abs_error: float
    std_error: float
    M: int


@dataclass
class ErrorReport:
    """Per-step-size endpoint errors of one Monte Carlo experiment."""

    rows: list
    seed: int = 0
    meta: dict = field(default_factory=dict)

    def write_csv(self, fileobj, comments=(), fit=None):
        for line in comments:
            fileobj.write(f"# {line}\n")
        fileobj.write("h,mean_abs_error,std_error,M\n")
        for r in self.rows:
            fileobj.write(f"{r.h!r},{r.mean_abs_error!r},{r.std_error!r},{r.M}\n")
        if fit is not None:
            fileobj.write(f"# slope={fit.slope!r}, intercept={fit.intercept!r}, "
                          f"r2={fit.r_squared!r}\n")


@dataclass(frozen=True)
class OrderFit:
    slope: float
    intercept: float
    r_squared: float


def fit_order(report):
    """Least-squares slope of log(mean error) against log(h)."""
    rows = report.rows if isinstance(report, ErrorReport) else list(report)
    if len(rows) < 2:
        raise FitError(f"order fit needs >= 2 rows, got {len(rows)}")
    for r in rows:
        if not r.mean_abs_error > 0.0:
            raise FitError(f"nonpositive mean error {r.mean_abs_error!r} at h={r.h!r}")
    logh = np.log([r.h for r in rows])
    loge = np.log([r.mean_abs_error for r in rows])
    slope, intercept = np.polyfit(logh, loge, 1)
    resid = loge - (slope * logh + intercept)
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((loge - loge.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return OrderFit(slope=float(slope), intercept=float(intercept), r_squared=r2)


def _norm_fn(norm):
    if norm == "euclidean":
        return lambda v: float(np.sqrt(np.sum(v * v)))
    if norm == "max":
        return lambda v: float(np.max(np.abs(v)))
    raise ConfigurationError(f"unknown norm {norm!r}; use 'euclidean' or 'max'")


def strong_error(model, reference, configs, x0, T, M, master_seed,
                 threads=1, norm="euclidean"):
    """Coupled-path endpoint errors of the given solver variants.

    For each replication one PathBundle is built; the reference (exact
    solver for hooked models, or a nested fine-step run) and every config
    consume those same epochs.  Rows follow the order of ``configs``.

    ``reference`` is the string "exact" or a ReferenceSpec.
    """
    configs = list(configs)
    if M < 1:
        raise ConfigurationError(f"replication count M must be >= 1, got {M}")
    if not configs:
        raise ConfigurationError("at least one solver config is required")
    for cfg in configs:
        grid_steps(T, cfg.h)  # validates divisibility up front
    use_exact = isinstance(reference, str)
    if use_exact:
        if reference != "exact":
            raise ConfigurationError(f"unknown reference {reference!r}")
    else:
        reference.check_nesting([cfg.h for cfg in configs])
        ref_config = reference.resolve_config()
    dist = _norm_fn(norm)
    labels = [cfg.label() for cfg in configs]
    p = model.jump_count

    def worker(j):
        bundle = PathBundle(master_seed, j, p)
        try:
            if use_exact:
                ref_x = exact_trajectory(model, bundle, x0, T).endpoint
            else:
                ref_x = solve_trajectory(model, ref_config, bundle, x0, T).endpoint
        except RteSimError as e:
            raise in_replication(e, j, "reference", config="reference") from e
        errs = np.empty(len(configs))
        for i, cfg in enumerate(configs):
            try:
                end = solve_trajectory(model, cfg, bundle, x0, T).endpoint
            except RteSimError as e:
                raise in_replication(e, j, f"config {labels[i]}",
                                     config=labels[i]) from e
            errs[i] = dist(ref_x - end)
        return errs

    samples = np.array(run_replications(worker, M, threads))  # (M, nconfig)
    means = samples.mean(axis=0)
    if M > 1:
        ses = samples.std(axis=0, ddof=1) / math.sqrt(M)
    else:
        ses = np.zeros(len(configs))
    rows = [ErrorRow(cfg.h, float(means[i]), float(ses[i]), M)
            for i, cfg in enumerate(configs)]
    meta = {
        "model": model.name,
        "configs": labels,
        "reference": "exact" if use_exact else f"h_ref={reference.h_ref!r}",
        "T": T,
        "norm": norm,
    }
    return ErrorReport(rows=rows, seed=master_seed, meta=meta)


# ---------------------------------------------------------------------------
# local one-step errors sampled on the exact solution


@dataclass(frozen=True)
class LocalErrorSample:
    """Drift (L) and clock (K) one-step errors started from the exact path."""

    n: int
    L_abs: float
    K_abs: float


def local_errors(model, exact, config):
    """L and K of every grid step of ``config``, measured on ``exact``.

    Returns one LocalErrorSample per step, in step order.  The path's flow
    segments are split at the grid times and both integrals are summed in
    closed form piece by piece, so the only approximation in a sample is
    the quadrature rule under test.  Every hook is called once, on the
    whole batch of pieces or grid states.
    """
    hooks = model.analytic
    if hooks is None or hooks.drift_integral is None:
        raise UnsupportedModelError(
            f"local error sampling needs analytic hooks with a drift integral; "
            f"model {model.name!r} does not provide them")
    h = config.h
    nbar = grid_steps(exact.T, h)
    grid = np.arange(nbar + 1) * h
    starts = exact.seg_starts
    # step n meets segments first[n]..last[n]; one piece per (step, segment)
    first = np.maximum(np.searchsorted(starts, grid[:-1], side="right") - 1, 0)
    last = np.searchsorted(starts, grid[1:], side="left") - 1
    counts = last - first + 1
    offsets = np.cumsum(counts) - counts
    step = np.repeat(np.arange(nbar), counts)
    seg = first[step] + np.arange(step.size) - offsets[step]
    s0 = starts[seg]
    lo = np.maximum(grid[step], s0) - s0
    hi = np.minimum(grid[step + 1], s0 + exact.seg_durations[seg]) - s0
    t = np.concatenate([hi, lo])
    xs = exact.seg_states[np.concatenate([seg, seg])]

    def per_step(integral):
        v = np.asarray(integral(t, xs), dtype=float)
        return np.add.reduceat(v[:step.size] - v[step.size:], offsets, axis=0)

    drift_int = per_step(hooks.drift_integral)
    hazard_int = np.stack([per_step(f) for f in hooks.hazard_integral], axis=-1)
    x_grid = exact.state_at(np.minimum(grid, exact.T))
    f_grid = eval_drift(model, x_grid)
    phi1 = (1.0 - config.theta) * f_grid[:-1] + config.theta * f_grid[1:]
    L = drift_int - h * phi1
    phis, _ = _phi3_vector(model, x_grid[:-1], h, config.quadrature,
                           config.clamp_phi3)
    K = (hazard_int - h * phis) @ model.jumps
    L_abs = np.sqrt(np.sum(L * L, axis=1)).tolist()
    K_abs = np.sqrt(np.sum(K * K, axis=1)).tolist()
    return [LocalErrorSample(n, L_abs[n], K_abs[n]) for n in range(nbar)]


# ---------------------------------------------------------------------------
# generator and martingale diagnostics


def generator_apply(model, F, gradF, x):
    """Generator value grad F . f + sum_k lambda_k (F(x + nu_k) - F(x))."""
    x = np.asarray(x, dtype=float)
    gF = np.asarray(gradF(x), dtype=float).reshape(model.dim)
    val = float(gF @ eval_drift(model, x))
    Fx = float(F(x))
    for k in range(model.jump_count):
        val += eval_rate(model, k, x) * (float(F(x + model.jumps[k])) - Fx)
    if not math.isfinite(val):
        raise ModelEvaluationError(f"generator non-finite at x={x!r}", x=x)
    return val


_GL_X, _GL_W = np.polynomial.legendre.leggauss(12)
_GL01_X = 0.5 * (_GL_X + 1.0)
_GL01_W = 0.5 * _GL_W
_CHUNK_CAP = 0.25


def _gl_chunks(durs, cap, subdiv):
    """Chunks of the composite rule: (segment index, offset, length) each.

    Each segment is split into ceil(duration/cap) * subdiv equal chunks,
    so doubling ``subdiv`` genuinely refines every segment.
    """
    reps = np.maximum(1, np.ceil(durs / cap).astype(np.int64)) * subdiv
    seg = np.repeat(np.arange(durs.size), reps)
    length = (durs / reps)[seg]
    rank = np.arange(seg.size) - np.repeat(np.cumsum(reps) - reps, reps)
    return seg, rank * length, length


def _gl_nodes(offs, length):
    """Node times (chunks, nodes) of chunks at the given offsets."""
    return offs[:, None] + length[:, None] * _GL01_X[None, :]


def _composite_gl(exact, g, cap, subdiv=1):
    """Composite Gauss-Legendre value of integral g(X(s)) ds."""
    flow = exact.model.analytic.flow
    durs = exact.seg_durations
    keep = durs > 0.0
    durs = durs[keep]
    if durs.size == 0:
        return 0.0
    seg, offs, chunk_len = _gl_chunks(durs, cap, subdiv)
    t_nodes = _gl_nodes(offs, chunk_len)
    x_nodes = flow(t_nodes.ravel(),
                   np.repeat(exact.seg_states[keep][seg], _GL01_X.size, axis=0))
    vals = np.asarray(g(np.asarray(x_nodes, dtype=float)), dtype=float)
    return float(np.sum((vals.reshape(t_nodes.shape) @ _GL01_W) * chunk_len))


def integrate_along_path(exact, g, tol=1e-8, chunk_cap=_CHUNK_CAP, max_levels=10):
    """Integral of g(X(s)) ds over [0, T] on a piecewise-flow trajectory.

    ``g`` maps a batch of states with shape (m, d) to values of shape (m,).
    Chunk lengths are halved until two successive composite rules agree to
    ``tol`` in absolute value.
    """
    prev = None
    subdiv = 1
    for _ in range(max_levels):
        val = _composite_gl(exact, g, chunk_cap, subdiv)
        if prev is not None and abs(val - prev) < tol:
            return val
        prev = val
        subdiv *= 2
    warnings.warn(f"path integral refinement stalled at |diff|="
                  f"{abs(val - prev):.2e} (tol {tol:.1e})", stacklevel=2)
    return val


def _generator_batch(model, F, gradF):
    """Vectorised x -> AF(x) over batches of states (m, d) -> (m,)."""
    jumps = model.jumps
    rates = model.rates

    def g(xs):
        gF = np.asarray(gradF(xs), dtype=float)
        fx = np.asarray(model.drift(xs), dtype=float)
        val = np.sum(gF * fx, axis=-1)
        Fx = np.asarray(F(xs), dtype=float)
        for k in range(len(rates)):
            lam = np.maximum(np.asarray(rates[k](xs), dtype=float), 0.0)
            val = val + lam * (np.asarray(F(xs + jumps[k]), dtype=float) - Fx)
        return val

    return g


def _jump_variation_batch(model, F):
    """Vectorised integrand of the predictable second-moment identity."""
    jumps = model.jumps
    rates = model.rates

    def g(xs):
        Fx = np.asarray(F(xs), dtype=float)
        val = np.zeros(xs.shape[0])
        for k in range(len(rates)):
            lam = np.maximum(np.asarray(rates[k](xs), dtype=float), 0.0)
            dF = np.asarray(F(xs + jumps[k]), dtype=float) - Fx
            val = val + lam * dF * dF
        return val

    return g


@dataclass(frozen=True)
class MartingaleCheck:
    """Monte Carlo summary of the compensated-observable diagnostics.

    ``mean`` estimates E M^F(T) (zero for the true process); ``abs_z`` is
    its standardised magnitude.  ``second_moment_lhs`` is the empirical
    E|M^F(T)|^2 and ``second_moment_rhs`` the pathwise estimate of the
    predictable variation it must equal.
    """

    mean: float
    abs_z: float
    second_moment_lhs: float
    second_moment_rhs: float
    se_mean: float
    se_lhs: float
    se_rhs: float
    M: int

    def combined_se(self):
        return math.hypot(self.se_lhs, self.se_rhs)


class _TwoLevelSums:
    """Per-row level-1 and level-2 composite sums of path integrals.

    ``add`` takes each pass of exact_block's segments.  They are chunked
    as integrate_along_path chunks them at its first two levels, the nodes
    of both levels are flowed in one call and each integrand is evaluated
    once.  A row's sums are accumulated from its own chunks only, so they
    do not depend on which rows share its block.
    """

    def __init__(self, flow, integrands, rows):
        self.flow = flow
        self.integrands = integrands
        self.levels = np.zeros((len(integrands), 2, rows))

    def add(self, rows, x, dur):
        keep = dur > 0.0
        if not keep.all():
            rows, x, dur = rows[keep], x[keep], dur[keep]
        m = dur.size
        if m == 0:
            return
        # level 1 then level 2: segment i < m is level 1, i >= m level 2
        seg, offs, length = _gl_chunks(np.concatenate([dur, dur]), _CHUNK_CAP,
                                       np.repeat([1, 2], m))
        t_nodes = _gl_nodes(offs, length)
        x_nodes = np.asarray(self.flow(t_nodes.ravel(),
                                       np.repeat(x[seg % m], _GL01_X.size, axis=0)),
                             dtype=float)
        width = self.levels.shape[2]
        # bin (level, row) of every chunk
        bins = np.where(seg < m, 0, width) + np.concatenate([rows, rows])[seg]
        for i, g in enumerate(self.integrands):
            vals = np.asarray(g(x_nodes), dtype=float).reshape(t_nodes.shape)
            # each chunk reduced on its own, never a BLAS product over chunks
            per_chunk = np.einsum("ck,k->c", vals, _GL01_W) * length
            self.levels[i] += np.bincount(bins, per_chunk,
                                          minlength=2 * width).reshape(2, width)


# rows per exact_block call; results do not depend on it
_BLOCK_ROWS = 128


def martingale_check(model, F, gradF, x0, T, M, master_seed, threads=1, tol=1e-8):
    """Check the martingale and second-moment identities by exact simulation.

    F and gradF must accept batched states of shape (m, d) (returning (m,)
    and (m, d)); the built-in scalar models' coefficients broadcast the
    same way, which keeps the per-path time integrals vectorised.

    Replications are solved in fixed blocks of rows by exact_block, and
    both path integrals are summed as the paths are built.  A row whose
    first two refinement levels differ by ``tol`` or more is recomputed by
    integrate_along_path on its exact_trajectory, which refines further.
    """
    if M < 2:
        raise ConfigurationError(f"martingale check needs M >= 2, got {M}")
    g_af = _generator_batch(model, F, gradF)
    g_qv = _jump_variation_batch(model, F)
    integrands = (g_af, g_qv)
    p = model.jump_count
    x0 = np.asarray(x0, dtype=float).reshape(model.dim)
    f_start = float(np.asarray(F(x0.reshape(1, -1)), dtype=float).reshape(-1)[0])
    block = _BLOCK_ROWS

    def worker(b):
        reps = range(b * block, min(M, (b + 1) * block))
        sums = _TwoLevelSums(model.analytic.flow, integrands, len(reps))
        ends = exact_block(model, master_seed, reps, x0, T, sums.add)
        f_end = np.asarray(F(ends.endpoints), dtype=float).reshape(-1)
        level1, level2 = sums.levels[:, 0], sums.levels[:, 1]
        vals = level2.copy()
        unsettled = ~(np.abs(level2 - level1) < tol)
        for row in np.flatnonzero(unsettled.any(axis=0)):
            traj = exact_trajectory(model, PathBundle(master_seed, reps[row], p),
                                    x0, T)
            for i in np.flatnonzero(unsettled[:, row]):
                vals[i, row] = integrate_along_path(traj, integrands[i], tol=tol)
        return f_end - f_start - vals[0], vals[1]

    blocks = run_replications(worker, -(-M // block), threads)
    mf = np.concatenate([b[0] for b in blocks])
    qv = np.concatenate([b[1] for b in blocks])
    mean = float(mf.mean())
    se_mean = float(mf.std(ddof=1)) / math.sqrt(M)
    if se_mean > 0.0:
        abs_z = abs(mean) / se_mean
    else:
        abs_z = 0.0 if mean == 0.0 else math.inf
    sq = mf * mf
    lhs = float(sq.mean())
    se_lhs = float(sq.std(ddof=1)) / math.sqrt(M)
    rhs = float(qv.mean())
    se_rhs = float(qv.std(ddof=1)) / math.sqrt(M)
    return MartingaleCheck(mean=mean, abs_z=abs_z, second_moment_lhs=lhs,
                           second_moment_rhs=rhs, se_mean=se_mean,
                           se_lhs=se_lhs, se_rhs=se_rhs, M=M)
