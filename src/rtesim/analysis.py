"""Strong-error estimation, order fitting and pathwise diagnostics.

All Monte Carlo estimators here run variants and their reference on the
*same* Poisson epoch streams per replication, so endpoint differences are
pathwise strong errors with low variance.  Replications are independent
tasks; results are reduced in replication order, which keeps every
reported number bit-stable no matter how many workers run.
"""

import functools
import math
import multiprocessing as mp
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (ConfigurationError, FitError, ModelEvaluationError,
                     RteSimError, UnsupportedModelError, in_replication)
from .exact import exact_block, exact_trajectory
from .model import eval_drift
from .poisson import EpochWindows, PathBundle
# strong_error calls solve_lockstep; solve_trajectory is imported so that
# perfbench/tracer.py, which looks it up here by name, still finds it
from .stepper import (SolverConfig, _phi3_vector, check_nesting, grid_steps,
                      lockstep_key, solve_lockstep, solve_trajectory,
                      step_size_warning)

# ---------------------------------------------------------------------------
# replication worker pool (fork-based; serial fallback elsewhere)

_ACTIVE_WORKER = None


def _pool_call(j):
    return _ACTIVE_WORKER(j)


def run_replications(worker, M, threads=1):
    """Evaluate worker(0..M-1), in index order, optionally in parallel.

    Each index is its own pool task, since tasks may differ in cost.  When
    several tasks fail, the error of the lowest index is raised, at any
    thread count.
    """
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
            # pool.map would raise the error that arrives first
            return list(pool.imap(_pool_call, range(M)))
    finally:
        _ACTIVE_WORKER = None


# ---------------------------------------------------------------------------
# strong error and order fitting

# Most rows per block of replications; results do not depend on either.
# A strong_error block solve stores its whole history, (nbar + 1, B, d + p)
# floats: at MAX_STEPS a block of 1024 rows with d + p = 3 would need about
# 2.4 GB, so strong_error stays at 128.  exact_block keeps only O(p * BATCH)
# floats per row, so martingale_check's blocks can fill a worker.
_BLOCK_ROWS = 128
_MARTINGALE_BLOCK_ROWS = 1024


def _blocks(M, size):
    """Blocks of at most ``size`` rows that partition range(M), in order.

    A row's results do not depend on the block it is in.
    """
    return [range(i, min(M, i + size)) for i in range(0, M, size)]


class ErrorRow(NamedTuple):
    h: float
    mean_abs_error: float
    std_error: float
    M: int


@dataclass
class ErrorReport:
    """Per-step-size endpoint errors of one Monte Carlo experiment.

    ``signed_errors`` (M, nconfig, d) holds each replication's endpoint
    minus the reference endpoint, in replication order; ``rows`` summarise
    their norms.
    """

    rows: list
    seed: int = 0
    meta: dict = field(default_factory=dict)
    signed_errors: np.ndarray = None


@dataclass(frozen=True)
class OrderFit:
    slope: float
    intercept: float
    r_squared: float


def fit_order(report):
    """Least-squares slope of log(mean error) against log(h)."""
    rows = report.rows if isinstance(report, ErrorReport) else list(report)
    hs = {r.h for r in rows}
    if len(hs) < 2:
        raise FitError(f"order fit needs >= 2 distinct step sizes, got "
                       f"{len(hs)} in {len(rows)} rows")
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
    """Norm over the last axis."""
    if norm == "euclidean":
        return lambda v: np.sqrt(np.sum(v * v, axis=-1))
    if norm == "max":
        return lambda v: np.max(np.abs(v), axis=-1)
    raise ConfigurationError(f"unknown norm {norm!r}; use 'euclidean' or 'max'")


def strong_error(model, reference, configs, x0, T, M, master_seed,
                 threads=1, norm="euclidean"):
    """Coupled-path endpoint errors of the given solver variants.

    ``reference`` is "exact" (the exact solver, for hooked models) or the
    SolverConfig of a fine-step run whose step divides every config's.
    Replication j's reference and every config read the epochs of
    PathBundle(master_seed, j, p).  Rows follow the order of ``configs``.
    Warns once per config (and fine-step reference) with h*theta*L_f >= 1.

    Replications are solved in blocks of min(_BLOCK_ROWS, M) rows.  The
    configs that share h, fp_tol, fp_max_iter, negativity and clamp_phi3
    form a group, in order of first appearance, cut into runs of at most
    _BLOCK_ROWS // (rows of the first block) configs; the reference is a
    group of one.  A task is one group on one block, which solve_lockstep
    runs in lock step, config-major, so a task stores at most _BLOCK_ROWS
    rows of history.  The exact reference runs exact_trajectory on its
    rows one by one, at the scalar cost per jump.  Tasks run block by
    block: the reference first, then the groups from finest to coarsest h,
    so the longest tasks start first.

    A block solve pays a fixed cost per step that barely grows with its
    rows: on the linear-scalar study model at h = 2^-7 (2-vCPU VM), 4 rows
    cost 42 to 154 us per step for each of theta0-euler, theta1-euler and
    theta0.5-trapezoidal, 349 us together, and the three as one 12-row
    group 170 us.  So the variants of a step size share the task of a
    small block, and blocks are not split across threads.  A full block
    solves each config alone: there a group's rule-by-rule calls cost more
    than one config's calls on as many rows (1.14 against 1.01 s for
    criterion 3's four variants at h = 1/160 on 128 rows).

    A failure raises the error of the first failing task in that order,
    at any thread count, then of its earliest failing step, then of its
    lowest failing row (configs in group order, then replications),
    naming the replication and the config.
    """
    configs = list(configs)
    if M < 1:
        raise ConfigurationError(f"replication count M must be >= 1, got {M}")
    if not configs:
        raise ConfigurationError("at least one solver config is required")
    for cfg in configs:
        grid_steps(T, cfg.h)  # validates divisibility up front
    use_exact = isinstance(reference, str) and reference == "exact"
    if not (use_exact or isinstance(reference, SolverConfig)):
        raise ConfigurationError(
            f"reference must be 'exact' or a SolverConfig, got {reference!r}")
    if not use_exact:
        check_nesting(reference.h, [cfg.h for cfg in configs])
    dist = _norm_fn(norm)
    labels = [cfg.label() for cfg in configs]
    p = model.jump_count
    # solver 0 is the reference; its group is solver 0 alone
    solvers, names = [reference] + configs, ["reference"] + labels
    for cfg in configs if use_exact else solvers:
        if message := step_size_warning(model, cfg):
            warnings.warn(message, stacklevel=2)
    groups = {}
    for k, cfg in enumerate(configs, start=1):
        groups.setdefault(lockstep_key(cfg), []).append(k)
    blocks = _blocks(M, _BLOCK_ROWS)
    size = max(1, _BLOCK_ROWS // len(blocks[0]))
    groups = [[0]] + [g[i:i + size]
                      for g in sorted(groups.values(), key=lambda g: solvers[g[0]].h)
                      for i in range(0, len(g), size)]

    def endpoints(group, reps):
        if group == [0] and use_exact:
            out = []
            for i, j in enumerate(reps):
                try:
                    out.append(exact_trajectory(model, PathBundle(master_seed, j, p),
                                                x0, T).endpoint)
                except RteSimError as e:
                    e.row = i
                    raise
            return np.stack(out)
        windows = EpochWindows(master_seed, list(reps) * len(group), p)
        return solve_lockstep(model, [solvers[k] for k in group], windows,
                              x0, T).endpoint

    def solve(group, reps):
        try:
            return endpoints(group, reps)
        except RteSimError as e:
            # an error raised before the first step has no row: it is every row's
            i, row = divmod(e.row or 0, len(reps))
            k = group[i]
            where = "reference" if k == 0 else f"config {names[k]}"
            raise in_replication(e, reps[row], where, config=names[k]) from e

    tasks = [functools.partial(solve, group, reps)
             for reps in blocks for group in groups]
    results = iter(run_replications(lambda t: tasks[t](), len(tasks), threads))
    signed = []
    for reps in blocks:
        ends = np.empty((len(reps), len(solvers), model.dim))
        for group in groups:
            ends[:, group] = next(results).reshape(len(group), len(reps), -1
                                                   ).transpose(1, 0, 2)
        # C order, as the sums over replications depend on the layout
        signed.append(ends[:, 1:] - ends[:, :1])
    signed = np.concatenate(signed)
    samples = dist(signed)  # (M, nconfig)
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
        "reference": "exact" if use_exact else f"h_ref={reference.h!r}",
        "T": T,
        "norm": norm,
    }
    return ErrorReport(rows=rows, seed=master_seed, meta=meta,
                       signed_errors=signed)


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


def local_error_study(model, configs, x0, T, M, master_seed, threads=1):
    """local_errors of every config on the exact paths of M replications.

    Replication j's path is exact_trajectory on PathBundle(master_seed, j,
    p), one task per replication.  Returns one tuple per config, holding
    each replication's samples in replication order.
    """
    p = model.jump_count

    def worker(j):
        traj = exact_trajectory(model, PathBundle(master_seed, j, p), x0, T)
        return [local_errors(model, traj, cfg) for cfg in configs]

    return list(zip(*run_replications(worker, M, threads)))


# ---------------------------------------------------------------------------
# generator and martingale diagnostics


def generator_apply(model, F, gradF, x):
    """Generator value grad F . f + sum_k lambda_k (F(x + nu_k) - F(x))."""
    x = np.asarray(x, dtype=float)
    af, _ = _martingale_integrands(model, F, gradF, x.reshape(1, model.dim))
    val = float(af[0])
    if not math.isfinite(val):
        raise ModelEvaluationError(f"generator non-finite at x={x!r}", x=x)
    return val


# Gauss-Kronrod 7-15 pair (QUADPACK qk15) on [-1, 1]: the nodes x >= 0 in
# decreasing order, their Kronrod weights and the 7-point Gauss weights,
# whose nodes are every second one of these
_GK_HALF = np.array([
    [0.991455371120812639206854697526329, 0.022935322010529224963732008058970, 0.0],
    [0.949107912342758524526189684047851, 0.063092092629978553290700663189204,
     0.129484966168869693270611432679082],
    [0.864864423359769072789712788640926, 0.104790010322250183839876322541518, 0.0],
    [0.741531185599394439863864773280788, 0.140653259715525918745189590510238,
     0.279705391489276667901467771423780],
    [0.586087235467691130294144845693013, 0.169004726639267902826583426598550, 0.0],
    [0.405845151377397166906606412076961, 0.190350578064785409913256402421014,
     0.381830050505118944950369775488975],
    [0.207784955007898467600689403773245, 0.204432940075298892414161999234649, 0.0],
    [0.0, 0.209482141084727828012999174891714, 0.417959183673469387755102040816327]])
# the 15 nodes on [0, 1] in increasing order, with both weight vectors
_GK_X = 0.5 + 0.5 * np.concatenate([-_GK_HALF[:, 0], _GK_HALF[-2::-1, 0]])
_GK_W, _G7_W = 0.5 * np.concatenate([_GK_HALF, _GK_HALF[-2::-1]])[:, 1:].T.copy()
_CHUNK_CAP = 0.25
_MAX_LEVELS = 10


def _gk_chunks(flow, integrands, x, dur, subdiv):
    """Per-chunk (K15, G7) values of integrals along flow segments.

    Segment i starts in state x[i] and lasts dur[i].  Each segment of
    positive duration is split into ceil(dur[i]/_CHUNK_CAP) * subdiv equal
    chunks, so doubling ``subdiv`` genuinely refines every segment.  The
    nodes are flowed in one call and ``integrands`` is called once on
    them, returning a sequence of integrands.  Returns (seg, pairs): each
    chunk's segment index and, per integrand, its Kronrod and Gauss values
    (chunks,).  ``pairs`` is empty when no segment has positive duration.
    """
    keep = np.flatnonzero(dur > 0.0)
    if keep.size == 0:
        return keep, []
    reps = np.maximum(1, np.ceil(dur[keep] / _CHUNK_CAP).astype(np.int64)) * subdiv
    seg, length = np.repeat(keep, reps), np.repeat(dur[keep] / reps, reps)
    rank = np.arange(seg.size) - np.repeat(np.cumsum(reps) - reps, reps)
    t_nodes = (rank * length)[:, None] + length[:, None] * _GK_X
    x_nodes = np.asarray(flow(t_nodes.ravel(), np.repeat(x[seg], _GK_X.size, axis=0)),
                         dtype=float)
    vals = [np.asarray(v, dtype=float).reshape(t_nodes.shape)
            for v in integrands(x_nodes)]
    # each chunk reduced on its own, never a BLAS product over chunks, so
    # that a chunk's value does not depend on the other chunks
    return seg, [(np.einsum("ck,k->c", v, _GK_W) * length,
                  np.einsum("ck,k->c", v, _G7_W) * length) for v in vals]


def integrate_along_path(exact, g, tol=1e-8):
    """Integral of g(X(s)) ds over [0, T] on a piecewise-flow trajectory.

    ``g`` maps a batch of states with shape (m, d) to values of shape (m,).
    Each level applies the Gauss-Kronrod 7-15 pair to every chunk and
    returns the Kronrod value K15 once |K15 - G7| < ``tol``; otherwise the
    chunks are halved, at most _MAX_LEVELS times in all.
    """
    subdiv = 1
    for _ in range(_MAX_LEVELS):
        _, pairs = _gk_chunks(exact.model.analytic.flow, lambda xs: (g(xs),),
                              exact.seg_states, exact.seg_durations, subdiv)
        kron, gauss = (float(np.sum(v)) for v in (pairs[0] if pairs else (0.0, 0.0)))
        if abs(kron - gauss) < tol:
            return kron
        subdiv *= 2
    warnings.warn(f"path integral refinement stalled at |K15 - G7|="
                  f"{abs(kron - gauss):.2e} (tol {tol:.1e})", stacklevel=2)
    return kron


def _martingale_integrands(model, F, gradF, xs):
    """Both integrands of the martingale check at states (m, d).

    Returns the generator AF(xs) and the predictable variation rate
    sum_k lambda_k(xs) (F(xs + nu_k) - F(xs))^2, each of shape (m,).  They
    share F(xs), every rate and every F(xs + nu_k), which are evaluated
    once.  Rates are clamped at 0, uncounted.
    """
    Fx = np.asarray(F(xs), dtype=float)
    af = np.sum(np.asarray(gradF(xs), dtype=float)
                * np.asarray(model.drift(xs), dtype=float), axis=-1)
    qv = np.zeros(xs.shape[0])
    for k, rate in enumerate(model.rates):
        lam = np.maximum(np.asarray(rate(xs), dtype=float), 0.0)
        dF = np.asarray(F(xs + model.jumps[k]), dtype=float) - Fx
        af = af + lam * dF
        qv = qv + lam * dF * dF
    return af, qv


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


class _PathSums:
    """Per-row (K15, G7) composite sums of both martingale path integrals.

    ``add`` takes each pass of exact_block's segments and hands them to
    _gk_chunks at integrate_along_path's first level, with ``integrands``
    returning the pair of integrands.  ``totals[i, 0]`` holds the Kronrod
    and ``totals[i, 1]`` the Gauss sum of integrand i, per row.  A row's
    sums are accumulated from its own chunks only, so they do not depend
    on which rows share its block.
    """

    def __init__(self, flow, integrands, rows):
        self.flow = flow
        self.integrands = integrands
        self.totals = np.zeros((2, 2, rows))

    def add(self, rows, x, dur):
        seg, pairs = _gk_chunks(self.flow, self.integrands, x, dur, 1)
        bins, width = rows[seg], self.totals.shape[2]
        for i, pair in enumerate(pairs):
            for r in range(2):
                self.totals[i, r] += np.bincount(bins, pair[r], minlength=width)


def martingale_check(model, F, gradF, x0, T, M, master_seed, threads=1, tol=1e-8):
    """Check the martingale and second-moment identities by exact simulation.

    F and gradF must accept batched states of shape (m, d) (returning (m,)
    and (m, d)); the built-in scalar models' coefficients broadcast the
    same way, which keeps the per-path time integrals vectorised.

    Replications are solved by exact_block in blocks of
    min(_MARTINGALE_BLOCK_ROWS, ceil(M / threads)) rows, one task each, so
    each worker usually runs one block, and both path integrals are summed
    as the paths are built.  A row's value is its Kronrod sum K15; a row
    whose K15 and G7 sums differ by ``tol`` or more is recomputed by
    integrate_along_path on its exact_trajectory, which refines further.
    """
    if M < 2:
        raise ConfigurationError(f"martingale check needs M >= 2, got {M}")
    integrands = functools.partial(_martingale_integrands, model, F, gradF)
    p = model.jump_count
    x0 = np.asarray(x0, dtype=float).reshape(model.dim)
    f_start = float(np.asarray(F(x0.reshape(1, -1)), dtype=float).reshape(-1)[0])

    def worker(reps):
        sums = _PathSums(model.analytic.flow, integrands, len(reps))
        ends = exact_block(model, master_seed, reps, x0, T, sums.add)
        f_end = np.asarray(F(ends.endpoints), dtype=float).reshape(-1)
        kron, gauss = sums.totals[:, 0], sums.totals[:, 1]
        vals = kron.copy()
        unsettled = ~(np.abs(kron - gauss) < tol)
        for row in np.flatnonzero(unsettled.any(axis=0)):
            traj = exact_trajectory(model, PathBundle(master_seed, reps[row], p),
                                    x0, T)
            for i in np.flatnonzero(unsettled[:, row]):
                vals[i, row] = integrate_along_path(
                    traj, lambda xs, i=i: integrands(xs)[i], tol=tol)
        return f_end - f_start - vals[0], vals[1]

    blocks = _blocks(M, min(_MARTINGALE_BLOCK_ROWS, -(-M // max(1, int(threads)))))
    results = run_replications(lambda b: worker(blocks[b]), len(blocks), threads)
    mf = np.concatenate([r[0] for r in results])
    qv = np.concatenate([r[1] for r in results])
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
