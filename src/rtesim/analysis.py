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
import os
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (ConfigurationError, FitError, ModelEvaluationError,
                     RteSimError, UnsupportedModelError, in_replication)
from .exact import exact_block, exact_trajectory
from .model import eval_drift, initial_state
from .poisson import EpochWindows, PathBundle
# strong_error calls solve_lockstep; solve_trajectory is imported so that
# perfbench/tracer.py, which looks it up here by name, still finds it
from .stepper import (SolverConfig, _jump_sum, _phi3_rows, check_nesting,
                      grid_steps, lockstep_chains, solve_lockstep,
                      solve_trajectory, step_size_warning)

# ---------------------------------------------------------------------------
# replication worker pool (fork-based; serial fallback elsewhere)

_ACTIVE_WORKER = None


def _pool_call(j):
    return _ACTIVE_WORKER(j)


def _usable_cpus():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _workers(threads):
    """Worker processes for ``threads``: at least 1, at most the usable CPUs."""
    return min(max(1, int(threads)), _usable_cpus())


def run_replications(worker, M, threads=1):
    """Evaluate worker(0..M-1), in index order, optionally in parallel.

    Each index is its own pool task, since tasks may differ in cost.  The
    pool has at most min(threads, M) processes and no more than the usable
    CPUs.  When several tasks fail, the error of the lowest index is
    raised, at any thread count.
    """
    threads = _workers(threads)
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

# Most rows per block of replications; results do not depend on it.
# strong_error fills blocks with replications and groups configs into the
# rows left; martingale_check gives each worker one block.  Neither block
# solve keeps a path, so a block's memory does not grow with its steps.
_BLOCK_ROWS = 1024


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


def _mean_se(samples):
    """Mean over axis 0 and its standard error (ddof 1), zeros when n = 1."""
    n = len(samples)
    if n == 1:
        return samples.mean(axis=0), np.zeros(samples.shape[1:])
    return samples.mean(axis=0), samples.std(axis=0, ddof=1) / math.sqrt(n)


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

    Replications are solved in blocks of min(_BLOCK_ROWS, M) rows.  Each
    chain of stepper.lockstep_chains(configs) is cut into runs of at most
    _BLOCK_ROWS // (rows of the first block) configs, which form the
    groups; the reference is a group of one.  A task is one group on one
    block, which solve_lockstep runs config-major in one pass per step of
    the group's finest grid, keeping only the current states.  The exact
    reference runs exact_trajectory on its rows one by one, at the scalar
    cost per jump.  Tasks run block by block: the reference first, then
    the groups from finest to coarsest first h, so the longest tasks
    start first.

    A block solve pays a fixed cost per pass that grows slowly with its
    rows: on the linear-scalar study model (M = 4, T = 5, 2-vCPU VM) the
    three variants as six 12-row groups, h = 2^-2 to 2^-7, took 146 ms for
    1260 steps, and as one 72-row group 92 ms for 640 passes.  So the
    configs of a block share its task, and blocks are not split across
    threads.  At M = 128 a group holds 8 configs: criterion 3's four
    variants at h = 1/160 took 1.53 s of CPU as one 512-row group, against
    1.86 s as four 128-row solves (best of 3).  From M = 1024 on, every
    config solves alone.

    A failure raises the error of the first failing task in that order,
    at any thread count, then of its earliest failing pass, then of its
    lowest failing row (configs in ascending h, then in order of
    appearance, then replications), naming the replication and the config.
    An error's ``step`` is the config's own step index.
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
    blocks = _blocks(M, _BLOCK_ROWS)
    size = max(1, _BLOCK_ROWS // len(blocks[0]))
    groups = [[0]] + sorted(([k + 1 for k in c[i:i + size]]
                             for c in lockstep_chains(configs)
                             for i in range(0, len(c), size)),
                            key=lambda g: solvers[g[0]].h)

    def exact_end(i, j):
        try:
            return exact_trajectory(model, PathBundle(master_seed, j, p), x0, T).endpoint
        except RteSimError as e:
            e.row = i
            raise in_replication(e, j, "reference", config="reference") from e

    def solve(group, reps):
        if use_exact and group == [0]:
            return np.stack([exact_end(i, j) for i, j in enumerate(reps)])
        try:
            windows = EpochWindows(master_seed, list(reps) * len(group), p)
            return solve_lockstep(model, [solvers[k] for k in group], windows,
                                  x0, T).endpoints
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
    means, ses = _mean_se(dist(signed))  # (nconfig,) each
    rows = [ErrorRow(cfg.h, float(means[i]), float(ses[i]), M)
            for i, cfg in enumerate(configs)]
    return ErrorReport(rows=rows, signed_errors=signed)


# ---------------------------------------------------------------------------
# local one-step errors sampled on the exact solution


@dataclass(frozen=True)
class LocalErrorSample:
    """One step's drift (L) and clock (K) errors, as perfbench's probe shapes
    a local-error result.  No rtesim function returns it; it goes when the
    probe shapes local_errors' arrays instead.
    """

    n: int
    L_abs: float
    K_abs: float


def local_errors(model, exact, configs):
    """L and K of every grid step of each config, measured on ``exact``.

    Returns one (nbar, 2) float array of (L_abs, K_abs) per config, in step
    order.  Every config of one step size reads one _step_pieces table of
    the path; the config's theta rule and quadrature are applied here.
    """
    tables, norm, out = {}, _norm_fn("euclidean"), []
    for cfg in configs:
        if cfg.h not in tables:
            tables[cfg.h] = _step_pieces(model, exact, cfg.h)
        drift_int, hazard_int, x_grid, f_grid = tables[cfg.h]
        h = cfg.h
        L = drift_int - h * ((1.0 - cfg.theta) * f_grid[:-1] + cfg.theta * f_grid[1:])
        phis, _ = _phi3_rows(model, x_grid[:-1], h, cfg.quadrature, cfg.clamp_phi3)
        K = _jump_sum(hazard_int - h * phis, model)
        out.append(norm(np.stack([L, K], axis=1)))
    return out


def _step_pieces(model, exact, h):
    """What every config of step ``h`` reads of the path ``exact``.

    Returns (drift_int, hazard_int, x_grid, f_grid): per grid step the
    drift integral (nbar, d) and the hazard integrals (nbar, p), per grid
    time the state and its drift (nbar + 1, d).  The path's flow segments
    are split at the grid times and both integrals are summed in closed
    form piece by piece, so the only approximation in a local error is the
    quadrature rule under test.  Every hook is called once, on the whole
    batch of pieces or grid states.
    """
    hooks = model.analytic
    if hooks is None or hooks.drift_integral is None:
        raise UnsupportedModelError(
            f"local error sampling needs analytic hooks with a drift integral; "
            f"model {model.name!r} does not provide them")
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
    return drift_int, hazard_int, x_grid, eval_drift(model, x_grid)


def local_error_study(model, configs, x0, T, M, master_seed, threads=1):
    """local_errors of every config on the exact paths of M replications.

    Replication j's path is exact_trajectory on PathBundle(master_seed, j,
    p), one task per replication.  Returns one tuple per config, holding
    each replication's local_errors array, in replication order.  A failure
    raises the error of the lowest failing replication, naming it.
    """
    if M < 1:
        raise ConfigurationError(f"replication count M must be >= 1, got {M}")
    p = model.jump_count

    def worker(j):
        try:
            return local_errors(model, exact_trajectory(
                model, PathBundle(master_seed, j, p), x0, T), configs)
        except RteSimError as e:
            raise in_replication(e, j) from e

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
    them, returning a sequence of integrands.  Returns (seg, kron, gauss):
    each chunk's segment index and the Kronrod and Gauss values
    (integrands, chunks), which have no rows when no segment has positive
    duration.
    """
    keep = np.flatnonzero(dur > 0.0)
    if keep.size == 0:
        return keep, np.zeros((0, 0)), np.zeros((0, 0))
    seg, length = keep, dur[keep]
    if subdiv > 1 or length.max() > _CHUNK_CAP:
        reps = np.maximum(1, np.ceil(length / _CHUNK_CAP).astype(np.int64)) * subdiv
        seg, length = np.repeat(keep, reps), np.repeat(length / reps, reps)
        rank = np.arange(seg.size) - np.repeat(np.cumsum(reps) - reps, reps)
        t_nodes = (rank * length)[:, None] + length[:, None] * _GK_X
    else:
        # one chunk per segment: the general nodes with rank 0, bit for bit
        t_nodes = length[:, None] * _GK_X
    x_nodes = np.asarray(flow(t_nodes.ravel(), np.repeat(x[seg], _GK_X.size, axis=0)),
                         dtype=float)
    vals = np.asarray(integrands(x_nodes), dtype=float).reshape(-1, *t_nodes.shape)
    # each chunk reduced on its own, never a BLAS product over chunks, so
    # that a chunk's value does not depend on the other chunks
    return (seg, np.einsum("ick,k->ic", vals, _GK_W) * length,
            np.einsum("ick,k->ic", vals, _G7_W) * length)


def integrate_along_path(exact, g, tol=1e-8):
    """Integral of g(X(s)) ds over [0, T] on a piecewise-flow trajectory.

    ``g`` maps a batch of states with shape (m, d) to values of shape (m,).
    Each level applies the Gauss-Kronrod 7-15 pair to every chunk and
    returns the Kronrod value K15 once |K15 - G7| < ``tol``; otherwise the
    chunks are halved, at most _MAX_LEVELS times in all.
    """
    subdiv = 1
    for _ in range(_MAX_LEVELS):
        _, kron, gauss = _gk_chunks(exact.model.analytic.flow, lambda xs: (g(xs),),
                                    exact.seg_states, exact.seg_durations, subdiv)
        kron, gauss = (float(np.sum(v[0])) if v.size else 0.0 for v in (kron, gauss))
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
        jump = lam * dF
        af += jump
        jump *= dF
        qv += jump
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


def martingale_check(model, F, gradF, x0, T, M, master_seed, threads=1, tol=1e-8):
    """Check the martingale and second-moment identities by exact simulation.

    F and gradF must accept batched states of shape (m, d) (returning (m,)
    and (m, d)); the built-in scalar models' coefficients broadcast the
    same way, which keeps the per-path time integrals vectorised.

    Replications are solved by exact_block in blocks of
    min(_BLOCK_ROWS, ceil(M / workers)) rows, workers =
    min(threads, usable CPUs), one task each.  Both path integrals are
    summed as the paths are built, at integrate_along_path's first level;
    a row's sums come from its own chunks only, so they do not depend on
    its block.  A row's value is its Kronrod sum K15; a row whose K15 and
    G7 sums differ by ``tol`` or more is recomputed by
    integrate_along_path on its exact_trajectory, which refines further.
    Before that, a row whose sums or F(X_T) are not finite raises
    ModelEvaluationError naming its replication, the lowest such row first.
    A non-finite F(x0) raises ModelEvaluationError before any block runs.
    """
    if M < 2:
        raise ConfigurationError(f"martingale check needs M >= 2, got {M}")
    integrands = functools.partial(_martingale_integrands, model, F, gradF)
    p = model.jump_count
    x0 = initial_state(model, x0)
    f_start = float(np.asarray(F(x0.reshape(1, -1)), dtype=float).reshape(-1)[0])
    if not math.isfinite(f_start):
        raise ModelEvaluationError(f"F(x0) = {f_start!r} is not finite", x=x0)

    def worker(reps):
        kron, gauss = np.zeros((2, 2, len(reps)))  # per integrand and row

        def add(rows, x, dur):
            seg, k15, g7 = _gk_chunks(model.analytic.flow, integrands, x, dur, 1)
            bins = rows[seg]
            for i in range(len(k15)):
                kron[i] += np.bincount(bins, k15[i], minlength=len(reps))
                gauss[i] += np.bincount(bins, g7[i], minlength=len(reps))

        ends = exact_block(model, master_seed, reps, x0, T, add)
        f_end = np.asarray(F(ends.endpoints), dtype=float).reshape(-1)
        finite = (np.isfinite(kron).all(axis=0) & np.isfinite(gauss).all(axis=0)
                  & np.isfinite(f_end))
        if not finite.all():  # before any refinement, which cannot mend it
            row = int(np.argmin(finite))
            raise in_replication(ModelEvaluationError(
                f"non-finite path sums (K15 {kron[:, row].tolist()}, G7 "
                f"{gauss[:, row].tolist()}) or F(X_T) {float(f_end[row])!r}"),
                reps[row])
        vals = kron.copy()
        unsettled = ~(np.abs(kron - gauss) < tol)
        for row in np.flatnonzero(unsettled.any(axis=0)):
            traj = exact_trajectory(model, PathBundle(master_seed, reps[row], p),
                                    x0, T)
            for i in np.flatnonzero(unsettled[:, row]):
                vals[i, row] = integrate_along_path(
                    traj, lambda xs, i=i: integrands(xs)[i], tol=tol)
        return f_end - f_start - vals[0], vals[1]

    blocks = _blocks(M, min(_BLOCK_ROWS, -(-M // _workers(threads))))
    results = run_replications(lambda b: worker(blocks[b]), len(blocks), threads)
    mf = np.concatenate([r[0] for r in results])
    qv = np.concatenate([r[1] for r in results])
    mean, se_mean = map(float, _mean_se(mf))
    if se_mean > 0.0:
        abs_z = abs(mean) / se_mean
    else:
        abs_z = 0.0 if mean == 0.0 else math.inf
    lhs, se_lhs = map(float, _mean_se(mf * mf))
    rhs, se_rhs = map(float, _mean_se(qv))
    return MartingaleCheck(mean=mean, abs_z=abs_z, second_moment_lhs=lhs,
                           second_moment_rhs=rhs, se_mean=se_mean,
                           se_lhs=se_lhs, se_rhs=se_rhs, M=M)
