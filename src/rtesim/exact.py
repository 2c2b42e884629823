"""Exact jump-adapted solving and the fine-step reference protocol.

For models with analytic hooks the trajectory is constructed jump by jump:
each internal clock runs toward its next Poisson epoch, the cumulative
hazard inverse gives the physical time at which each clock would hit, and
the earliest hitter fires.  Between jumps the state follows the closed-form
flow, so the result is exact up to floating-point roundoff.  Models without
hooks fall back to a fine-step reference run on the same epoch streams.

``exact_trajectory`` builds one path and keeps it; ``exact_block`` runs a
block of replications in lock step and streams their segments instead.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (ConfigurationError, GridError, ModelEvaluationError,
                     QueryError, RunawayJumpError, UnsupportedModelError,
                     in_replication)
from .poisson import epoch_generator, next_epochs
from .stepper import SolverConfig, grid_steps, solve_trajectory


@dataclass
class ExactTrajectory:
    """Jump log plus per-segment flow data; any interior point reconstructs.

    Segment i starts at ``seg_starts[i]`` in state ``seg_states[i]`` and
    follows the flow for ``seg_durations[i]``; jumps sit exactly at the
    segment boundaries.  ``clocks`` holds the final internal times tau_k(T).
    """

    model: object
    x0: np.ndarray
    T: float
    jump_times: np.ndarray
    jump_ids: np.ndarray
    states_post_jump: np.ndarray
    seg_starts: np.ndarray
    seg_states: np.ndarray
    seg_durations: np.ndarray
    clocks: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def jump_count(self):
        return len(self.jump_times)

    @property
    def endpoint(self):
        return self.state_at(self.T)

    def state_at(self, t):
        """State at time t in [0, T] (right-continuous at jumps).

        A time array of shape (m,) gives the states (m, d) in one flow call.
        """
        t = np.asarray(t, dtype=float)
        if not ((0.0 <= t) & (t <= self.T)).all():
            raise ConfigurationError(f"t={t} outside [0, {self.T}]")
        i = np.searchsorted(self.seg_starts, t, side="right") - 1
        s = np.minimum(t - self.seg_starts[i], self.seg_durations[i])
        return np.asarray(self.model.analytic.flow(s, self.seg_states[i]), dtype=float)

    def sample_grid(self, h_out):
        """States on the grid n*h_out, for plotting/export."""
        n = grid_steps(self.T, h_out)
        times = np.arange(n + 1) * h_out
        return times, self.state_at(np.minimum(times, self.T))

    def write_jumps_csv(self, fileobj, comments=()):
        d = self.states_post_jump.shape[1] if self.jump_count else self.model.dim
        for line in comments:
            fileobj.write(f"# {line}\n")
        cols = ["jump_time", "process_id"] + [f"x_{i + 1}" for i in range(d)]
        fileobj.write(",".join(cols) + "\n")
        for i in range(self.jump_count):
            row = [repr(float(self.jump_times[i])), str(int(self.jump_ids[i]) + 1)]
            row += [repr(float(v)) for v in self.states_post_jump[i]]
            fileobj.write(",".join(row) + "\n")

    def write_segments_csv(self, fileobj, comments=()):
        d = self.seg_states.shape[1]
        for line in comments:
            fileobj.write(f"# {line}\n")
        cols = ["seg_start", "duration"] + [f"x_{i + 1}" for i in range(d)]
        fileobj.write(",".join(cols) + "\n")
        for i in range(len(self.seg_starts)):
            row = [repr(float(self.seg_starts[i])), repr(float(self.seg_durations[i]))]
            row += [repr(float(v)) for v in self.seg_states[i]]
            fileobj.write(",".join(row) + "\n")


def _require_hooks(model):
    if model.analytic is None:
        raise UnsupportedModelError(
            f"model {model.name!r} has no analytic hooks; use a fine-step "
            f"reference (ReferenceSpec) instead of exact solving")
    return model.analytic


def _scan_clocks(hooks, p, x, clocks, paths):
    """Earliest clock to hit its next epoch: (k, dt, epoch)."""
    best_k, best_dt, best_epoch = None, math.inf, math.inf
    for k in range(p):
        epoch = paths[k].next_epoch_after(clocks[k])
        t_k = hooks.hazard_inverse[k](epoch - clocks[k], x)
        if math.isnan(t_k) or t_k < 0.0:
            raise ModelEvaluationError(
                f"hazard_inverse[{k}] returned {t_k!r} at x={x!r}", x=x)
        if t_k < best_dt:  # strict: ties break to the lowest index
            best_k, best_dt, best_epoch = k, t_k, epoch
    return best_k, best_dt, best_epoch


def next_jump(model, x, clocks, paths):
    """Which process fires next from state x, and after how long.

    Returns (k, dt) with k None and dt infinity when every cumulative
    hazard stays below its next epoch forever.
    """
    hooks = _require_hooks(model)
    x = np.asarray(x, dtype=float)
    k, dt, _ = _scan_clocks(hooks, model.jump_count, x, clocks, paths)
    return (k, dt) if dt < math.inf else (None, math.inf)


def exact_trajectory(model, paths, x0, T, max_jumps=10_000_000):
    """Davis construction on the given epoch streams over [0, T]."""
    hooks = _require_hooks(model)
    p, d = model.jump_count, model.dim
    flow = hooks.flow
    hazard = hooks.hazard_integral
    try:
        x = np.asarray(x0, dtype=float).reshape(d).copy()
    except ValueError:
        raise ConfigurationError(
            f"initial state {x0!r} does not match model dimension {d}") from None
    clocks = np.zeros(p)
    t = 0.0
    seg_starts, seg_states, seg_durs = [], [], []
    jump_times, jump_ids, post_states = [], [], []
    while True:
        k, dt, epoch = _scan_clocks(hooks, p, x, clocks, paths)
        if k is None or t + dt > T:
            rem = max(T - t, 0.0)
            for j in range(p):
                clocks[j] += hazard[j](rem, x)
            seg_starts.append(t)
            seg_states.append(x)
            seg_durs.append(rem)
            break
        for j in range(p):
            if j != k:
                clocks[j] += hazard[j](dt, x)
        clocks[k] = epoch  # lands exactly on the epoch by the inverse identity
        seg_starts.append(t)
        seg_states.append(x)
        seg_durs.append(dt)
        x = np.asarray(flow(dt, x), dtype=float) + model.jumps[k]
        t += dt
        jump_times.append(t)
        jump_ids.append(k)
        post_states.append(x)
        if len(jump_times) > max_jumps:
            raise RunawayJumpError(
                f"more than {max_jumps} jumps before t={t:g} (T={T}); "
                f"runaway rates or too small a jump height")
    return ExactTrajectory(
        model=model,
        x0=np.asarray(x0, dtype=float).reshape(d),
        T=T,
        jump_times=np.array(jump_times),
        jump_ids=np.array(jump_ids, dtype=np.int64),
        states_post_jump=(np.array(post_states) if post_states
                          else np.empty((0, d))),
        seg_starts=np.array(seg_starts),
        seg_states=np.array(seg_states),
        seg_durations=np.array(seg_durs),
        clocks=clocks,
        meta={"model": model.name},
    )


class BlockEnds(NamedTuple):
    """Where each row of an exact_block run ended.

    ``endpoints`` (B, d) are the states at T, ``clocks`` (B, p) the final
    internal times tau_k(T) and ``jump_counts`` (B,) the number of jumps.
    """

    endpoints: np.ndarray
    clocks: np.ndarray
    jump_counts: np.ndarray


class _EpochWindows:
    """The current epoch batch of every (row, process) stream of a block.

    Each stream draws its batches exactly as PoissonPath does, so a window
    holds the epochs PoissonPath would list at the same positions; only
    the batch that the cursor sits in is kept.
    """

    def __init__(self, master_seed, replications, p, batch=128):
        self.batch = batch
        self.gens = [[epoch_generator(master_seed, j, k) for k in range(p)]
                     for j in replications]
        self.win = np.array([[next_epochs(g, 0.0, batch) for g in row]
                             for row in self.gens]).reshape(-1, p, batch)
        self.cur = np.zeros((len(self.gens), p), dtype=np.intp)
        self._reindex()

    def _reindex(self):
        m, p = self.cur.shape
        self._flat = self.win.reshape(-1)
        self._base = np.arange(m * p).reshape(m, p) * self.batch

    def next_after(self, clocks):
        """Smallest epoch strictly above each clock, shape (m, p).

        Clocks never decrease, so cursors only move forward.
        """
        while True:
            ep = self._flat[self._base + self.cur]
            behind = ep <= clocks
            if not behind.any():
                return ep
            self.cur += behind
            for i, k in zip(*np.nonzero(self.cur == self.batch)):
                self.win[i, k] = next_epochs(self.gens[i][k],
                                             self.win[i, k, -1], self.batch)
                self.cur[i, k] = 0

    def keep(self, mask):
        """Drop the rows where ``mask`` is False."""
        self.gens = [g for g, kept in zip(self.gens, mask) if kept]
        self.win = self.win[mask]
        self.cur = self.cur[mask]
        self._reindex()


def exact_block(model, master_seed, replications, x0, T, on_segment,
                max_jumps=10_000_000):
    """Davis construction of a block of replications, in lock step.

    Row i solves replication ``replications[i]`` on the epochs that
    ``PathBundle(master_seed, replications[i], p)`` holds, and agrees with
    exact_trajectory on that bundle bit for bit (given hooks whose batched
    calls compute each row as their single-state calls do, as the built-in
    ones do).  Each pass advances every unfinished row by one segment:
    ``flow`` and each ``hazard_integral`` are called once on all those
    rows, ``hazard_inverse`` once per row and process.  Paths are not stored: each pass hands its segments to
    ``on_segment(rows, x, dur)`` -- block row indices (m,), segment start
    states (m, d) and durations (m,) -- so every row's segments arrive in
    path order.  Returns BlockEnds.
    """
    hooks = _require_hooks(model)
    p, d = model.jump_count, model.dim
    flow = hooks.flow
    try:
        x0 = np.asarray(x0, dtype=float).reshape(d)
    except ValueError:
        raise ConfigurationError(
            f"initial state {x0!r} does not match model dimension {d}") from None
    reps = list(replications)
    B = len(reps)
    ends = BlockEnds(np.empty((B, d)), np.empty((B, p)),
                     np.empty(B, dtype=np.int64))
    if B == 0:
        return ends
    rows = np.arange(B)
    x = np.repeat(x0[None, :], B, axis=0)
    t = np.zeros(B)
    clocks = np.zeros((B, p))
    epochs = _EpochWindows(master_seed, reps, p)
    jumps = 0  # every active row has jumped once per pass so far
    while rows.size:
        if not (clocks.min() >= 0.0 and clocks.max() < math.inf):
            i, k = np.argwhere(~(np.isfinite(clocks) & (clocks >= 0.0)))[0]
            raise in_replication(QueryError(
                f"next_epoch_after needs finite u >= 0, "
                f"got {float(clocks[i, k])!r}"), reps[rows[i]])
        ep = epochs.next_after(clocks)
        delta = ep - clocks
        tk = np.empty_like(delta)
        for k, inverse in enumerate(hooks.hazard_inverse):
            tk[:, k] = [inverse(dl, xi) for dl, xi in zip(delta[:, k].tolist(), x)]
        if not (tk >= 0.0).all():  # NaN fails too
            k, i = np.argwhere(~(tk >= 0.0).T)[0]
            raise in_replication(ModelEvaluationError(
                f"hazard_inverse[{k}] returned {float(tk[i, k])!r} at x={x[i]!r}",
                x=x[i]), reps[rows[i]])
        # argmin keeps the first minimum: ties break to the lowest index
        best = tk.argmin(axis=1)
        pick = np.arange(rows.size), best
        dt = tk[pick]
        stop = t + dt > T
        dur = np.where(stop, np.maximum(T - t, 0.0), dt)
        for j, hazard in enumerate(hooks.hazard_integral):
            clocks[:, j] += hazard(dur, x)
        # the firing clock lands exactly on its epoch (inverse identity)
        clocks[pick] = np.where(stop, clocks[pick], ep[pick])
        on_segment(rows, x, dur)
        x_end = np.asarray(flow(dur, x), dtype=float)
        t = t + dur
        if stop.any():
            done = rows[stop]
            ends.endpoints[done] = x_end[stop]
            ends.clocks[done] = clocks[stop]
            ends.jump_counts[done] = jumps
            go = ~stop
            rows, t, clocks = rows[go], t[go], clocks[go]
            x = x_end[go] + model.jumps[best[go]]
            epochs.keep(go)
        else:
            x = x_end + model.jumps[best]
        jumps += 1
        if rows.size and jumps > max_jumps:
            raise in_replication(RunawayJumpError(
                f"more than {max_jumps} jumps before t={t[0]:g} (T={T}); "
                f"runaway rates or too small a jump height"), reps[rows[0]])
    return ends


@dataclass(frozen=True)
class ReferenceSpec:
    """Fine-step reference protocol for models without analytic hooks.

    The reference grid must nest into every experimental grid, i.e. h_ref
    divides each experimental h.
    """

    h_ref: float = 1.0 / 320.0
    config_ref: SolverConfig = None

    def __post_init__(self):
        if not self.h_ref > 0:
            raise ConfigurationError(f"h_ref must be positive, got {self.h_ref}")
        if self.config_ref is not None and self.config_ref.h != self.h_ref:
            raise ConfigurationError(
                f"config_ref.h={self.config_ref.h} differs from h_ref={self.h_ref}")

    def resolve_config(self):
        if self.config_ref is not None:
            return self.config_ref
        # explicit Euler treats every variant family alike: a reference that
        # shares a variant's scheme cancels their common error at the finest
        # steps and distorts fitted orders
        return SolverConfig(theta=0.0, h=self.h_ref, quadrature="euler")

    def check_nesting(self, h_values):
        for h in h_values:
            ratio = h / self.h_ref
            if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio) or ratio < 1 - 1e-9:
                raise GridError(
                    f"reference step h_ref={self.h_ref} does not divide h={h}")


def reference_trajectory(model, spec, paths, x0, T):
    """Fine-step run used in place of an exact solution."""
    return solve_trajectory(model, spec.resolve_config(), paths, x0, T)
