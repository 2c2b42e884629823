"""Exact jump-adapted solving.

For models with analytic hooks the trajectory is constructed jump by jump:
each internal clock runs toward its next Poisson epoch, the cumulative
hazard inverse gives the physical time at which each clock would hit, and
the earliest hitter fires.  Between jumps the state follows the closed-form
flow, so the result is exact up to floating-point roundoff.  Models without
hooks have no exact path: their reference is a fine-step run of the
fixed-step solver (a SolverConfig) on the same epoch streams.

``exact_trajectory`` builds one path and keeps it; ``exact_block`` runs a
block of replications in lock step and streams their segments instead, which
a ``PathRecord`` can keep.  ``exact_rows`` picks between the two.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (ConfigurationError, ModelEvaluationError, QueryError, RteSimError,
                     RunawayJumpError, UnsupportedModelError, in_replication)
from .model import initial_state
from .poisson import EpochWindows, PathBundle
from .stepper import grid_steps

MAX_JUMPS = 10_000_000  # most jumps an exact path may take
MIN_BLOCK_ROWS = 16  # fewest rows exact_rows solves with exact_block (README)


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

    @classmethod
    def from_segments(cls, model, T, states, durations, starts, fired, clocks):
        """One row's path from its on_segment arrays (see exact_block)."""
        return cls(model=model, x0=states[0], T=T, jump_times=starts[1:],
                   jump_ids=fired[:-1], states_post_jump=states[1:], seg_starts=starts,
                   seg_states=states, seg_durations=durations, clocks=clocks)


class PathRecord(list):
    """An ``on_segment`` that keeps the arrays of each call, which the exact
    solvers never reuse; ``paths`` sorts them into each row's path."""

    def __call__(self, *arrays):
        self.append(arrays)

    def paths(self, model, T, ends):
        """Each row's ExactTrajectory, in row order; empties the record."""
        fields = [list(part) for part in zip(*self)]
        self.clear()
        # stable, so that each row's segments stay in path order
        order = np.argsort(np.concatenate(fields.pop(0)), kind="stable")
        cuts, split = np.cumsum(ends.jump_counts + 1)[:-1], []
        while fields:  # popped, so that one field at a time is held twice
            split.append(np.split(np.concatenate(fields.pop(0))[order], cuts))
        return [ExactTrajectory.from_segments(model, T, *row, clocks)
                for *row, clocks in zip(*split, ends.clocks)]


def _require_hooks(model):
    if model.analytic is None:
        raise UnsupportedModelError(
            f"model {model.name!r} has no analytic hooks; use a fine-step "
            f"reference (a SolverConfig) instead of exact solving")
    return model.analytic


def _runaway(t, T):
    return RunawayJumpError(f"more than {MAX_JUMPS} jumps before t={t:g} (T={T}); "
                            f"runaway rates or too small a jump height")


def _bad_inverse(k, t_k, x):
    return ModelEvaluationError(f"hazard_inverse[{k}] returned {t_k!r} at x={x!r}", x=x)


def _in_row(error, row, replication):
    """``error`` with ``row`` set, named by its replication, from the original."""
    error.row = int(row)
    located = in_replication(error, replication)
    located.__cause__ = error
    return located


def exact_trajectory(model, paths, x0, T):
    """Davis construction on the given epoch streams over [0, T]."""
    hooks = _require_hooks(model)
    p = model.jump_count
    flow, inverses, hazards = hooks.flow, hooks.hazard_inverse, hooks.hazard_integral
    next_epochs = [paths[j].next_epoch_after for j in range(p)]
    jumps = list(model.jumps)
    x = initial_state(model, x0)
    clocks = [0.0] * p
    t = 0.0
    seg_starts, seg_states, seg_durs, fired = [], [], [], []
    while True:
        # the clock that hits its next epoch first fires
        k, dt, epoch = -1, math.inf, math.inf
        for j in range(p):
            e_j = next_epochs[j](clocks[j])
            t_j = inverses[j](e_j - clocks[j], x)
            if math.isnan(t_j) or t_j < 0.0:
                raise _bad_inverse(j, t_j, x)
            if t_j < dt:  # strict: ties break to the lowest index
                k, dt, epoch = j, t_j, e_j
        final = k < 0 or t + dt > T
        if final:  # the last segment runs to T and no clock fires
            k, dt = -1, max(T - t, 0.0)
        for j in range(p):
            if j != k:
                clocks[j] += hazards[j](dt, x)
        seg_starts.append(t)
        seg_states.append(x)
        seg_durs.append(dt)
        fired.append(k)
        if final:
            break
        clocks[k] = epoch  # lands exactly on the epoch by the inverse identity
        x = np.asarray(flow(dt, x), dtype=float) + jumps[k]
        t += dt
        if len(fired) > MAX_JUMPS:
            raise _runaway(t, T)
    return ExactTrajectory.from_segments(
        model, T, np.array(seg_states), np.array(seg_durs), np.array(seg_starts),
        np.array(fired, dtype=np.int64), np.array(clocks))


class BlockEnds(NamedTuple):
    """Where each row of an exact_block run ended.

    ``endpoints`` (B, d) are the states at T, ``clocks`` (B, p) the final
    internal times tau_k(T) and ``jump_counts`` (B,) the number of jumps.
    """

    endpoints: np.ndarray
    clocks: np.ndarray
    jump_counts: np.ndarray


def exact_block(model, master_seed, replications, x0, T, on_segment=None):
    """Davis construction of a block of replications, in lock step.

    Row i solves replication ``replications[i]`` on the epochs that
    ``PathBundle(master_seed, replications[i], p)`` holds, and agrees with
    exact_trajectory on that bundle bit for bit (given hooks whose batched
    calls compute each row as their single-state calls do, as the built-in
    ones do; see AnalyticHooks).  Each pass advances every unfinished row
    by one segment: ``flow`` and each ``hazard_integral`` and
    ``hazard_inverse`` are called once on all those rows, increments (m,)
    with states (m, d).  Paths are not stored: each pass hands its
    segments to ``on_segment(rows, x, dur, t, fired)``, if given, in new
    arrays -- block row indices (m,), start states (m, d), durations, start
    times, and the process that fires at the end, -1 on a row's last -- so
    every row's segments arrive in path order.  Returns BlockEnds.  A
    failing row's error has ``row`` set and names its replication.
    """
    hooks = _require_hooks(model)
    p, d = model.jump_count, model.dim
    flow = hooks.flow
    x0 = initial_state(model, x0)
    reps = list(replications)
    B = len(reps)
    ends = BlockEnds(np.empty((B, d)), np.empty((B, p)),
                     np.empty(B, dtype=np.int64))
    rows = np.arange(B)
    x = np.repeat(x0[None, :], B, axis=0)
    t = np.zeros(B)
    clocks = np.zeros((B, p))
    epochs = EpochWindows(master_seed, reps, p)
    jumps = 0  # every active row has jumped once per pass so far
    while rows.size:
        if not (clocks.min() >= 0.0 and clocks.max() < math.inf):
            i, k = np.argwhere(~(np.isfinite(clocks) & (clocks >= 0.0)))[0]
            raise _in_row(QueryError(
                f"next_epoch_after needs finite u >= 0, "
                f"got {float(clocks[i, k])!r}"), rows[i], reps[rows[i]])
        ep = epochs.next_after(clocks)
        delta = ep - clocks
        tk = np.empty_like(delta)
        for k, inverse in enumerate(hooks.hazard_inverse):
            tk[:, k] = inverse(delta[:, k], x)
        if not (tk >= 0.0).all():  # NaN fails too
            k, i = np.argwhere(~(tk >= 0.0).T)[0]
            raise _in_row(_bad_inverse(k, float(tk[i, k]), x[i]), rows[i],
                          reps[rows[i]])
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
        if on_segment is not None:
            on_segment(rows, x, dur, t, np.where(stop, -1, best))
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
        if rows.size and jumps > MAX_JUMPS:
            raise _in_row(_runaway(t[0], T), rows[0], reps[rows[0]])
    return ends


def exact_rows(model, master_seed, replications, x0, T, on_segment=None):
    """exact_block's BlockEnds, from exact_block on MIN_BLOCK_ROWS rows or
    more.  A smaller block, or a failed one, runs exact_trajectory row by
    row, which hands each row's segments to ``on_segment`` in one call
    (after a failed block, nothing).  A failure raises the lowest failing
    row's error with ``row`` set, else the block's own; the caller names
    the replication."""
    reps, failure, p = list(replications), None, model.jump_count
    if len(reps) >= MIN_BLOCK_ROWS:
        try:
            return exact_block(model, master_seed, reps, x0, T, on_segment)
        except RteSimError as e:  # a row's error comes named, from the original
            failure, on_segment = (e if e.row is None else e.__cause__), None
    ends = BlockEnds(np.empty((len(reps), model.dim)), np.empty((len(reps), p)),
                     np.empty(len(reps), dtype=np.int64))
    for i, j in enumerate(reps):
        try:
            path = exact_trajectory(model, PathBundle(master_seed, j, p), x0, T)
        except RteSimError as e:
            e.row = i
            raise
        if on_segment is not None:
            on_segment(np.full(len(path.seg_starts), i), path.seg_states,
                       path.seg_durations, path.seg_starts,
                       np.append(path.jump_ids, -1))
        ends.endpoints[i], ends.clocks[i] = path.endpoint, path.clocks
        ends.jump_counts[i] = path.jump_count
    if failure is not None:
        raise failure
    return ends
