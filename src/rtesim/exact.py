"""Exact jump-adapted solving.

For models with analytic hooks the trajectory is constructed jump by jump:
each internal clock runs toward its next Poisson epoch, the cumulative
hazard inverse gives the physical time at which each clock would hit, and
the earliest hitter fires.  Between jumps the state follows the closed-form
flow, so the result is exact up to floating-point roundoff.  Models without
hooks have no exact path: their reference is a fine-step run of the
fixed-step solver (a SolverConfig) on the same epoch streams.

``exact_trajectory`` builds one path and keeps it; ``exact_block`` runs a
block of replications in lock step and streams their segments instead.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (ConfigurationError, ModelEvaluationError, QueryError,
                     RunawayJumpError, UnsupportedModelError, in_replication)
from .model import initial_state
from .poisson import EpochWindows
from .stepper import grid_steps

MAX_JUMPS = 10_000_000  # most jumps an exact path may take


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


def exact_trajectory(model, paths, x0, T):
    """Davis construction on the given epoch streams over [0, T]."""
    hooks = _require_hooks(model)
    p = model.jump_count
    flow, inverses, hazards = hooks.flow, hooks.hazard_inverse, hooks.hazard_integral
    next_epochs = [paths[j].next_epoch_after for j in range(p)]
    jumps = list(model.jumps)
    x = x0 = initial_state(model, x0)
    clocks = [0.0] * p
    t = 0.0
    seg_starts, seg_states, seg_durs, jump_ids = [], [], [], []
    while True:
        # the clock that hits its next epoch first fires
        k, dt, epoch = None, math.inf, math.inf
        for j in range(p):
            e_j = next_epochs[j](clocks[j])
            t_j = inverses[j](e_j - clocks[j], x)
            if math.isnan(t_j) or t_j < 0.0:
                raise _bad_inverse(j, t_j, x)
            if t_j < dt:  # strict: ties break to the lowest index
                k, dt, epoch = j, t_j, e_j
        final = k is None or t + dt > T
        if final:  # the last segment runs to T and no clock fires
            k, dt = None, max(T - t, 0.0)
        for j in range(p):
            if j != k:
                clocks[j] += hazards[j](dt, x)
        seg_starts.append(t)
        seg_states.append(x)
        seg_durs.append(dt)
        if final:
            break
        clocks[k] = epoch  # lands exactly on the epoch by the inverse identity
        x = np.asarray(flow(dt, x), dtype=float) + jumps[k]
        t += dt
        jump_ids.append(k)
        if len(jump_ids) > MAX_JUMPS:
            raise _runaway(t, T)
    # every segment after the first starts at a jump, in the post-jump state
    seg_starts, seg_states = np.array(seg_starts), np.array(seg_states)
    return ExactTrajectory(
        model=model,
        x0=x0,
        T=T,
        jump_times=seg_starts[1:],
        jump_ids=np.array(jump_ids, dtype=np.int64),
        states_post_jump=seg_states[1:],
        seg_starts=seg_starts,
        seg_states=seg_states,
        seg_durations=np.array(seg_durs),
        clocks=np.array(clocks),
    )


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
    segments to ``on_segment(rows, x, dur)``, if given -- block row indices
    (m,), segment start states (m, d) and durations (m,) -- so every row's
    segments arrive in path order.  Returns BlockEnds.
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
            raise in_replication(QueryError(
                f"next_epoch_after needs finite u >= 0, "
                f"got {float(clocks[i, k])!r}"), reps[rows[i]])
        ep = epochs.next_after(clocks)
        delta = ep - clocks
        tk = np.empty_like(delta)
        for k, inverse in enumerate(hooks.hazard_inverse):
            tk[:, k] = inverse(delta[:, k], x)
        if not (tk >= 0.0).all():  # NaN fails too
            k, i = np.argwhere(~(tk >= 0.0).T)[0]
            raise in_replication(_bad_inverse(k, float(tk[i, k]), x[i]), reps[rows[i]])
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
        if rows.size and jumps > MAX_JUMPS:
            raise in_replication(_runaway(t[0], T), reps[rows[0]])
    return ends
