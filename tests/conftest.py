"""Shared helpers: canned epoch streams, hand-built models, a recorded
lock-step solve and the Hypothesis profile.

The hand-built hooks broadcast like the built-in ones: times (m,) with
states (m, d) give flows (m, d) and hazards (m,).
"""

import numpy as np
from hypothesis import settings

from rtesim.model import AnalyticHooks, RteModel
from rtesim.poisson import EpochWindows, PoissonPath
from rtesim.stepper import solve_lockstep

SENTINEL = 1e18

# every Hypothesis test draws the same examples on every run, with no
# example database and no deadline; a test's own settings keep its
# max_examples
settings.register_profile("deterministic", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("deterministic")


def fixed_path(epochs):
    """PoissonPath with a prescribed epoch list (queries must stay < 1e18)."""
    p = PoissonPath(0, 0, 0)
    p._epochs = [float(e) for e in epochs] + [SENTINEL]
    return p


def fixed_windows(epochs):
    """One-row EpochWindows whose one stream holds the given epochs.

    At most one batch of epochs; queries must stay < 1e18.
    """
    w = EpochWindows(0, [0], 1)
    w.win[0, 0] = SENTINEL
    w.win[0, 0, :len(epochs)] = epochs
    return w


def record_lockstep(model, configs, epochs, x0, T):
    """solve_lockstep with an on_pass that copies every pass.

    Returns (grid, states, clocks, ends): the finest grid, states (nbar+1,
    B, d) and clocks (nbar+1, B, p) after each pass, and the LockstepEnds.
    """
    configs, states, clocks = list(configs), [], []

    def record(x, c):
        states.append(x.copy())
        clocks.append(c.copy())

    ends = solve_lockstep(model, configs, epochs, x0, T, record)
    grid = np.arange(len(states)) * configs[0].h
    return grid, np.array(states), np.array(clocks), ends


def zero_rate_model(alpha=1.5, with_hooks=True):
    """Pure decay dx/dt = -alpha*x with one silent jump process."""
    hooks = None
    if with_hooks:
        hooks = AnalyticHooks(
            flow=lambda t, x: x * np.exp(-alpha * t)[..., None],
            hazard_integral=(lambda t, x: 0.0 * t,),
            hazard_inverse=(lambda delta, x: np.inf,),
            drift_integral=lambda t, x: x * np.expm1(-alpha * t)[..., None],
        )
    return RteModel(1, lambda x: -alpha * x, (lambda x: 0.0 * x[..., 0],),
                    [[0.0]], lipschitz_f=alpha, analytic=hooks, name="decay")


def zero_drift_model(lam=2.0, eps=0.5):
    """No drift; constant-in-state jump rate lam with jump height eps."""
    hooks = AnalyticHooks(
        flow=lambda t, x: x + 0.0 * np.asarray(t)[..., None],
        hazard_integral=(lambda t, x: lam * t,),
        hazard_inverse=(lambda delta, x: delta / lam,),
        drift_integral=lambda t, x: 0.0 * x,
    )
    return RteModel(1, lambda x: 0.0 * x, (lambda x: lam + 0.0 * x[..., 0],),
                    [[eps]], lipschitz_f=0.0, analytic=hooks, name="pure-jump")
