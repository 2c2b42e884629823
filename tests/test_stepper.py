import math

import numpy as np
import pytest

import rtesim as rs
from conftest import fixed_windows, zero_rate_model
from rtesim.errors import (ConfigurationError, GridError, ImplicitSolveError,
                           NegativeStateError, RteSimError)
from rtesim.model import eval_drift
from rtesim.stepper import _phi3_vector, check_nesting

SET1 = dict(alpha=1.5, lam=200.0, eps=0.007)


class TestSolverConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(theta=-0.1, h=0.1),
        dict(theta=1.1, h=0.1),
        dict(theta=0.5, h=0.0),
        dict(theta=0.5, h=0.1, quadrature="simpson"),
        dict(theta=0.5, h=0.1, negativity="clip"),
        dict(theta=0.5, h=0.1, fp_tol=0.0),
        dict(theta=0.5, h=0.1, fp_max_iter=0),
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            rs.SolverConfig(**kwargs)

    def test_labels(self):
        cfg = rs.SolverConfig(theta=0.5, h=0.125, quadrature="trapezoidal")
        assert cfg.label() == "theta0.5-trapezoidal-h0.125"
        assert cfg.variant() == "theta0.5-trapezoidal"


class TestPhi3:
    def setup_method(self):
        self.m = rs.builtin_linear_scalar(**SET1)
        self.x = np.array([10.0])

    def test_euler_is_plain_rate(self):
        assert _phi3_vector(self.m, self.x, 0.37, "euler", True)[0][0] == 2000.0

    def test_midpoint_value(self):
        # 200 * (10*(1 - 0.0075) + 0.005*2000*0.007)
        expected = 200.0 * (10.0 * (1 - 0.0075) + 0.005 * 2000.0 * 0.007)
        val = _phi3_vector(self.m, self.x, 0.01, "midpoint", True)[0][0]
        assert val == pytest.approx(expected, rel=1e-13)
        assert expected == pytest.approx(1999.0, rel=1e-12)

    def test_improved_midpoint_value(self):
        # 200*9.925 + 0.005*2000*(200*10.007 - 2000)
        expected = 200.0 * 9.925 + 0.005 * 2000.0 * (200.0 * 10.007 - 2000.0)
        val = _phi3_vector(self.m, self.x, 0.01, "improved-midpoint", True)[0][0]
        assert val == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(1999.0, rel=1e-12)

    def test_affine_rate_rules_coincide(self):
        # with an affine rate all four second-order rules reduce to the same
        # expression; float evaluation orders differ, hence the tolerance
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = np.array([rng.uniform(0.05, 30.0)])
            h = rng.choice([0.25, 0.1, 0.05, 0.01])
            vals = [_phi3_vector(self.m, x, h, rule, True)[0][0] for rule in
                    ("midpoint", "trapezoidal", "improved-midpoint",
                     "improved-trapezoidal")]
            assert max(vals) - min(vals) <= 1e-11 * max(map(abs, vals))

    def test_clamp_keeps_rate_nonnegative(self):
        # a rate that collapses along its own jump makes the improved
        # correction overshoot below zero for large h
        m = rs.RteModel(1, lambda x: 0.0 * x,
                        (lambda x: 4.0 - 1.9 * x[..., 0],), [[1.0]],
                        name="collapsing")
        x = np.array([2.0])
        raw = _phi3_vector(m, x, 15.0, "improved-midpoint", False)[0][0]
        assert raw < 0.0
        assert _phi3_vector(m, x, 15.0, "improved-midpoint", True)[0][0] == 0.0


def _phi3_batch_and_rows(model, xs, h, rule):
    batch, nclamp = _phi3_vector(model, xs, h, rule, True)
    rows = [_phi3_vector(model, x, h, rule, True) for x in xs]
    assert batch.shape == (len(xs), model.jump_count)
    assert nclamp == sum(n for _, n in rows)
    return batch, np.array([v for v, _ in rows])


class TestPhi3Batch:
    """_phi3_vector on a batch (m, d) equals its rows taken one at a time."""

    @pytest.mark.parametrize("rule", rs.QUADRATURES)
    @pytest.mark.parametrize("model,xs", [
        (rs.builtin_linear_scalar(**SET1), [[10.0], [0.3], [0.0], [25.0]]),
        (rs.builtin_quadratic_scalar(alpha=1.0, beta=2.0, eps=0.01),
         [[1.3], [0.02], [0.0], [4.0]]),
    ], ids=["linear-scalar", "quadratic-scalar"])
    def test_scalar_models_bit_for_bit(self, model, xs, rule):
        for h in (0.5, 0.1, 0.01):
            batch, rows = _phi3_batch_and_rows(model, np.array(xs), h, rule)
            assert np.array_equal(batch, rows)

    @pytest.mark.parametrize("rule", rs.QUADRATURES)
    def test_bacteriophage_scaled_bit_for_bit(self, rule):
        model = rs.builtin_bacteriophage_scaled()
        rng = np.random.default_rng(3)
        xs = rng.uniform(0.0, 3.0, size=(16, 3))
        xs[:4, 1] = 0.0  # templates without genomes: the shifted rates clamp
        for h in (0.5, 0.1, 0.01):
            batch, rows = _phi3_batch_and_rows(model, xs, h, rule)
            assert np.array_equal(batch, rows)

    def test_improved_rule_clamps_counted_per_entry(self):
        m = rs.RteModel(1, lambda x: 0.0 * x,
                        (lambda x: 4.0 - 1.9 * x[..., 0],), [[1.0]],
                        name="collapsing")
        # rows 1 and 2 overshoot below zero; row 3's rate is clamped already
        xs = np.array([[2.0], [0.1], [3.0]])
        raw, _ = _phi3_vector(m, xs, 15.0, "improved-midpoint", False)
        assert raw[0, 0] < 0.0 and raw[1, 0] < 0.0 and raw[2, 0] == 0.0
        vals, nclamp = _phi3_vector(m, xs, 15.0, "improved-midpoint", True)
        assert nclamp == 2
        assert np.array_equal(vals, np.zeros((3, 1)))


def one_step(model, cfg, x0, epochs=()):
    """solve_trajectory over the single step [0, h] on one canned stream."""
    return rs.solve_trajectory(model, cfg, fixed_windows(epochs), x0, cfg.h)


class TestStep:
    def test_explicit_step_no_jumps(self):
        m = zero_rate_model(alpha=1.5)
        out = one_step(m, rs.SolverConfig(theta=0.0, h=0.1), [10.0])
        assert out.endpoint[0, 0] == pytest.approx(8.5, rel=1e-14)
        assert len(out.grid) == 2 and out.grid[-1] == pytest.approx(0.1)

    def test_implicit_step_matches_closed_form(self):
        # three epochs inside the clock increment force dY = 3
        m = rs.builtin_linear_scalar(**SET1)
        cfg = rs.SolverConfig(theta=1.0, h=0.1)
        out = one_step(m, cfg, [10.0], [1.0, 2.0, 3.0])  # clock moves 0 -> 200
        closed = (10.0 + 3 * 0.007) / 1.15
        assert out.endpoint[0, 0] == pytest.approx(closed, abs=1e-10)
        assert out.meta["jump_counts"][0, 0] == 3
        assert out.clocks[-1, 0, 0] == pytest.approx(200.0)

    def test_trapezoidal_drift_only_step(self):
        m = zero_rate_model(alpha=1.5)
        out = one_step(m, rs.SolverConfig(theta=0.5, h=0.5), [10.0])
        assert out.endpoint[0, 0] == pytest.approx(6.25 / 1.375, abs=1e-12)

    def test_negativity_reset(self):
        m = rs.RteModel(2, lambda x: np.array([0.0, -10.0]) + 0.0 * x,
                        (lambda x: 0.0 * x[..., 0],), [[0.0, 0.0]], name="sink")
        cfg = rs.SolverConfig(theta=0.0, h=0.1, negativity="reset-to-zero")
        out = one_step(m, cfg, [1.0, 0.7])
        assert out.endpoint[0, 1] == 0.0 and out.endpoint[0, 0] == 1.0

    def test_negativity_allow_and_error(self):
        m = rs.RteModel(1, lambda x: -10.0 + 0.0 * x,
                        (lambda x: 0.0 * x[..., 0],), [[0.0]], name="sink")
        allow = rs.SolverConfig(theta=0.0, h=0.1, negativity="allow")
        assert one_step(m, allow, [0.3]).endpoint[0, 0] == pytest.approx(-0.7)
        err = rs.SolverConfig(theta=0.0, h=0.1, negativity="error")
        with pytest.raises(NegativeStateError):
            one_step(m, err, [0.3])

    def test_picard_divergence_reported(self):
        m = rs.RteModel(1, lambda x: -40.0 * x, (lambda x: 0.0 * x[..., 0],),
                        [[0.0]], name="stiff")
        cfg = rs.SolverConfig(theta=1.0, h=0.1)  # h*theta*L = 4 > 1
        with pytest.raises(ImplicitSolveError) as err:
            one_step(m, cfg, [1.0])
        assert err.value.residual is not None


class TestSolveTrajectory:
    def test_zero_rates_is_deterministic_euler(self):
        m = zero_rate_model(alpha=1.5)
        cfg = rs.SolverConfig(theta=0.0, h=0.25)
        traj = rs.solve_trajectory(m, cfg, rs.PathBundle(0, 0, 1), [10.0], 2.0)
        x = 10.0
        for _ in range(8):
            x *= 1 - 0.25 * 1.5
        assert traj.endpoint[0] == pytest.approx(x, rel=1e-14)
        assert traj.meta["jump_counts"][0] == 0

    def test_repeat_runs_bit_identical(self):
        m = rs.builtin_linear_scalar(**SET1)
        cfg = rs.SolverConfig(theta=0.5, h=0.125, quadrature="midpoint")
        a = rs.solve_trajectory(m, cfg, rs.PathBundle(21, 0, 1), [10.0], 5.0)
        b = rs.solve_trajectory(m, cfg, rs.PathBundle(21, 0, 1), [10.0], 5.0)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.clocks, b.clocks)

    def test_grid_is_multiplicative(self):
        m = zero_rate_model()
        cfg = rs.SolverConfig(theta=0.0, h=0.1)
        traj = rs.solve_trajectory(m, cfg, rs.PathBundle(0, 0, 1), [1.0], 1.0)
        assert np.array_equal(traj.grid, np.arange(11) * 0.1)

    def test_non_integral_grid_rejected(self):
        m = zero_rate_model()
        cfg = rs.SolverConfig(theta=0.0, h=0.3)
        with pytest.raises(GridError):
            rs.solve_trajectory(m, cfg, rs.PathBundle(0, 0, 1), [1.0], 1.0)

    @pytest.mark.parametrize("h", [0.0, -0.25, math.nan, math.inf])
    def test_grid_steps_rejects_a_step_that_is_not_finite_and_positive(self, h):
        with pytest.raises(ConfigurationError, match="not a finite positive"):
            rs.stepper.grid_steps(1.0, h)

    def test_reference_step_must_divide_every_step(self):
        check_nesting(1.0 / 320.0, [1.0 / 10.0, 1.0 / 160.0])
        with pytest.raises(GridError, match=r"^reference step h_ref=0\.003125 "
                                            r"does not divide h=0\.00333"):
            check_nesting(1.0 / 320.0, [1.0 / 10.0, 1.0 / 300.0])

    def test_clock_monotonicity(self):
        m = rs.builtin_linear_scalar(**SET1)
        cfg = rs.SolverConfig(theta=0.5, h=0.25, quadrature="improved-trapezoidal")
        traj = rs.solve_trajectory(m, cfg, rs.PathBundle(13, 0, 1), [10.0], 5.0)
        assert (np.diff(traj.clocks[:, 0]) >= 0.0).all()

    def test_implicit_equals_explicit_without_drift(self):
        m = rs.RteModel(1, lambda x: 0.0 * x, (lambda x: 2.0 + 0.0 * x[..., 0],),
                        [[0.5]], name="pure-jump")
        expl = rs.solve_trajectory(m, rs.SolverConfig(theta=0.0, h=0.25),
                                   rs.PathBundle(5, 0, 1), [1.0], 3.0)
        impl = rs.solve_trajectory(m, rs.SolverConfig(theta=0.7, h=0.25),
                                   rs.PathBundle(5, 0, 1), [1.0], 3.0)
        assert np.array_equal(expl.states, impl.states)

    def test_picard_matches_closed_form_along_path(self):
        # scalar linear solve has an explicit fixed point at every step
        m = rs.builtin_linear_scalar(**SET1)
        theta, h = 0.8, 0.125
        cfg = rs.SolverConfig(theta=theta, h=h)
        bundle = rs.PathBundle(17, 0, 1)
        traj = rs.solve_trajectory(m, cfg, bundle, [10.0], 1.0)
        check = rs.PathBundle(17, 0, 1)
        x, tau = 10.0, 0.0
        for n in range(8):
            r = h * 200.0 * x
            dy = check[0].increment(tau, tau + r)
            x = (x * (1 - h * (1 - theta) * 1.5) + dy * 0.007) / (1 + h * theta * 1.5)
            tau += r
            assert traj.states[n + 1, 0] == pytest.approx(x, abs=1e-10)

    def test_step_size_warning(self):
        m = rs.builtin_linear_scalar(**SET1)  # L_f = 1.5
        cfg = rs.SolverConfig(theta=1.0, h=1.0)
        with pytest.warns(UserWarning, match="contract"):
            try:
                rs.solve_trajectory(m, cfg, rs.PathBundle(0, 0, 1), [10.0], 2.0)
            except ImplicitSolveError:
                pass


# ---------------------------------------------------------------------------
# the serial stepper: the bitwise oracle of the block engine


def _serial_implicit_solve(model, x_prev, h, theta, disp, fp_tol, fp_max_iter,
                           step_idx):
    f_prev = eval_drift(model, x_prev)
    base = x_prev + h * (1.0 - theta) * f_prev + disp
    y = x_prev + h * f_prev + disp
    ht = h * theta
    for _ in range(fp_max_iter):
        y_next = base + ht * eval_drift(model, y)
        resid = float(np.max(np.abs(y_next - y)))
        if resid < fp_tol:
            return y_next
        y = y_next
    raise ImplicitSolveError(
        f"implicit drift solve stalled at step {step_idx}: residual {resid:.3e} "
        f"after {fp_max_iter} iterations (tolerance {fp_tol:.1e})",
        residual=resid, step=step_idx)


def _serial_advance(model, config, paths, x, clocks, step_idx):
    h = config.h
    vals, nclamp = _phi3_vector(model, x, h, config.quadrature, config.clamp_phi3)
    r = h * vals
    dys = np.array([paths[k].increment(clocks[k], clocks[k] + r[k])
                    for k in range(model.jump_count)])
    disp = dys @ model.jumps
    if config.theta == 0.0:
        x_new = x + h * eval_drift(model, x) + disp
    else:
        x_new = _serial_implicit_solve(model, x, h, config.theta, disp,
                                       config.fp_tol, config.fp_max_iter, step_idx)
    if x_new.min() < 0.0:
        if config.negativity == "reset-to-zero":
            x_new = np.maximum(x_new, 0.0)
        elif config.negativity == "error":
            raise NegativeStateError(
                f"negative component at step {step_idx}: x={x_new!r}")
    return x_new, r, dys, nclamp


def serial_solve(model, config, paths, x0, T):
    """One replication, one state (d,) at a time, counts read as PoissonPath
    increments: the serial form of the stepper, which solve_trajectory
    must equal bit for bit.

    Returns (states, clocks, jump_counts, phi3 clamps).  An error is raised
    with ``failed_at``, the step it happened in.
    """
    nbar = rs.stepper.grid_steps(T, config.h)
    x = np.asarray(x0, dtype=float).reshape(model.dim).copy()
    clocks = np.zeros(model.jump_count)
    jump_counts = np.zeros(model.jump_count, dtype=np.int64)
    states, clock_hist = [x], [clocks]
    clamps = 0
    for n in range(nbar):
        try:
            x, r, dys, nclamp = _serial_advance(model, config, paths, x, clocks, n)
        except RteSimError as e:
            e.failed_at = n
            raise
        clocks = clocks + r
        jump_counts += dys
        clamps += nclamp
        states.append(x)
        clock_hist.append(clocks)
    return np.array(states), np.array(clock_hist), jump_counts, clamps


ORACLE_SEED = 29
ORACLE_MODELS = {
    "linear-scalar": (rs.builtin_linear_scalar(**SET1), [10.0], 1.0),
    "quadratic-scalar": (rs.builtin_quadratic_scalar(alpha=1.0, beta=2.0, eps=0.01),
                         [3.0], 1.0),
    "bacteriophage-scaled": (rs.builtin_bacteriophage_scaled(), [2.0, 2.0, 1.0], 2.0),
    # near 0: negativity resets in every config, phi3 clamps in improved-midpoint
    "bacteriophage-scaled-near-zero": (rs.builtin_bacteriophage_scaled(),
                                       [0.05, 0.05, 0.0], 2.0),
}


class TestBlockEngine:
    """Every row of a block has the bits of the serial stepper."""

    @pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("rule", rs.QUADRATURES)
    @pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
    def test_rows_equal_serial_oracle_bitwise(self, name, rule, theta):
        model, x0, T = ORACLE_MODELS[name]
        p = model.jump_count
        cfg = rs.SolverConfig(theta=theta, h=0.125, quadrature=rule)
        oracle = {j: serial_solve(model, cfg, rs.PathBundle(ORACLE_SEED, j, p),
                                  x0, T)
                  for j in range(64)}
        assert sum(o[2].sum() for o in oracle.values()) > 0  # jumps happened
        bundle = rs.solve_trajectory(model, cfg, rs.PathBundle(ORACLE_SEED, 0, p),
                                     x0, T)
        assert np.array_equal(bundle.states, oracle[0][0])
        assert np.array_equal(bundle.clocks, oracle[0][1])
        assert np.array_equal(bundle.meta["jump_counts"], oracle[0][2])
        for reps in (range(5, 6), range(30, 37), range(64)):
            block = rs.solve_trajectory(
                model, cfg, rs.EpochWindows(ORACLE_SEED, reps, p), x0, T)
            assert block.meta["phi3_clamps"] == sum(oracle[j][3] for j in reps)
            for i, j in enumerate(reps):
                states, clocks, counts, _ = oracle[j]
                assert np.array_equal(block.states[:, i], states)
                assert np.array_equal(block.clocks[:, i], clocks)
                assert np.array_equal(block.meta["jump_counts"][i], counts)

    @pytest.mark.parametrize("case", ["nan-drift", "picard-stall", "negative"])
    def test_error_is_first_failing_row_at_earliest_step(self, case):
        if case == "nan-drift":
            m = rs.builtin_linear_scalar(**SET1)
            model = rs.RteModel(1, lambda x: np.where(x < 9.0, np.nan, -1.5 * x),
                                m.rates, m.jumps, name="fragile")
            x0, cfg = [10.0], rs.SolverConfig(theta=0.5, h=0.125)
        elif case == "picard-stall":
            # the Picard map contracts only while h*theta*|y| < 1
            model = rs.RteModel(1, lambda x: -0.5 * x * x,
                                (lambda x: 3.0 * x[..., 0],), [[0.5]],
                                name="stiffening")
            x0, cfg = [2.0], rs.SolverConfig(theta=1.0, h=0.25)
        else:
            model = rs.RteModel(1, lambda x: 0.0 * x,
                                (lambda x: 5.0 + 0.0 * x[..., 0],), [[-0.3]],
                                name="draining")
            x0, cfg = [2.0], rs.SolverConfig(theta=0.0, h=0.125, negativity="error")
        reps = range(3, 19)
        failures = {}
        for j in reps:
            try:
                serial_solve(model, cfg, rs.PathBundle(ORACLE_SEED, j, 1), x0, 4.0)
            except RteSimError as e:
                failures[j] = e
        steps = {e.failed_at for e in failures.values()}
        assert len(steps) > 1  # rows fail at different steps
        first = min(steps)
        j = min(j for j, e in failures.items() if e.failed_at == first)
        want = failures[j]
        with pytest.raises(RteSimError) as info:
            rs.solve_trajectory(model, cfg, rs.EpochWindows(ORACLE_SEED, reps, 1),
                                x0, 4.0)
        got = info.value
        assert type(got) is type(want) and str(got) == str(want)
        assert got.row == list(reps).index(j)
        for field in ("x", "residual", "step"):
            assert np.array_equal(getattr(got, field, None), getattr(want, field, None))
