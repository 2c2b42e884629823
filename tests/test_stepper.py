import math

import numpy as np
import pytest

import rtesim as rs
from conftest import fixed_path, zero_rate_model
from rtesim.errors import (ConfigurationError, GridError, ImplicitSolveError,
                           NegativeStateError)
from rtesim.stepper import StepperState, _phi3_vector

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
        assert rs.phi3(self.m, 0, self.x, 0.37, "euler") == 2000.0

    def test_midpoint_value(self):
        # 200 * (10*(1 - 0.0075) + 0.005*2000*0.007)
        expected = 200.0 * (10.0 * (1 - 0.0075) + 0.005 * 2000.0 * 0.007)
        assert rs.phi3(self.m, 0, self.x, 0.01, "midpoint") == pytest.approx(
            expected, rel=1e-13)
        assert expected == pytest.approx(1999.0, rel=1e-12)

    def test_improved_midpoint_value(self):
        # 200*9.925 + 0.005*2000*(200*10.007 - 2000)
        expected = 200.0 * 9.925 + 0.005 * 2000.0 * (200.0 * 10.007 - 2000.0)
        assert rs.phi3(self.m, 0, self.x, 0.01, "improved-midpoint") == pytest.approx(
            expected, rel=1e-12)
        assert expected == pytest.approx(1999.0, rel=1e-12)

    def test_affine_rate_rules_coincide(self):
        # with an affine rate all four second-order rules reduce to the same
        # expression; float evaluation orders differ, hence the tolerance
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = np.array([rng.uniform(0.05, 30.0)])
            h = rng.choice([0.25, 0.1, 0.05, 0.01])
            vals = [rs.phi3(self.m, 0, x, h, rule) for rule in
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
        raw = rs.phi3(m, 0, x, 15.0, "improved-midpoint", clamp=False)
        assert raw < 0.0
        assert rs.phi3(m, 0, x, 15.0, "improved-midpoint", clamp=True) == 0.0

    def test_bad_index(self):
        with pytest.raises(ConfigurationError):
            rs.phi3(self.m, 1, self.x, 0.1, "euler")


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
    def test_bacteriophage_scaled_within_roundoff(self, rule):
        model = rs.builtin_bacteriophage_scaled()
        rng = np.random.default_rng(3)
        xs = rng.uniform(0.0, 3.0, size=(16, 3))
        xs[:4, 1] = 0.0  # templates without genomes: the shifted rates clamp
        for h in (0.5, 0.1, 0.01):
            batch, rows = _phi3_batch_and_rows(model, xs, h, rule)
            np.testing.assert_allclose(batch, rows, rtol=1e-13, atol=0.0)

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


class TestStep:
    def test_explicit_step_no_jumps(self):
        m = zero_rate_model(alpha=1.5)
        state = StepperState(n=0, t=0.0, x=np.array([10.0]),
                             clocks=np.zeros(1), jump_counts=np.zeros(1, dtype=int))
        cfg = rs.SolverConfig(theta=0.0, h=0.1)
        out = rs.step(state, m, cfg, [fixed_path([])])
        assert out.x[0] == pytest.approx(8.5, rel=1e-14)
        assert out.n == 1 and out.t == pytest.approx(0.1)

    def test_implicit_step_matches_closed_form(self):
        # three epochs inside the clock increment force dY = 3
        m = rs.builtin_linear_scalar(**SET1)
        state = StepperState(n=0, t=0.0, x=np.array([10.0]),
                             clocks=np.zeros(1), jump_counts=np.zeros(1, dtype=int))
        cfg = rs.SolverConfig(theta=1.0, h=0.1)
        path = fixed_path([1.0, 2.0, 3.0])  # clock moves 0 -> 200
        out = rs.step(state, m, cfg, [path])
        closed = (10.0 + 3 * 0.007) / 1.15
        assert out.x[0] == pytest.approx(closed, abs=1e-10)
        assert out.jump_counts[0] == 3
        assert out.clocks[0] == pytest.approx(200.0)

    def test_trapezoidal_drift_only_step(self):
        m = zero_rate_model(alpha=1.5)
        state = StepperState(n=0, t=0.0, x=np.array([10.0]),
                             clocks=np.zeros(1), jump_counts=np.zeros(1, dtype=int))
        cfg = rs.SolverConfig(theta=0.5, h=0.5)
        out = rs.step(state, m, cfg, [fixed_path([])])
        assert out.x[0] == pytest.approx(6.25 / 1.375, abs=1e-12)

    def test_negativity_reset(self):
        m = rs.RteModel(2, lambda x: np.array([0.0, -10.0]),
                        (lambda x: 0.0 * x[..., 0],), [[0.0, 0.0]], name="sink")
        state = StepperState(n=0, t=0.0, x=np.array([1.0, 0.7]),
                             clocks=np.zeros(1), jump_counts=np.zeros(1, dtype=int))
        cfg = rs.SolverConfig(theta=0.0, h=0.1, negativity="reset-to-zero")
        out = rs.step(state, m, cfg, [fixed_path([])])
        assert out.x[1] == 0.0 and out.x[0] == 1.0

    def test_negativity_allow_and_error(self):
        m = rs.RteModel(1, lambda x: np.array([-10.0]),
                        (lambda x: 0.0 * x[..., 0],), [[0.0]], name="sink")
        state = StepperState(n=0, t=0.0, x=np.array([0.3]),
                             clocks=np.zeros(1), jump_counts=np.zeros(1, dtype=int))
        allow = rs.SolverConfig(theta=0.0, h=0.1, negativity="allow")
        assert rs.step(state, m, allow, [fixed_path([])]).x[0] == pytest.approx(-0.7)
        err = rs.SolverConfig(theta=0.0, h=0.1, negativity="error")
        with pytest.raises(NegativeStateError):
            rs.step(state, m, err, [fixed_path([])])

    def test_picard_divergence_reported(self):
        m = rs.RteModel(1, lambda x: -40.0 * x, (lambda x: 0.0 * x[..., 0],),
                        [[0.0]], name="stiff")
        state = StepperState(n=0, t=0.0, x=np.array([1.0]),
                             clocks=np.zeros(1), jump_counts=np.zeros(1, dtype=int))
        cfg = rs.SolverConfig(theta=1.0, h=0.1)  # h*theta*L = 4 > 1
        with pytest.raises(ImplicitSolveError) as err:
            rs.step(state, m, cfg, [fixed_path([])])
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
