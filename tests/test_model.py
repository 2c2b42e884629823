import math

import numpy as np
import pytest
from scipy import integrate

import rtesim as rs
from rtesim.errors import ConfigurationError, ModelEvaluationError
from rtesim.model import _saturating_inverse

SET1 = dict(alpha=1.5, lam=200.0, eps=0.007)
EQUILIBRIUM = np.array([20.0, 200.0, 10000.0])


class TestEvaluation:
    def test_linear_drift(self):
        m = rs.builtin_linear_scalar(**SET1)
        assert rs.eval_drift(m, np.array([10.0]))[0] == -15.0

    def test_drift_zero_at_fixed_point(self):
        m = rs.builtin_linear_scalar(**SET1)
        assert rs.eval_drift(m, np.array([0.0]))[0] == 0.0

    def test_bacteriophage_drift_component(self):
        # r5*20 - r6*10000 = 20000 - 19985
        m = rs.builtin_bacteriophage()
        f = rs.eval_drift(m, EQUILIBRIUM)
        assert f[0] == 0.0 and f[1] == 0.0
        assert f[2] == pytest.approx(15.0, rel=1e-12)

    def test_linear_rate(self):
        m = rs.builtin_linear_scalar(**SET1)
        assert rs.eval_rate(m, 0, np.array([10.0])) == 2000.0

    def test_bacteriophage_equilibrium_rates(self):
        m = rs.builtin_bacteriophage()
        vals = [rs.eval_rate(m, k, EQUILIBRIUM) for k in range(4)]
        assert vals == pytest.approx([5.0, 5.0, 20.0, 15.0], rel=1e-12)

    def test_rate_clamped_to_zero_and_counted(self):
        m = rs.builtin_linear_scalar(**SET1)
        before = m.clamp_diag.count
        assert rs.eval_rate(m, 0, np.array([-3.0])) == 0.0
        assert m.clamp_diag.count == before + 1
        # a batch bumps the count once per negative entry
        batch = rs.eval_rates(m, np.array([[-3.0], [2.0], [-1.0], [-0.5]]))
        assert np.array_equal(batch, [[0.0], [400.0], [0.0], [0.0]])
        assert m.clamp_diag.count == before + 4

    def test_nonfinite_rate_raises(self):
        bad = rs.RteModel(1, lambda x: 0.0 * x,
                          (lambda x: math.inf + 0.0 * x[..., 0],), [[1.0]])
        with pytest.raises(ModelEvaluationError):
            rs.eval_rate(bad, 0, np.array([1.0]))

    def test_nonfinite_drift_carries_state(self):
        bad = rs.RteModel(1, lambda x: x / 0.0, (lambda x: 0.0 * x[..., 0],), [[1.0]])
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(ModelEvaluationError) as err:
                rs.eval_drift(bad, np.array([1.0]))
        assert err.value.x is not None

    def test_jump_vector_applied(self):
        m = rs.builtin_bacteriophage()
        assert np.array_equal(EQUILIBRIUM + m.jumps[3],
                              np.array([20.0, 199.0, 9999.0]))


class TestScaling:
    def test_equilibrium_maps_to_order_one(self):
        spec = rs.bacteriophage_scaling()
        assert np.allclose(spec.scale_state(EQUILIBRIUM), [2.0, 2.0, 1.0], rtol=1e-12)
        assert np.allclose(spec.unscale_state([2.0, 2.0, 1.0]), EQUILIBRIUM, rtol=1e-12)

    def test_scaled_drift_component(self):
        sc = rs.builtin_bacteriophage_scaled()
        f = rs.eval_drift(sc, np.array([2.0, 2.0, 1.0]))
        assert f[2] == pytest.approx(0.0015, rel=1e-9)

    def test_scaled_rates_preserve_clocks(self):
        # rates at corresponding states agree, so Poisson clocks are unchanged
        m = rs.builtin_bacteriophage()
        sc = rs.builtin_bacteriophage_scaled()
        spec = rs.bacteriophage_scaling()
        for x in [EQUILIBRIUM, np.array([5.0, 80.0, 2000.0])]:
            y = spec.scale_state(x)
            for k in range(4):
                assert rs.eval_rate(sc, k, y) == pytest.approx(
                    rs.eval_rate(m, k, x), rel=1e-12)

    def test_scaled_jumps(self):
        sc = rs.builtin_bacteriophage_scaled()
        assert np.allclose(sc.jumps[0], [0.1, -0.01, 0.0], rtol=1e-12)
        assert np.allclose(sc.jumps[3], [0.0, -0.01, -1e-4], rtol=1e-12)

    def test_identity_scaling_changes_nothing(self):
        m = rs.builtin_linear_scalar(**SET1)
        spec = rs.ScalingSpec(N=1.0, alpha=(2.0,))
        sc = rs.apply_scaling(m, spec)
        t1 = rs.solve_trajectory(m, rs.SolverConfig(theta=0.0, h=0.25),
                                 rs.PathBundle(3, 0, 1), [10.0], 5.0)
        t2 = rs.solve_trajectory(sc, rs.SolverConfig(theta=0.0, h=0.25),
                                 rs.PathBundle(3, 0, 1), [10.0], 5.0)
        assert np.array_equal(t1.states, t2.states)

    def test_unscaling_reproduces_unscaled_trajectory(self):
        # same epochs drive both; states match after multiplying back
        m = rs.builtin_bacteriophage()
        sc = rs.builtin_bacteriophage_scaled()
        spec = rs.bacteriophage_scaling()
        cfg = rs.SolverConfig(theta=0.0, h=0.1, quadrature="euler")
        for seed in (0, 4):
            a = rs.solve_trajectory(m, cfg, rs.PathBundle(seed, 0, 4),
                                    EQUILIBRIUM, 2.0)
            b = rs.solve_trajectory(sc, cfg, rs.PathBundle(seed, 0, 4),
                                    spec.scale_state(EQUILIBRIUM), 2.0)
            assert np.allclose(spec.unscale_state(b.states), a.states,
                               rtol=1e-8, atol=1e-10)

    def test_scaled_model_keeps_hooks(self):
        m = rs.builtin_linear_scalar(**SET1)
        spec = rs.ScalingSpec(N=100.0, alpha=(0.5,))
        sc = rs.apply_scaling(m, spec)
        y = spec.scale_state([10.0])
        t = 0.4
        assert sc.analytic.flow(t, y)[0] == pytest.approx(
            spec.scale_state(m.analytic.flow(t, np.array([10.0])))[0], rel=1e-12)
        assert sc.analytic.hazard_integral[0](t, y) == pytest.approx(
            m.analytic.hazard_integral[0](t, np.array([10.0])), rel=1e-12)

    def test_dimension_mismatch_rejected(self):
        m = rs.builtin_linear_scalar(**SET1)
        with pytest.raises(ConfigurationError):
            rs.apply_scaling(m, rs.ScalingSpec(N=10.0, alpha=(1.0, 1.0)))


class TestLinearScalarHooks:
    def test_parameter_validation(self):
        for bad in [(-1.0, 200.0, 0.007), (1.5, 0.0, 0.007), (1.5, 200.0, -1e-9)]:
            with pytest.raises(ConfigurationError):
                rs.builtin_linear_scalar(*bad)

    def test_hazard_inverse_round_trip(self):
        m = rs.builtin_linear_scalar(**SET1)
        hooks = m.analytic
        for x0 in (0.5, 3.0, 10.0, 40.0):
            x = np.array([x0])
            for t in (1e-4, 0.01, 0.3, 1.0, 2.5):
                delta = hooks.hazard_integral[0](t, x)
                assert hooks.hazard_inverse[0](delta, x) == pytest.approx(t, rel=1e-10)

    def test_total_hazard_bound(self):
        # cumulative hazard saturates at lam*x/alpha
        m = rs.builtin_linear_scalar(**SET1)
        x = np.array([10.0])
        bound = 200.0 * 10.0 / 1.5
        assert m.analytic.hazard_integral[0](200.0, x) == pytest.approx(bound, rel=1e-10)
        quad, _ = integrate.quad(lambda s: 200.0 * 10.0 * math.exp(-1.5 * s), 0, 60,
                                 limit=200)
        assert quad == pytest.approx(bound, rel=1e-8)
        assert m.analytic.hazard_inverse[0](bound * 1.05, x) == math.inf

    def test_drift_integral_is_flow_displacement(self):
        m = rs.builtin_linear_scalar(**SET1)
        x = np.array([10.0])
        for t in (0.1, 0.7):
            assert m.analytic.drift_integral(t, x)[0] == pytest.approx(
                m.analytic.flow(t, x)[0] - x[0], rel=1e-12)

    def test_quadratic_hooks_round_trip(self):
        q = rs.builtin_quadratic_scalar(alpha=1.0, beta=2.0, eps=0.01)
        x = np.array([1.3])
        for t in (0.05, 0.4, 1.2):
            delta = q.analytic.hazard_integral[0](t, x)
            assert q.analytic.hazard_inverse[0](delta, x) == pytest.approx(t, rel=1e-10)
        quad, _ = integrate.quad(
            lambda s: 2.0 * (1.3 * math.exp(-s)) ** 2, 0.0, 0.4, limit=100)
        assert q.analytic.hazard_integral[0](0.4, x) == pytest.approx(quad, rel=1e-9)


HOOK_MODELS = {
    "linear-scalar": (lambda: rs.builtin_linear_scalar(**SET1), 1.0),
    "quadratic-scalar": (lambda: rs.builtin_quadratic_scalar(beta=20.0), 1.0),
    "linear-scalar-scaled": (lambda: rs.apply_scaling(
        rs.builtin_linear_scalar(**SET1),
        rs.ScalingSpec(N=100.0, alpha=(1.0,))), 0.01),
}


class TestBatchedHazardInverse:
    @pytest.mark.parametrize("name", list(HOOK_MODELS))
    def test_batch_rows_equal_single_calls_bitwise(self, name):
        build, unit = HOOK_MODELS[name]
        inverse = build().analytic.hazard_inverse[0]
        # x = 0 gives r = 0 (x < 0 also r < 0 when linear); large deltas
        # pass the total hazard r / a
        xs = np.array([-2.0, 0.0, 0.5, 3.0, 10.0, 40.0]) * unit
        deltas = [-1.0, 0.0, 1e-300, 1e-6, 0.3, 5.0, 77.0, 1e3, 1e6]
        x = np.repeat(xs, len(deltas))[:, None]
        delta = np.tile(deltas, len(xs))
        batch = inverse(delta, x)
        rows = np.array([inverse(dl, xi) for dl, xi in zip(delta.tolist(), x)])
        assert batch.shape == delta.shape
        assert batch.tobytes() == rows.tobytes()
        # every branch is reached: delta <= 0, r <= 0, a delta >= r, finite
        positive = delta > 0.0
        assert (batch[~positive] == 0.0).all()
        assert (batch[positive & (x[:, 0] == 0.0)] == math.inf).all()
        assert (batch[positive & (x[:, 0] > 0.0)] == math.inf).any()
        assert (np.isfinite(batch) & (batch > 0.0)).any()


class TestRegistry:
    def test_names(self):
        assert set(rs.model_names()) >= {"linear-scalar", "bacteriophage",
                                         "bacteriophage-scaled"}

    def test_spelled_out_parameter_names(self):
        m = rs.get_model("linear-scalar",
                         {"alpha": 1.5, "lambda": 200, "epsilon": 0.007})
        assert rs.eval_rate(m, 0, np.array([10.0])) == 2000.0

    def test_unknown_model(self):
        with pytest.raises(ConfigurationError):
            rs.get_model("gompertz")

    def test_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            rs.get_model("linear-scalar", {"alpha": 1.5, "nope": 1.0})

    @pytest.mark.parametrize("params", [[1.5], "alpha", 1.5],
                             ids=["list", "string", "number"])
    def test_params_that_are_not_a_mapping(self, params):
        with pytest.raises(ConfigurationError, match="'linear-scalar'"):
            rs.get_model("linear-scalar", params=params)

    def test_scaling_block(self):
        m = rs.get_model("bacteriophage", scaling={
            "N": 10000.0, "alpha": (0.25, 0.5, 1.0)})
        f = rs.eval_drift(m, np.array([2.0, 2.0, 1.0]))
        assert f[2] == pytest.approx(0.0015, rel=1e-9)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def literal_linear(alpha, lam):
    """The linear-scalar rate and hooks as their formulas read before the
    scalar models shared _scalar_decay."""
    return dict(
        drift=lambda x: -alpha * x,
        rate=lambda x: lam * x[..., 0],
        flow=lambda t, x: x * np.exp(-alpha * t)[..., None],
        hazard=lambda t, x: (np.maximum(lam * x[..., 0], 0.0)
                             * -np.expm1(-alpha * t) / alpha),
        inverse=_saturating_inverse(alpha, lambda x0: lam * x0),
        drift_integral=lambda t, x: x * np.expm1(-alpha * t)[..., None])


def literal_quadratic(alpha, beta):
    """As literal_linear, for quadratic-scalar."""
    return dict(
        drift=lambda x: -alpha * x,
        rate=lambda x: beta * x[..., 0] ** 2,
        flow=lambda t, x: x * np.exp(-alpha * t)[..., None],
        hazard=lambda t, x: (np.maximum(beta * x[..., 0] ** 2, 0.0)
                             * -np.expm1(-2.0 * alpha * t) / (2.0 * alpha)),
        inverse=_saturating_inverse(2.0 * alpha, lambda x0: beta * (x0 * x0)),
        drift_integral=lambda t, x: x * np.expm1(-alpha * t)[..., None])


class TestScalarDecay:
    """Both scalar models equal their own formulas of before, bit for bit."""

    SCALING = rs.ScalingSpec(N=100.0, alpha=(0.5,))

    @pytest.mark.parametrize("scaled", [False, True])
    @pytest.mark.parametrize("alpha", [1.5, 2])
    @pytest.mark.parametrize("name", ["linear-scalar", "quadratic-scalar"])
    def test_hooks_and_rates_match_literal_formulas(self, name, alpha, scaled):
        if name == "linear-scalar":
            model = rs.builtin_linear_scalar(alpha=alpha, lam=200.0, eps=0.007)
            want = literal_linear(alpha, 200.0)
        else:
            model = rs.builtin_quadratic_scalar(alpha=alpha, beta=20.0, eps=0.01)
            want = literal_quadratic(alpha, 20.0)
        up = down = 1.0  # multiplying by 1.0 leaves every bit
        if scaled:
            model = rs.apply_scaling(model, self.SCALING)
            up = self.SCALING.state_factors()
            down = 1.0 / up
        hooks = model.analytic
        # edge values, then enough random ones that a reordered product or
        # quotient changes some bits
        rng = np.random.default_rng(3)
        xs = np.concatenate([[0.0, 0.3, 1.3, 7.0, -0.4],
                             rng.uniform(0.0, 12.0, 59)])[:, None] * down
        ts = np.concatenate([[0.0, 1e-3, 0.4, 2.5, 0.7], rng.uniform(0.0, 3.0, 59)])
        deltas = np.concatenate([[0.0, 1e-6, 0.3, 1e4, 5.0],
                                 rng.uniform(0.0, 50.0, 59)])
        # one state (d,) with one time, then the batch (m, d) with (m,)
        for t, x in [*zip(ts.tolist(), xs), (ts, xs)]:
            assert same_bits(model.drift(x),
                             down * np.asarray(want["drift"](up * x), dtype=float))
            assert same_bits(model.rates[0](x), want["rate"](up * x))
            for key, hook in (("flow", hooks.flow),
                              ("drift_integral", hooks.drift_integral)):
                lit = down * np.asarray(want[key](t, up * x), dtype=float)
                assert same_bits(hook(t, x), lit), key
            assert same_bits(hooks.hazard_integral[0](t, x), want["hazard"](t, up * x))
        for delta, x in [*zip(deltas.tolist(), xs), (deltas, xs)]:
            assert same_bits(hooks.hazard_inverse[0](delta, x),
                             want["inverse"](delta, up * x))
