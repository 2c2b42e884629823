import math

import numpy as np
import pytest
from scipy import integrate

import rtesim as rs
from conftest import fixed_path, zero_rate_model
from rtesim.errors import (ConfigurationError, GridError, ModelEvaluationError,
                           RunawayJumpError, UnsupportedModelError)
from rtesim.exact import exact_block

SET1 = dict(alpha=1.5, lam=200.0, eps=0.007)


def bisect_inverse(hazard, target, x, hi=50.0, iters=200):
    """Independent inversion of a cumulative hazard by pure bisection."""
    lo = 0.0
    if hazard(hi, x) < target:
        return math.inf
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if hazard(mid, x) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestNextJump:
    def test_closed_form_and_bisection_agree(self):
        m = rs.builtin_linear_scalar(**SET1)
        x = np.array([10.0])
        # next epoch is 500 clock units away: alpha*delta/(lam*x) = 0.375
        k, dt = rs.next_jump(m, x, [1500.0], [fixed_path([2000.0])])
        assert k == 0
        closed = -math.log(1.0 - 0.375) / 1.5
        assert dt == pytest.approx(closed, rel=1e-12)
        assert dt == pytest.approx(0.313336, abs=5e-7)
        oracle = bisect_inverse(m.analytic.hazard_integral[0], 500.0, x)
        assert dt == pytest.approx(oracle, abs=1e-10)

    def test_no_jump_beyond_total_hazard(self):
        # cumulative hazard saturates at lam*x/alpha = 1333.33
        m = rs.builtin_linear_scalar(**SET1)
        k, dt = rs.next_jump(m, np.array([10.0]), [0.0], [fixed_path([1400.0])])
        assert k is None and dt == math.inf

    def test_single_process_always_selected(self):
        m = rs.builtin_linear_scalar(**SET1)
        k, dt = rs.next_jump(m, np.array([10.0]), [0.0], [fixed_path([1.0])])
        assert k == 0 and math.isfinite(dt)

    def test_requires_hooks(self):
        with pytest.raises(UnsupportedModelError):
            rs.next_jump(rs.builtin_bacteriophage(), np.ones(3), np.zeros(4),
                         rs.PathBundle(0, 0, 4))


class TestExactTrajectory:
    def test_jump_free_endpoint_is_pure_flow(self):
        m = rs.builtin_linear_scalar(**SET1)
        traj = rs.exact_trajectory(m, [fixed_path([1340.0])], [10.0], 1.0)
        assert traj.jump_count == 0
        assert traj.endpoint[0] == pytest.approx(10.0 * math.exp(-1.5), abs=1e-10)

    def test_zero_jump_height_equals_flow(self):
        m = rs.builtin_linear_scalar(**SET1)
        silent = rs.RteModel(1, m.drift, m.rates, [[0.0]], analytic=m.analytic,
                             name="silent")
        traj = rs.exact_trajectory(silent, rs.PathBundle(3, 0, 1), [10.0], 1.0)
        assert traj.jump_count > 0
        assert traj.endpoint[0] == pytest.approx(10.0 * math.exp(-1.5), rel=1e-10)

    def test_clocks_match_quadrature_of_rate_along_path(self):
        m = rs.builtin_linear_scalar(**SET1)
        traj = rs.exact_trajectory(m, rs.PathBundle(8, 0, 1), [10.0], 0.5)
        oracle = 0.0
        for x, dur in zip(traj.seg_states, traj.seg_durations):
            if dur > 0.0:
                val, _ = integrate.quad(
                    lambda s, x0=x[0]: 200.0 * x0 * math.exp(-1.5 * s), 0.0, dur)
                oracle += val
        assert traj.clocks[0] == pytest.approx(oracle, rel=1e-8)

    def test_jump_count_matches_counting_process(self):
        m = rs.builtin_linear_scalar(**SET1)
        bundle = rs.PathBundle(8, 1, 1)
        traj = rs.exact_trajectory(m, bundle, [10.0], 0.5)
        assert traj.jump_count == bundle[0].count_at(traj.clocks[0])

    def test_firing_clock_lands_exactly_on_epoch(self):
        m = rs.builtin_linear_scalar(**SET1)
        bundle = rs.PathBundle(12, 0, 1)
        traj = rs.exact_trajectory(m, bundle, [10.0], 0.05)
        assert traj.jump_count >= 1
        epochs = bundle[0].epochs
        # after the first jump the internal clock equals the first epoch
        mini = rs.exact_trajectory(m, rs.PathBundle(12, 0, 1), [10.0],
                                   float(traj.jump_times[0]))
        assert mini.clocks[0] == epochs[0]

    def test_interior_state_matches_ode_oracle(self):
        m = rs.builtin_linear_scalar(**SET1)
        traj = rs.exact_trajectory(m, rs.PathBundle(9, 0, 1), [10.0], 0.2)
        assert traj.jump_count >= 2
        i = traj.jump_count // 2
        t0 = traj.seg_starts[i]
        dur = traj.seg_durations[i]
        t = t0 + 0.5 * dur
        sol = integrate.solve_ivp(lambda s, y: -1.5 * y, (0.0, 0.5 * dur),
                                  traj.seg_states[i], rtol=1e-11, atol=1e-13)
        assert traj.state_at(t)[0] == pytest.approx(sol.y[0, -1], rel=1e-8)

    def test_right_continuous_at_jumps(self):
        m = rs.builtin_linear_scalar(**SET1)
        traj = rs.exact_trajectory(m, rs.PathBundle(9, 1, 1), [10.0], 0.1)
        assert traj.jump_count >= 1
        t1 = traj.jump_times[0]
        assert np.array_equal(traj.state_at(t1), traj.states_post_jump[0])

    def test_pathwise_unique(self):
        m = rs.builtin_linear_scalar(**SET1)
        a = rs.exact_trajectory(m, rs.PathBundle(4, 5, 1), [10.0], 1.0)
        b = rs.exact_trajectory(m, rs.PathBundle(4, 5, 1), [10.0], 1.0)
        assert np.array_equal(a.jump_times, b.jump_times)
        assert np.array_equal(a.seg_states, b.seg_states)
        assert np.array_equal(a.clocks, b.clocks)

    def test_runaway_guard(self):
        m = rs.builtin_linear_scalar(**SET1)
        with pytest.raises(RunawayJumpError):
            rs.exact_trajectory(m, rs.PathBundle(4, 0, 1), [10.0], 5.0,
                                max_jumps=10)

    def test_requires_hooks(self):
        with pytest.raises(UnsupportedModelError):
            rs.exact_trajectory(rs.builtin_bacteriophage(), rs.PathBundle(0, 0, 4),
                                np.ones(3), 1.0)

    def test_state_at_range_checked(self):
        m = rs.builtin_linear_scalar(**SET1)
        traj = rs.exact_trajectory(m, rs.PathBundle(4, 2, 1), [10.0], 1.0)
        with pytest.raises(ConfigurationError):
            traj.state_at(-0.1)
        with pytest.raises(ConfigurationError):
            traj.state_at(1.2)

    def test_sample_grid(self):
        m = rs.builtin_linear_scalar(**SET1)
        traj = rs.exact_trajectory(m, rs.PathBundle(4, 2, 1), [10.0], 1.0)
        times, states = traj.sample_grid(0.25)
        assert np.array_equal(times, np.arange(5) * 0.25)
        assert states.shape == (5, 1)
        assert states[0, 0] == 10.0
        assert states[-1, 0] == pytest.approx(traj.endpoint[0], rel=1e-12)

    def test_csv_exports(self, tmp_path):
        m = rs.builtin_linear_scalar(**SET1)
        traj = rs.exact_trajectory(m, rs.PathBundle(4, 2, 1), [10.0], 0.05)
        jumps = tmp_path / "jumps.csv"
        segs = tmp_path / "segs.csv"
        with open(jumps, "w") as f:
            traj.write_jumps_csv(f)
        with open(segs, "w") as f:
            traj.write_segments_csv(f)
        jl = jumps.read_text().splitlines()
        assert jl[0] == "jump_time,process_id,x_1"
        assert len(jl) == traj.jump_count + 1
        assert jl[1].split(",")[1] == "1"  # process ids reported 1-based
        sl = segs.read_text().splitlines()
        assert sl[0] == "seg_start,duration,x_1"
        assert len(sl) == len(traj.seg_starts) + 1


def birth_death(alpha=1.5, birth=150.0, death=100.0, eps=0.007):
    """Linear decay with two processes: up-jumps at birth*x, down at death*x."""
    up = rs.builtin_linear_scalar(alpha, birth, eps)
    down = rs.builtin_linear_scalar(alpha, death, eps)
    hooks = rs.AnalyticHooks(
        flow=up.analytic.flow,
        hazard_integral=up.analytic.hazard_integral + down.analytic.hazard_integral,
        hazard_inverse=up.analytic.hazard_inverse + down.analytic.hazard_inverse)
    return rs.RteModel(1, up.drift, up.rates + down.rates, [[eps], [-eps]],
                       analytic=hooks, name="birth-death")


BLOCK_MODELS = {
    "linear-scalar": lambda: rs.builtin_linear_scalar(**SET1),
    "quadratic-scalar": lambda: rs.builtin_quadratic_scalar(beta=20.0),
    "birth-death": birth_death,
}


def collect_block(model, seed, reps, x0, T, **kwargs):
    """exact_block's result plus every row's segments, in arrival order."""
    segments = {i: [] for i in range(len(reps))}

    def on_segment(rows, x, dur):
        for i, xi, di in zip(rows.tolist(), x, dur):
            segments[i].append((xi.copy(), di))

    ends = exact_block(model, seed, reps, x0, T, on_segment, **kwargs)
    return ends, segments


class TestExactBlock:
    @pytest.mark.parametrize("B", [1, 7, 64])
    @pytest.mark.parametrize("name", sorted(BLOCK_MODELS))
    def test_rows_equal_exact_trajectory_bitwise(self, name, B):
        model = BLOCK_MODELS[name]()
        reps = range(5, 5 + B)
        ends, segments = collect_block(model, 21, reps, [10.0], 0.25)
        for i, j in enumerate(reps):
            traj = rs.exact_trajectory(model, rs.PathBundle(21, j, model.jump_count),
                                       [10.0], 0.25)
            states = np.array([x for x, _ in segments[i]])
            durs = np.array([dur for _, dur in segments[i]])
            assert np.array_equal(states, traj.seg_states), (name, B, j)
            assert np.array_equal(durs, traj.seg_durations), (name, B, j)
            t, jump_times = 0.0, []
            for dur in durs[:-1]:
                t += dur
                jump_times.append(t)
            assert np.array_equal(jump_times, traj.jump_times)
            assert np.array_equal(ends.endpoints[i], traj.endpoint)
            assert np.array_equal(ends.clocks[i], traj.clocks)
            assert ends.jump_counts[i] == traj.jump_count
        # every stream was read past its first epoch batch
        assert ends.clocks.min() > 128

    def test_jump_free_row_is_one_segment(self):
        m = zero_rate_model(alpha=1.5)
        ends, segments = collect_block(m, 0, range(3), [10.0], 1.0)
        assert [len(s) for s in segments.values()] == [1, 1, 1]
        assert ends.jump_counts.tolist() == [0, 0, 0]
        assert ends.endpoints[:, 0] == pytest.approx(10.0 * math.exp(-1.5),
                                                     rel=1e-15)

    def test_empty_block(self):
        m = rs.builtin_linear_scalar(**SET1)
        ends = exact_block(m, 0, range(0), [10.0], 1.0, None)
        assert ends.endpoints.shape == (0, 1) and ends.clocks.shape == (0, 1)

    def test_nan_inverse_names_replication_and_state(self):
        m = rs.builtin_linear_scalar(**SET1)
        bad = rs.RteModel(1, m.drift, m.rates, m.jumps, name="bad-inverse",
                          analytic=rs.AnalyticHooks(
                              flow=m.analytic.flow,
                              hazard_integral=m.analytic.hazard_integral,
                              hazard_inverse=(lambda delta, x: math.nan,)))
        with pytest.raises(ModelEvaluationError, match=r"^replication 4: ") as info:
            exact_block(bad, 0, range(4, 8), [10.0], 1.0, lambda *a: None)
        assert info.value.replication == 4
        assert np.array_equal(info.value.x, [10.0])

    def test_runaway_guard(self):
        m = rs.builtin_linear_scalar(**SET1)
        with pytest.raises(RunawayJumpError) as info:
            exact_block(m, 4, range(2), [10.0], 5.0, lambda *a: None,
                        max_jumps=10)
        assert info.value.replication == 0

    def test_initial_state_shape_checked(self):
        m = rs.builtin_linear_scalar(**SET1)
        with pytest.raises(ConfigurationError):
            exact_block(m, 0, range(2), [10.0, 1.0], 1.0, lambda *a: None)

    def test_requires_hooks(self):
        with pytest.raises(UnsupportedModelError):
            exact_block(rs.builtin_bacteriophage(), 0, range(2), np.ones(3), 1.0,
                        lambda *a: None)


class TestReference:
    def test_default_step_size(self):
        assert rs.ReferenceSpec().h_ref == pytest.approx(1.0 / 320.0)

    def test_reference_equals_same_config_run(self):
        m = rs.builtin_bacteriophage_scaled()
        x0 = np.array([2.0, 2.0, 1.0])
        spec = rs.ReferenceSpec(h_ref=0.05)
        a = rs.reference_trajectory(m, spec, rs.PathBundle(1, 0, 4), x0, 1.0)
        b = rs.solve_trajectory(m, spec.resolve_config(), rs.PathBundle(1, 0, 4),
                                x0, 1.0)
        assert np.array_equal(a.states, b.states)

    def test_nesting_validation(self):
        spec = rs.ReferenceSpec(h_ref=1.0 / 320.0)
        spec.check_nesting([1.0 / 10.0, 1.0 / 160.0])
        with pytest.raises(GridError):
            spec.check_nesting([1.0 / 300.0])

    def test_config_step_must_match(self):
        with pytest.raises(ConfigurationError):
            rs.ReferenceSpec(h_ref=0.01,
                             config_ref=rs.SolverConfig(theta=0.0, h=0.02))

    def test_zero_rate_reference_is_deterministic_integration(self):
        m = zero_rate_model(alpha=1.5)
        spec = rs.ReferenceSpec(h_ref=0.025)
        traj = rs.reference_trajectory(m, spec, rs.PathBundle(0, 0, 1), [10.0], 1.0)
        x = 10.0
        for _ in range(40):
            x *= 1 - 0.025 * 1.5
        assert traj.endpoint[0] == pytest.approx(x, rel=1e-12)
