import dataclasses
import functools
import gc
import math
import os
import re
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

import rtesim as rs
from conftest import fixed_path, zero_drift_model, zero_rate_model
from rtesim import analysis
from rtesim.analysis import ErrorRow, integrate_along_path
from rtesim.errors import (ConfigurationError, FitError, ImplicitSolveError,
                           ModelEvaluationError, NegativeStateError, QueryError,
                           UnsupportedModelError)
from rtesim.stepper import _phi3_rows, solve_lockstep, step_size_warning

SET1 = dict(alpha=1.5, lam=200.0, eps=0.007)


def rows_from(pairs):
    return [ErrorRow(h, e, 0.0, 1) for h, e in pairs]


class TestFitOrder:
    def test_two_point_half_order(self):
        fit = rs.fit_order(rows_from([(0.1, 0.1), (0.025, 0.05)]))
        assert fit.slope == pytest.approx(math.log(2) / math.log(4), rel=1e-12)

    def test_two_point_first_order(self):
        fit = rs.fit_order(rows_from([(0.1, 0.01), (0.01, 0.001)]))
        assert fit.slope == pytest.approx(1.0, rel=1e-12)

    def test_exact_power_law(self):
        c, q = 3.7, 1.437
        rows = rows_from([(h, c * h ** q) for h in (0.2, 0.1, 0.05, 0.025)])
        fit = rs.fit_order(rows)
        assert fit.slope == pytest.approx(q, rel=1e-10)
        assert fit.intercept == pytest.approx(math.log(c), rel=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_too_few_rows(self):
        with pytest.raises(FitError):
            rs.fit_order(rows_from([(0.1, 0.1)]))

    def test_one_distinct_step_size(self):
        with pytest.raises(FitError, match="distinct step sizes"):
            rs.fit_order(rows_from([(0.25, 0.1), (0.25, 0.2)]))

    def test_nonpositive_error_named(self):
        with pytest.raises(FitError, match="0.05"):
            rs.fit_order(rows_from([(0.1, 0.1), (0.05, 0.0)]))

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_scale_equivariance(self, c):
        base = rows_from([(0.2, 0.08), (0.1, 0.05), (0.05, 0.03)])
        scaled = rows_from([(r.h, c * r.mean_abs_error) for r in base])
        f0, f1 = rs.fit_order(base), rs.fit_order(scaled)
        assert f1.slope == pytest.approx(f0.slope, rel=1e-9, abs=1e-12)
        assert f1.intercept == pytest.approx(f0.intercept + math.log(c), rel=1e-9)


class TestRunReplications:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_error_of_the_lowest_failing_index(self, threads):
        def worker(j):
            if j in (1, 2):
                time.sleep(0.3 if j == 1 else 0.0)  # index 2 fails first
                raise ValueError(f"task {j}")
            return j

        with pytest.raises(ValueError, match="task 1"):
            analysis.run_replications(worker, 4, threads)
        assert analysis.run_replications(lambda j: j * j, 5, threads) == [0, 1, 4, 9, 16]

    @pytest.mark.parametrize("cpus,threads,M,size", [
        (3, 5000, 10_000, 3), (3, 2, 10_000, 2), (8, 5000, 5, 5), (1, 5000, 10, None)])
    def test_pool_size_is_capped_at_the_usable_cpus(self, monkeypatch, cpus,
                                                     threads, M, size):
        # a fake pool records its size and runs its tasks in this process
        sizes = []

        class FakePool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, fn, items):
                return map(fn, items)

        class FakeContext:
            Pool = FakePool

        monkeypatch.setattr(analysis, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(analysis.mp, "get_context", lambda method: FakeContext)
        assert analysis.run_replications(lambda j: -j, M, threads) == \
            [-j for j in range(M)]
        assert sizes == ([] if size is None else [size])

    def test_usable_cpus_bound_the_machine(self):
        assert 1 <= analysis._usable_cpus() <= (os.cpu_count() or 1)


class TestStrongError:
    def test_variant_equal_to_reference_has_zero_error(self):
        m = rs.builtin_bacteriophage_scaled()
        cfg = rs.SolverConfig(theta=0.0, h=0.1)
        rep = rs.strong_error(m, cfg, [cfg], [2.0, 2.0, 1.0], 1.0, 3, 5)
        assert rep.rows[0].mean_abs_error == 0.0
        assert rep.rows[0].std_error == 0.0

    def test_zero_dynamics_zero_error(self):
        # drift and rates vanish: every scheme reproduces x0 exactly
        m = rs.RteModel(1, lambda x: 0.0 * x, (lambda x: 0.0 * x[..., 0],),
                        [[0.0]], name="frozen")
        ref = rs.SolverConfig(theta=0.0, h=0.125)
        cfgs = [rs.SolverConfig(theta=t, h=0.25) for t in (0.0, 1.0)]
        rep = rs.strong_error(m, ref, cfgs, [4.0], 1.0, 2, 0)
        assert all(r.mean_abs_error == 0.0 for r in rep.rows)

    def test_single_replication_deterministic(self):
        m = rs.builtin_linear_scalar(**SET1)
        cfgs = [rs.SolverConfig(theta=0.0, h=0.25)]
        a = rs.strong_error(m, "exact", cfgs, [10.0], 1.0, 1, 99)
        b = rs.strong_error(m, "exact", cfgs, [10.0], 1.0, 1, 99)
        assert a.rows[0].mean_abs_error == b.rows[0].mean_abs_error
        assert a.rows[0].std_error == 0.0

    def test_permuting_configs_permutes_rows(self):
        m = rs.builtin_linear_scalar(**SET1)
        cfgs = [rs.SolverConfig(theta=0.0, h=h) for h in (0.5, 0.25, 0.125)]
        fwd = rs.strong_error(m, "exact", cfgs, [10.0], 1.0, 4, 7)
        rev = rs.strong_error(m, "exact", cfgs[::-1], [10.0], 1.0, 4, 7)
        assert [r.mean_abs_error for r in rev.rows] == \
            [r.mean_abs_error for r in fwd.rows][::-1]

    def test_thread_count_does_not_change_results(self):
        m = rs.builtin_linear_scalar(**SET1)
        cfgs = [rs.SolverConfig(theta=0.5, h=0.25, quadrature="trapezoidal")]
        serial = rs.strong_error(m, "exact", cfgs, [10.0], 1.0, 6, 3, threads=1)
        pooled = rs.strong_error(m, "exact", cfgs, [10.0], 1.0, 6, 3, threads=2)
        assert serial.rows == pooled.rows

    def test_failing_replication_identified(self):
        m = rs.RteModel(1, lambda x: -40.0 * x, (lambda x: 0.0 * x[..., 0],),
                        [[0.0]], analytic=zero_rate_model(40.0).analytic,
                        name="stiff")
        cfgs = [rs.SolverConfig(theta=1.0, h=0.5)]  # h*L = 20: no contraction
        with pytest.raises(ImplicitSolveError, match=r"replication 0"):
            rs.strong_error(m, "exact", cfgs, [1.0], 1.0, 2, 0)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_error_keeps_fields_and_cause(self, threads):
        stiff = rs.RteModel(1, lambda x: -40.0 * x, (lambda x: 0.0 * x[..., 0],),
                            [[0.0]], analytic=zero_rate_model(40.0).analytic,
                            name="stiff")
        with pytest.raises(ImplicitSolveError) as info:
            rs.strong_error(stiff, "exact", [rs.SolverConfig(theta=1.0, h=0.5)],
                            [1.0], 1.0, 4, 0, threads=threads)
        e = info.value
        assert e.replication in range(4) and e.config == "theta1-euler-h0.5"
        assert e.step == 0 and e.residual > 1.0
        assert str(e).startswith(f"replication {e.replication}, "
                                 f"config theta1-euler-h0.5: ")
        if threads == 1:  # a worker process sends back a remote traceback
            assert e.replication == 0
            assert isinstance(e.__cause__, ImplicitSolveError)
            assert (e.__cause__.residual, e.__cause__.step) == (e.residual, e.step)
            assert e.__cause__.replication is None
        # a drift that fails below x = 9: the exact reference never calls it
        m = rs.builtin_linear_scalar(**SET1)
        fragile = rs.RteModel(
            1, lambda x: np.where(x < 9.0, np.nan, -1.5 * x), m.rates, m.jumps,
            analytic=m.analytic, name="fragile")
        with pytest.raises(ModelEvaluationError) as info:
            rs.strong_error(fragile, "exact", [rs.SolverConfig(theta=0.0, h=0.25)],
                            [10.0], 1.0, 4, 0, threads=threads)
        e = info.value
        assert e.replication in range(4) and e.config == "theta0-euler-h0.25"
        assert e.x is not None and e.x[0] < 9.0

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("case", ["negative-state", "clock-query", "non-finite-rate"])
    def test_lockstep_error_names_its_row_and_step(self, case, threads):
        # each case's rows fail at different steps, the earliest not on row 0
        m = rs.builtin_linear_scalar(**SET1)
        fine = rs.SolverConfig(theta=0.0, h=0.0625)
        model, x0, T, cfg, reference, kind = {
            "negative-state": (
                rs.RteModel(1, lambda x: 0.0 * x, (lambda x: 5.0 + 0.0 * x[..., 0],),
                            [[-0.3]], name="draining"),
                [2.0], 4.0, rs.SolverConfig(theta=0.0, h=0.125, negativity="error"),
                fine, NegativeStateError),
            # unclamped improved-midpoint phi3 goes negative: a reversed clock query
            "clock-query": (
                rs.RteModel(1, lambda x: 3.0 - 4.0 * x,
                            (lambda x: 30.0 - 20.0 * x[..., 0],), [[1.0]],
                            name="collapsing"),
                [1.3], 2.0, rs.SolverConfig(theta=0.0, h=0.25, clamp_phi3=False,
                                            quadrature="improved-midpoint"),
                fine, QueryError),
            # the exact reference never evaluates the rate
            "non-finite-rate": (
                rs.RteModel(1, m.drift, (lambda x: np.where(
                    x[..., 0] < 9.0, np.nan, 200.0 * x[..., 0]),), m.jumps,
                            analytic=m.analytic, name="nan-rate"),
                [10.0], 1.0, fine, "exact", ModelEvaluationError),
        }[case]
        steps = {}
        for j in range(8):
            try:
                rs.solve_trajectory(model, cfg, rs.PathBundle(3, j, 1), x0, T)
            except kind as e:
                steps[j] = e.step
        first = min(steps.values())
        want = min(j for j, step in steps.items() if step == first)
        assert want > 0 and len(set(steps.values())) > 1
        with pytest.raises(kind) as info:
            rs.strong_error(model, reference, [cfg], x0, T, 8, 3, threads=threads)
        e = info.value
        assert (e.replication, e.config, e.row, e.step) == (want, cfg.label(), want,
                                                            first)
        assert (e.x is None) == (kind is QueryError)

    def test_reference_error_comes_before_config_errors(self):
        # the config's drift fails at its second step on every row, so on
        # replication 0 first; the exact reference, solved first, fails on
        # replications 2 and 3 (epoch gaps below 1e-3)
        m = rs.builtin_linear_scalar(**SET1)
        inverse = m.analytic.hazard_inverse[0]
        hooks = rs.AnalyticHooks(
            flow=m.analytic.flow, hazard_integral=m.analytic.hazard_integral,
            hazard_inverse=(lambda delta, x: (math.nan if delta < 1e-3
                                              else inverse(delta, x)),),
            drift_integral=m.analytic.drift_integral)
        fragile = rs.RteModel(
            1, lambda x: np.where(x < 9.9, np.nan, -1.5 * x), m.rates, m.jumps,
            analytic=hooks, name="fragile")
        with pytest.raises(ModelEvaluationError) as info:
            rs.strong_error(fragile, "exact", [rs.SolverConfig(theta=0.0, h=0.25)],
                            [10.0], 0.5, 4, 0, threads=1)
        e = info.value
        assert (e.replication, e.config) == (2, "reference")
        assert str(e).startswith("replication 2, reference: hazard_inverse[0]")

    @pytest.mark.parametrize("threads", [1, 2])
    def test_group_error_names_the_failing_config_and_replication(self, threads):
        # theta = 0 and theta = 1 share h, so they are one lock-step task;
        # only the theta = 1 rows stall, each at its own step
        model = rs.RteModel(1, lambda x: -0.5 * x * x,
                            (lambda x: 3.0 * x[..., 0],), [[0.5]], name="stiffening")
        cfgs = [rs.SolverConfig(theta=0.0, h=0.25), rs.SolverConfig(theta=1.0, h=0.25)]
        stalls = {}
        for j in range(12):
            try:
                rs.solve_trajectory(model, cfgs[1], rs.PathBundle(2, j, 1), [2.0], 4.0)
            except ImplicitSolveError as e:
                stalls[j] = e.step
            rs.solve_trajectory(model, cfgs[0], rs.PathBundle(2, j, 1), [2.0], 4.0)
        first = min(stalls.values())
        want = min(j for j, step in stalls.items() if step == first)
        assert want > 0 and len(set(stalls.values())) > 1
        with pytest.raises(ImplicitSolveError) as info:
            rs.strong_error(model, rs.SolverConfig(theta=0.0, h=0.125), cfgs,
                            [2.0], 4.0, 12, 2, threads=threads)
        e = info.value
        assert (e.replication, e.config, e.step) == (want, "theta1-euler-h0.25", first)
        assert str(e).startswith(f"replication {want}, config theta1-euler-h0.25: ")

    def test_step_size_warning_once_per_config(self, monkeypatch):
        # L_f is declared far above the drift's real slope, so Picard contracts
        m = rs.RteModel(1, lambda x: -0.1 * x, (lambda x: 2.0 + 0.0 * x[..., 0],),
                        [[0.1]], lipschitz_f=10.0, name="loose-bound")
        cfgs = [rs.SolverConfig(theta=t, h=h) for t, h in
                ((1.0, 0.5), (0.0, 0.5), (0.5, 0.25), (0.5, 0.125))]
        ref = rs.SolverConfig(theta=1.0, h=0.125)
        monkeypatch.setattr(analysis, "_BLOCK_ROWS", 2)  # several blocks
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rs.strong_error(m, ref, cfgs, [1.0], 1.0, 4, 0)
        assert [str(w.message) for w in caught] == [
            step_size_warning(m, c) for c in (ref, cfgs[0], cfgs[2])]

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("case", ["linear-exact", "bacteriophage-fine-step"])
    def test_block_size_does_not_change_results(self, monkeypatch, case, threads):
        if case == "linear-exact":
            m, ref, x0 = rs.builtin_linear_scalar(**SET1), "exact", [10.0]
            cfgs = [rs.SolverConfig(theta=t, h=0.25, quadrature=q)
                    for t, q in ((0.0, "euler"), (1.0, "euler"), (0.5, "trapezoidal"))]
        else:
            m, ref, x0 = (rs.builtin_bacteriophage_scaled(),
                          rs.SolverConfig(theta=0.0, h=0.05), [2.0, 2.0, 1.0])
            cfgs = [rs.SolverConfig(theta=t, h=0.2, quadrature=q)
                    for t, q in ((0.0, "euler"), (0.5, "improved-trapezoidal"))]
        reports = []
        for block in (1, 7, 64):
            monkeypatch.setattr(analysis, "_BLOCK_ROWS", block)
            reports.append(rs.strong_error(m, ref, cfgs, x0, 1.0, 20, 4,
                                           threads=threads))
        for rep in reports[1:]:
            assert rep.rows == reports[0].rows
            assert np.array_equal(rep.signed_errors, reports[0].signed_errors)

    @staticmethod
    def _task_counts(monkeypatch):
        """The task count of every run_replications call, in call order."""
        counts = []
        run = analysis.run_replications

        def counted(worker, M, threads=1):
            counts.append(M)
            return run(worker, M, threads)

        monkeypatch.setattr(analysis, "run_replications", counted)
        return counts

    def test_nested_step_sizes_of_a_small_block_are_one_task(self, monkeypatch):
        m = rs.builtin_linear_scalar(**SET1)
        cfgs = [rs.SolverConfig(theta=t, h=h, quadrature=q)
                for t, q in ((0.0, "euler"), (1.0, "euler"), (0.5, "trapezoidal"))
                for h in (0.25, 0.5, 0.125)]
        tasks = self._task_counts(monkeypatch)
        grouped = rs.strong_error(m, "exact", cfgs, [10.0], 1.0, 4, 7)
        assert tasks == [2]  # the exact reference and one group
        monkeypatch.setattr(analysis, "_BLOCK_ROWS", 4)  # every config alone
        alone = rs.strong_error(m, "exact", cfgs, [10.0], 1.0, 4, 7)
        assert tasks == [2, 1 + len(cfgs)]
        assert np.array_equal(grouped.signed_errors, alone.signed_errors)
        assert grouped.rows == alone.rows

    def test_step_sizes_that_do_not_nest_form_separate_groups(self, monkeypatch):
        m = rs.builtin_linear_scalar(**SET1)
        cfgs = [rs.SolverConfig(theta=t, h=h) for h in (0.25, 0.1) for t in (0.0, 1.0)]
        tasks = self._task_counts(monkeypatch)
        grouped = rs.strong_error(m, "exact", cfgs, [10.0], 1.0, 4, 7)
        assert tasks == [3]
        monkeypatch.setattr(analysis, "_BLOCK_ROWS", 4)
        alone = rs.strong_error(m, "exact", cfgs, [10.0], 1.0, 4, 7)
        assert np.array_equal(grouped.signed_errors, alone.signed_errors)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_error_of_the_earliest_pass_names_a_coarse_config(self, threads):
        # the h = 1/4 rows stall at their first step, before any h = 1/8 row
        model = rs.RteModel(1, lambda x: -0.5 * x * x,
                            (lambda x: 3.0 * x[..., 0],), [[1.0]], name="stiffening")
        cfgs = [rs.SolverConfig(theta=1.0, h=h) for h in (0.25, 0.125)]
        stalls = {}
        for c, cfg in enumerate(cfgs):
            for j in range(8):
                try:
                    rs.solve_trajectory(model, cfg, rs.PathBundle(29, j, 1), [2.0], 4.0)
                except ImplicitSolveError as e:
                    stalls[c, j] = e.step
        # the group steps h = 1/4 on every second pass of the h = 1/8 grid
        # and holds its rows after those of h = 1/8
        ratio, rank = (2, 1), (1, 0)
        c, want = min(stalls, key=lambda cj: ((stalls[cj] + 1) * ratio[cj[0]],
                                              rank[cj[0]], cj[1]))
        assert c == 0 and any(k == 1 for k, _ in stalls)  # both configs stall
        with pytest.raises(ImplicitSolveError) as info:
            rs.strong_error(model, rs.SolverConfig(theta=0.0, h=0.0625), cfgs,
                            [2.0], 4.0, 8, 29, threads=threads)
        e = info.value
        assert (e.replication, e.config, e.step) == (want, cfgs[0].label(),
                                                     stalls[0, want])

    def test_signed_errors_are_endpoint_differences(self):
        m = rs.builtin_bacteriophage_scaled()
        ref_cfg = rs.SolverConfig(theta=0.0, h=0.05)
        cfgs = [rs.SolverConfig(theta=0.0, h=0.2), rs.SolverConfig(theta=1.0, h=0.1)]
        x0 = [2.0, 2.0, 1.0]
        rep = rs.strong_error(m, ref_cfg, cfgs, x0, 1.0, 5, 8, norm="max")
        assert rep.signed_errors.shape == (5, 2, 3)
        for j in range(5):
            ref = rs.solve_trajectory(m, ref_cfg,
                                      rs.PathBundle(8, j, 4), x0, 1.0).endpoint
            for i, cfg in enumerate(cfgs):
                end = rs.solve_trajectory(m, cfg, rs.PathBundle(8, j, 4), x0, 1.0).endpoint
                assert np.array_equal(rep.signed_errors[j, i], end - ref)
        norms = np.abs(rep.signed_errors).max(axis=-1)
        assert [r.mean_abs_error for r in rep.rows] == norms.mean(axis=0).tolist()

    def test_solver_config_reference_is_that_config_on_the_same_epochs(self):
        m = rs.builtin_bacteriophage_scaled()
        ref = rs.SolverConfig(theta=0.5, h=0.05, quadrature="midpoint")
        cfgs = [rs.SolverConfig(theta=0.0, h=0.2),
                rs.SolverConfig(theta=1.0, h=0.1, quadrature="trapezoidal")]
        x0, M = [2.0, 2.0, 1.0], 7
        rep = rs.strong_error(m, ref, cfgs, x0, 1.0, M, 3, threads=2)

        def endpoints(cfg):  # any partition: a row does not depend on its block
            return np.concatenate([solve_lockstep(
                m, [cfg], rs.EpochWindows(3, reps, 4), x0, 1.0).endpoints
                for reps in (range(0, 4), range(4, 7))])

        signed = np.stack([endpoints(c) - endpoints(ref) for c in cfgs], axis=1)
        assert np.array_equal(rep.signed_errors, signed)
        norms = np.sqrt(np.sum(signed * signed, axis=-1))
        means, ses = norms.mean(axis=0), norms.std(axis=0, ddof=1) / math.sqrt(M)
        assert rep.rows == [ErrorRow(c.h, float(means[i]), float(ses[i]), M)
                            for i, c in enumerate(cfgs)]

    @pytest.mark.parametrize("reference", [
        0.05, None, "fine-step", {"h_ref": 0.05},
        [rs.SolverConfig(theta=0.0, h=0.05)]])
    def test_unknown_reference_is_configuration_error(self, reference):
        m = rs.builtin_linear_scalar(**SET1)
        with pytest.raises(ConfigurationError, match=re.escape(repr(reference))):
            rs.strong_error(m, reference, [rs.SolverConfig(theta=0.0, h=0.25)],
                            [10.0], 1.0, 2, 0)

    def test_max_norm_option(self):
        m = rs.builtin_bacteriophage_scaled()
        ref = rs.SolverConfig(theta=0.0, h=0.05)
        cfgs = [rs.SolverConfig(theta=0.0, h=0.2)]
        eu = rs.strong_error(m, ref, cfgs, [2.0, 2.0, 1.0], 1.0, 4, 1)
        mx = rs.strong_error(m, ref, cfgs, [2.0, 2.0, 1.0], 1.0, 4, 1, norm="max")
        assert mx.rows[0].mean_abs_error <= eu.rows[0].mean_abs_error

    def test_endpoints_anchor_to_exact_solution(self):
        # coupled mean errors against the exact endpoint shrink with h
        m = rs.builtin_linear_scalar(**SET1)
        cfgs = [rs.SolverConfig(theta=0.5, h=h, quadrature="trapezoidal")
                for h in (0.5, 0.125, 0.03125)]
        rep = rs.strong_error(m, "exact", cfgs, [10.0], 2.0, 40, 6, threads=2)
        means = [r.mean_abs_error for r in rep.rows]
        assert means[0] > means[1] > means[2]


def _segment_overlaps(exact, a, b):
    """Yield (segment state, lo, hi) offsets covering [a, b] piecewise."""
    starts = exact.seg_starts
    durs = exact.seg_durations
    i = max(int(np.searchsorted(starts, a, side="right")) - 1, 0)
    while i < len(starts):
        s0 = starts[i]
        s1 = s0 + durs[i]
        lo = max(a, s0)
        hi = min(b, s1)
        if hi > lo:
            yield exact.seg_states[i], lo - s0, hi - s0
        if s1 >= b:
            break
        i += 1


def reference_local_error(model, exact, config, n):
    """Step n of ``local_errors``, one step at a time with pointwise hooks.

    Returns (L, K, L_scale, K_scale): the two error vectors and the size
    of the terms that cancel in each.
    """
    hooks = model.analytic
    h = config.h
    t0, t1 = n * h, (n + 1) * h
    drift_int = np.zeros(model.dim)
    hazard_int = np.zeros(model.jump_count)
    for x_seg, lo, hi in _segment_overlaps(exact, t0, t1):
        drift_int += (np.asarray(hooks.drift_integral(hi, x_seg), dtype=float)
                      - np.asarray(hooks.drift_integral(lo, x_seg), dtype=float))
        for k in range(model.jump_count):
            hazard_int[k] += (hooks.hazard_integral[k](hi, x_seg)
                              - hooks.hazard_integral[k](lo, x_seg))
    x_n = exact.state_at(t0)
    x_n1 = exact.state_at(min(t1, exact.T))
    phi1 = ((1.0 - config.theta) * rs.eval_drift(model, x_n)
            + config.theta * rs.eval_drift(model, x_n1))
    phis, _ = _phi3_rows(model, x_n, h, config.quadrature, config.clamp_phi3)
    L = drift_int - h * phi1
    K = (hazard_int - h * phis) @ model.jumps
    L_scale = np.abs(drift_int) + h * np.abs(phi1)
    K_scale = (np.abs(hazard_int) + h * np.abs(phis)) @ np.abs(model.jumps)
    return L, K, L_scale, K_scale


def synthetic_jump_free(model, x0, T):
    return rs.ExactTrajectory(
        model=model, x0=np.array([x0]), T=T,
        jump_times=np.empty(0), jump_ids=np.empty(0, dtype=int),
        states_post_jump=np.empty((0, 1)),
        seg_starts=np.array([0.0]), seg_states=np.array([[x0]]),
        seg_durations=np.array([T]), clocks=np.zeros(1))


class TestLocalErrors:
    def test_euler_clock_error_on_jump_free_step(self):
        # rate integral over [0, 0.1] is 2000*(1-e^{-0.15})/1.5 ~ 185.723
        m = rs.builtin_linear_scalar(**SET1)
        traj = synthetic_jump_free(m, 10.0, 0.1)
        cfg = rs.SolverConfig(theta=0.0, h=0.1, quadrature="euler")
        _, K = rs.local_errors(m, traj, [cfg])[0][0]
        integral = 2000.0 * (1 - math.exp(-0.15)) / 1.5
        assert integral == pytest.approx(185.723, abs=5e-4)
        assert K == pytest.approx(abs(integral - 200.0) * 0.007, rel=1e-12)
        assert K == pytest.approx(0.09994, abs=5e-6)
        oracle, _ = integrate.quad(lambda u: 200.0 * 10.0 * math.exp(-1.5 * u),
                                   0.0, 0.1)
        assert K == pytest.approx(abs(oracle - 200.0) * 0.007, rel=1e-8)

    def test_zero_rates_give_zero_K(self):
        m = zero_rate_model(alpha=1.5)
        traj = synthetic_jump_free(m, 10.0, 0.1)
        _, K = rs.local_errors(m, traj, [rs.SolverConfig(theta=0.5, h=0.1)])[0][0]
        assert K == 0.0

    def test_zero_drift_gives_zero_L(self):
        m = zero_drift_model(lam=2.0, eps=0.5)
        traj = rs.exact_trajectory(m, rs.PathBundle(3, 0, 1), [1.0], 1.0)
        L, _ = rs.local_errors(m, traj, [rs.SolverConfig(theta=0.5, h=0.25)])[0][1]
        assert L == 0.0

    def test_step_spanning_jumps_matches_quadrature(self):
        m = rs.builtin_linear_scalar(**SET1)
        traj = rs.exact_trajectory(m, rs.PathBundle(6, 0, 1), [10.0], 0.2)
        assert traj.jump_count >= 2
        cfg = rs.SolverConfig(theta=0.3, h=0.1, quadrature="euler")
        _, K = rs.local_errors(m, traj, [cfg])[0][1]
        # oracle: piecewise quadrature of the rate along the reconstructed path
        integral = 0.0
        for x, lo, hi in _segment_overlaps(traj, 0.1, 0.2):
            val, _ = integrate.quad(
                lambda u, x0=x[0]: 200.0 * x0 * math.exp(-1.5 * u), lo, hi)
            integral += val
        expected = abs(integral - 0.1 * 200.0 * traj.state_at(0.1)[0]) * 0.007
        assert K == pytest.approx(expected, rel=1e-8)

    def test_theta_weighting_in_L(self):
        m = rs.builtin_linear_scalar(**SET1)
        traj = synthetic_jump_free(m, 10.0, 0.1)
        h = 0.1
        drift_int = 10.0 * (math.exp(-1.5 * h) - 1.0)
        thetas = (0.0, 0.5, 1.0)
        errs = rs.local_errors(m, traj, [rs.SolverConfig(theta=t, h=h) for t in thetas])
        for theta, (L, _) in zip(thetas, (e[0] for e in errs)):
            phi1 = (1 - theta) * (-1.5 * 10.0) + theta * (-1.5 * traj.state_at(h)[0])
            assert L == pytest.approx(abs(drift_int - h * phi1), rel=1e-12)

    def test_requires_drift_integral(self):
        m = rs.builtin_linear_scalar(**SET1)
        hooks = rs.AnalyticHooks(flow=m.analytic.flow,
                                 hazard_integral=m.analytic.hazard_integral,
                                 hazard_inverse=m.analytic.hazard_inverse)
        bare = rs.RteModel(1, m.drift, m.rates, m.jumps, analytic=hooks)
        traj = synthetic_jump_free(bare, 10.0, 0.1)
        with pytest.raises(UnsupportedModelError):
            rs.local_errors(bare, traj, [rs.SolverConfig(theta=0.0, h=0.1)])

    def test_step_must_be_covered(self):
        # 0.1 / 0.04 = 2.5: the grid does not tile the path's horizon
        m = rs.builtin_linear_scalar(**SET1)
        traj = synthetic_jump_free(m, 10.0, 0.1)
        with pytest.raises(ConfigurationError):
            rs.local_errors(m, traj, [rs.SolverConfig(theta=0.0, h=0.04)])

    def test_returns_every_step_in_order(self):
        m = rs.builtin_linear_scalar(**SET1)
        traj = rs.exact_trajectory(m, rs.PathBundle(2, 0, 1), [10.0], 1.0)
        # one array per config, in config order, one row per step
        errs = rs.local_errors(m, traj, [rs.SolverConfig(theta=0.0, h=0.125),
                                         rs.SolverConfig(theta=1.0, h=0.25)])
        assert [(e.dtype, e.shape) for e in errs] == [(np.float64, (8, 2)),
                                                      (np.float64, (4, 2))]


@functools.lru_cache(maxsize=None)
def _oracle_cases():
    """(model, exact path) pairs: dense jumps, a jump-free path, fixtures."""
    lin = rs.builtin_linear_scalar(**SET1)
    quad = rs.builtin_quadratic_scalar(alpha=1.0, beta=40.0, eps=0.01)
    zr = zero_rate_model(alpha=1.5)
    zd = zero_drift_model(lam=40.0, eps=0.5)
    return {
        "linear-scalar": (lin, rs.exact_trajectory(lin, rs.PathBundle(8, 0, 1),
                                                   [10.0], 1.0)),
        "quadratic-scalar": (quad, rs.exact_trajectory(
            quad, rs.PathBundle(8, 1, 1), [1.0], 1.0)),
        "jump-free": (lin, synthetic_jump_free(lin, 10.0, 1.0)),
        "zero-rate": (zr, rs.exact_trajectory(zr, rs.PathBundle(8, 2, 1),
                                              [10.0], 1.0)),
        "zero-drift": (zd, rs.exact_trajectory(zd, rs.PathBundle(8, 3, 1),
                                               [1.0], 1.0)),
    }


class TestLocalErrorStudy:
    @pytest.mark.parametrize("case", ["linear-scalar", "quadratic-scalar"])
    def test_arrays_hold_the_samples_of_local_errors(self, monkeypatch, case):
        m, x0 = {"linear-scalar": (rs.builtin_linear_scalar(**SET1), [10.0]),
                 "quadratic-scalar": (rs.builtin_quadratic_scalar(
                     alpha=1.0, beta=40.0, eps=0.01), [1.0])}[case]
        # configs of one h share its piece table; their step sizes interleave
        cfgs = [rs.SolverConfig(theta=theta, quadrature=rule, h=h)
                for theta, rule, h in [
                    (0.0, "euler", 0.25), (1.0, "euler", 0.125),
                    (0.5, "trapezoidal", 0.25), (0.5, "improved-midpoint", 0.125),
                    (0.0, "euler", 0.125), (1.0, "euler", 0.25),
                    (0.5, "trapezoidal", 0.125), (0.5, "improved-midpoint", 0.25)]]
        built = []
        pieces = analysis._step_pieces
        monkeypatch.setattr(analysis, "_step_pieces",
                            lambda m, e, h: built.append(h) or pieces(m, e, h))
        per_cfg = analysis.local_error_study(m, cfgs, x0, 1.0, 3, 5)
        assert built == [0.25, 0.125] * 3  # one table per h per replication
        assert len(per_cfg) == len(cfgs)
        for cfg, arrays in zip(cfgs, per_cfg):
            assert len(arrays) == 3
            for j, errs in enumerate(arrays):
                traj = rs.exact_trajectory(m, rs.PathBundle(5, j, 1), x0, 1.0)
                alone = rs.local_errors(m, traj, [cfg])[0]
                assert errs.dtype == float and errs.shape == (round(1.0 / cfg.h), 2)
                assert np.array_equal(errs, alone)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_local_error_study_names_the_failing_replication(self, threads):
        # the exact paths of replications 2 and 3 meet an epoch gap below 1e-3
        m = rs.builtin_linear_scalar(**SET1)
        inverse = m.analytic.hazard_inverse[0]
        hooks = dataclasses.replace(m.analytic, hazard_inverse=(
            lambda delta, x: math.nan if delta < 1e-3 else inverse(delta, x),))
        fragile = rs.RteModel(1, m.drift, m.rates, m.jumps, analytic=hooks,
                              name="fragile")
        cfgs = [rs.SolverConfig(theta=0.0, h=0.25)]
        with pytest.raises(ModelEvaluationError) as info:
            rs.strong_error(fragile, "exact", cfgs, [10.0], 0.5, 4, 0, threads=threads)
        assert (info.value.replication, info.value.config) == (2, "reference")
        with pytest.raises(ModelEvaluationError) as info:
            analysis.local_error_study(fragile, cfgs, [10.0], 0.5, 4, 0, threads=threads)
        e = info.value
        assert (e.replication, e.config) == (2, None)
        assert str(e).startswith("replication 2: hazard_inverse[0] returned nan")
        assert e.x is not None
        if threads == 1:  # a worker process sends back a remote traceback
            assert isinstance(e.__cause__, ModelEvaluationError)
            assert e.__cause__.replication is None

    @pytest.mark.parametrize("driver", ["strong_error", "local_error_study"])
    def test_drivers_need_a_replication(self, driver):
        m = rs.builtin_linear_scalar(**SET1)
        cfgs = [rs.SolverConfig(theta=0.0, h=0.25)]
        call = {"strong_error": lambda: rs.strong_error(
                    m, "exact", cfgs, [10.0], 0.5, 0, 0),
                "local_error_study": lambda: analysis.local_error_study(
                    m, cfgs, [10.0], 0.5, 0, 0)}[driver]
        with pytest.raises(ConfigurationError,
                           match=r"^replication count M must be >= 1, got 0$"):
            call()


class TestLocalErrorsAgainstStepLoop:
    """The batched sampler against the per-step loop it replaced."""

    @pytest.mark.parametrize("case", ["jump-free", "linear-scalar",
                                      "quadratic-scalar", "zero-drift",
                                      "zero-rate"])
    @pytest.mark.parametrize("rule", rs.QUADRATURES)
    def test_every_sample_matches_loop(self, case, rule):
        model, traj = _oracle_cases()[case]
        if case in ("linear-scalar", "quadratic-scalar"):
            per_step = np.histogram(traj.jump_times, bins=4, range=(0.0, 1.0))[0]
            assert per_step.min() >= 2  # several jumps inside every coarse step
        for theta in (0.0, 0.3, 1.0):
            cfgs = [rs.SolverConfig(theta=theta, h=h, quadrature=rule)
                    for h in (0.25, 0.1, 0.03125)]
            for cfg, errs in zip(cfgs, rs.local_errors(model, traj, cfgs)):
                assert errs.shape == (round(1.0 / cfg.h), 2)
                for n, (L_abs, K_abs) in enumerate(errs.tolist()):
                    L, K, L_scale, K_scale = reference_local_error(
                        model, traj, cfg, n)
                    dL = abs(L_abs - float(np.linalg.norm(L)))
                    dK = abs(K_abs - float(np.linalg.norm(K)))
                    assert dL <= 1e-12 * float(np.linalg.norm(L_scale)), (cfg, n)
                    assert dK <= 1e-12 * float(np.linalg.norm(K_scale)), (cfg, n)


class TestGenerator:
    def test_identity_observable(self):
        m = rs.builtin_linear_scalar(**SET1)
        val = rs.generator_apply(m, lambda x: x[..., 0],
                                 lambda x: np.ones_like(x), np.array([10.0]))
        assert val == pytest.approx(-1.0, rel=1e-12)

    def test_constant_observable_vanishes(self):
        m = rs.builtin_bacteriophage()
        val = rs.generator_apply(m, lambda x: 3.0 + 0.0 * x[..., 0],
                                 lambda x: np.zeros_like(x),
                                 np.array([20.0, 200.0, 10000.0]))
        assert val == 0.0

    def test_zero_rates_leave_drift_term(self):
        m = zero_rate_model(alpha=1.5)
        val = rs.generator_apply(m, lambda x: x[..., 0] ** 2,
                                 lambda x: 2.0 * x, np.array([3.0]))
        assert val == pytest.approx(2.0 * 3.0 * (-4.5), rel=1e-12)


class TestGaussKronrod:
    def test_kronrod_rule_is_exact_to_degree_22(self):
        assert np.dot(analysis._GK_W, analysis._GK_X ** 22) == \
            pytest.approx(1.0 / 23.0, rel=1e-14)

    def test_gauss_rule_is_exact_to_degree_13(self):
        assert np.dot(analysis._G7_W, analysis._GK_X ** 13) == \
            pytest.approx(1.0 / 14.0, rel=1e-14)

    def test_gauss_nodes_are_legendre_nodes(self):
        x, w = np.polynomial.legendre.leggauss(7)
        gauss = analysis._G7_W > 0.0
        assert np.allclose(analysis._GK_X[gauss], 0.5 * (x + 1.0),
                           rtol=0.0, atol=1e-15)
        assert np.allclose(analysis._G7_W[gauss], 0.5 * w, rtol=0.0, atol=1e-15)
        assert analysis._GK_X.size == 15 and np.all(np.diff(analysis._GK_X) > 0)


class TestPathIntegrals:
    def test_matches_closed_form_state_integral(self):
        m = rs.builtin_linear_scalar(**SET1)
        traj = rs.exact_trajectory(m, rs.PathBundle(5, 0, 1), [10.0], 1.0)
        closed = sum(x[0] * (1 - math.exp(-1.5 * d)) / 1.5
                     for x, d in zip(traj.seg_states, traj.seg_durations))
        val = integrate_along_path(traj, lambda xs: xs[..., 0], tol=1e-10)
        assert val == pytest.approx(closed, abs=1e-10)

    def test_long_jump_free_segment_refined(self):
        m = rs.builtin_linear_scalar(**SET1)
        traj = rs.exact_trajectory(m, [fixed_path([1340.0])], [10.0], 1.0)
        val = integrate_along_path(traj, lambda xs: xs[..., 0], tol=1e-10)
        assert val == pytest.approx(10.0 * (1 - math.exp(-1.5)) / 1.5, abs=1e-10)

    def test_oscillating_integrand_is_refined_until_the_pair_agrees(self):
        # one jump-free segment x(s) = 10 exp(-1.5 s) on [0, 1]; cos(100 s)
        # turns 25 radians per first-level chunk, too fast for either rule
        traj = rs.exact_trajectory(zero_rate_model(alpha=1.5),
                                   rs.PathBundle(0, 0, 1), [10.0], 1.0)
        levels = []

        def g(xs):
            levels.append(xs.shape[0])
            return np.cos(100.0 * np.log(10.0 / xs[..., 0]) / 1.5)

        _, *pair = analysis._gk_chunks(traj.model.analytic.flow, lambda xs: (g(xs),),
                                       traj.seg_states, traj.seg_durations, 1)
        kron, gauss = (float(np.sum(v)) for v in pair)
        assert abs(kron - gauss) >= 1e-10
        assert abs(kron - math.sin(100.0) / 100.0) > 1e-8
        val = integrate_along_path(traj, g, tol=1e-10)
        assert val == pytest.approx(math.sin(100.0) / 100.0, abs=1e-12)
        # each level after the probe above doubles the chunks
        assert len(levels) > 2 and levels[2] == 2 * levels[1]


class TestGaussKronrodLayouts:
    @staticmethod
    def _chunks(x, dur, subdiv=1):
        m = rs.builtin_linear_scalar(**SET1)
        return analysis._gk_chunks(
            m.analytic.flow, lambda xs: (xs[..., 0], np.sin(xs[..., 0])),
            np.array(x, dtype=float).reshape(-1, 1), np.array(dur), subdiv)

    def test_short_segment_same_bits_in_either_layout(self):
        # alone, the short segment takes the one-chunk layout; beside a
        # segment longer than _CHUNK_CAP the batch takes the general one
        seg, kron, gauss = self._chunks([10.0], [0.1])
        assert seg.tolist() == [0] and kron.shape == gauss.shape == (2, 1)
        mixed = self._chunks([3.0, 10.0, 7.0], [0.7, 0.1, 0.0])
        assert mixed[0].tolist() == [0, 0, 0, 1]
        assert np.array_equal(mixed[1][:, 3:], kron)
        assert np.array_equal(mixed[2][:, 3:], gauss)
        # subdiv 2 halves the short segment: the halves add up to its chunk
        halves = self._chunks([10.0], [0.1], subdiv=2)
        assert halves[0].tolist() == [0, 0]
        assert np.allclose(halves[1].sum(axis=1), kron[:, 0], rtol=1e-14, atol=0.0)

    def test_no_positive_duration_gives_no_rows(self):
        seg, kron, gauss = self._chunks([10.0, 5.0], [0.0, 0.0])
        assert seg.size == 0 and kron.shape == gauss.shape == (0, 0)


class TestMartingale:
    def test_zero_rates_pathwise_zero(self):
        m = zero_rate_model(alpha=1.5)
        chk = rs.martingale_check(m, lambda xs: xs[..., 0],
                                  lambda xs: np.ones_like(xs), [10.0], 1.0, 3, 0)
        assert abs(chk.mean) < 1e-8
        assert chk.second_moment_lhs < 1e-16
        assert chk.second_moment_rhs == 0.0

    def test_small_run_consistency(self):
        m = rs.builtin_linear_scalar(**SET1)
        chk = rs.martingale_check(m, lambda xs: xs[..., 0],
                                  lambda xs: np.ones_like(xs), [10.0], 0.5, 400, 17,
                                  threads=2)
        assert abs(chk.mean) < 4.0 * chk.se_mean
        assert abs(chk.second_moment_lhs - chk.second_moment_rhs) < \
            5.0 * chk.combined_se()

    @staticmethod
    def _check(model, M, seed, T=0.5, x0=10.0, **kwargs):
        return rs.martingale_check(model, lambda xs: xs[..., 0],
                                   lambda xs: np.ones_like(xs), [x0], T, M,
                                   seed, **kwargs)

    @pytest.mark.parametrize("model,x0", [
        (rs.builtin_linear_scalar(**SET1), 10.0),
        # rare jumps: long segments take the general chunking path
        (rs.builtin_linear_scalar(alpha=1.5, lam=3.0, eps=0.5), 1.0),
    ], ids=["dense", "sparse"])
    def test_block_size_does_not_change_results(self, monkeypatch, model, x0):
        results = []
        for block in (1, 7, 64):
            monkeypatch.setattr(analysis, "_BLOCK_ROWS", block)
            results.append(self._check(model, 20, 5, x0=x0))
        assert results[0] == results[1] == results[2]

    def test_thread_count_does_not_change_results(self, monkeypatch):
        # at the default block size, 1, 2 and 3 threads partition M = 30
        # into blocks of 30, 15 and 10 rows when 3 CPUs are usable
        monkeypatch.setattr(analysis, "_usable_cpus", lambda: 3)
        m = rs.builtin_linear_scalar(**SET1)
        serial = self._check(m, 30, 2)
        assert serial == self._check(m, 30, 2, threads=2)
        assert serial == self._check(m, 30, 2, threads=3)

    def test_blocks_follow_the_workers_not_the_threads(self, monkeypatch):
        # 3 threads on 2 usable CPUs run 2 workers, so M = 12 makes 2 blocks
        monkeypatch.setattr(analysis, "_usable_cpus", lambda: 2)
        tasks = TestStrongError._task_counts(monkeypatch)
        m = rs.builtin_linear_scalar(**SET1)
        assert self._check(m, 12, 4, threads=3) == self._check(m, 12, 4, threads=2)
        assert tasks == [2, 2]

    def test_matches_per_path_integrals(self):
        m = rs.builtin_linear_scalar(**SET1)
        M, T = 12, 0.5
        chk = self._check(m, M, 9, T=T)
        g_af = lambda xs: analysis._martingale_integrands(
            m, lambda xs: xs[..., 0], np.ones_like, xs)[0]
        g_qv = lambda xs: analysis._martingale_integrands(
            m, lambda xs: xs[..., 0], np.ones_like, xs)[1]
        mf, qv = [], []
        for j in range(M):
            traj = rs.exact_trajectory(m, rs.PathBundle(9, j, 1), [10.0], T)
            mf.append(traj.endpoint[0] - 10.0 - integrate_along_path(traj, g_af))
            qv.append(integrate_along_path(traj, g_qv))
        assert chk.mean == pytest.approx(np.mean(mf), rel=1e-12, abs=1e-14)
        assert chk.second_moment_lhs == pytest.approx(np.mean(np.square(mf)),
                                                      rel=1e-12)
        assert chk.second_moment_rhs == pytest.approx(np.mean(qv), rel=1e-12)

    def test_unsettled_rows_are_refined_per_path(self):
        # tol=0 can never be met: every row and integrand is recomputed by
        # integrate_along_path, which refines to its last level and warns
        m = zero_rate_model(alpha=1.5)
        with pytest.warns(UserWarning, match="refinement stalled"):
            chk = self._check(m, 2, 0, T=1.0, tol=0.0)
        traj = rs.exact_trajectory(m, rs.PathBundle(0, 0, 1), [10.0], 1.0)
        g_af = lambda xs: analysis._martingale_integrands(
            m, lambda xs: xs[..., 0], np.ones_like, xs)[0]
        with pytest.warns(UserWarning):
            mf = traj.endpoint[0] - 10.0 - integrate_along_path(traj, g_af, tol=0.0)
        assert chk.mean == mf and chk.second_moment_rhs == 0.0

    @pytest.mark.parametrize("threads", [1, 2])
    def test_solver_error_names_replication(self, monkeypatch, threads):
        m = rs.builtin_linear_scalar(**SET1)
        bad = rs.RteModel(1, m.drift, m.rates, m.jumps, name="bad-inverse",
                          analytic=rs.AnalyticHooks(
                              flow=m.analytic.flow,
                              hazard_integral=m.analytic.hazard_integral,
                              hazard_inverse=(lambda delta, x: -1.0,)))
        monkeypatch.setattr(analysis, "_BLOCK_ROWS", 2)
        with pytest.raises(ModelEvaluationError) as info:
            self._check(bad, 4, 0, threads=threads)
        e = info.value
        assert e.replication in (0, 2)  # the first row of either block
        assert str(e).startswith(f"replication {e.replication}: hazard_inverse[0]")
        assert np.array_equal(e.x, [10.0])

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("case", ["observable", "rate"])
    def test_non_finite_row_names_its_replication(self, case, threads):
        # at seed 5 replication 0 stays below x = 10.04 and replication 1
        # rises above 10.1, as later ones do
        m = rs.builtin_linear_scalar(**SET1)
        cut = lambda f: lambda xs: np.where(xs[..., 0] > 10.05, np.nan, f(xs))
        F = lambda xs: xs[..., 0]
        if case == "observable":
            F = cut(F)
        else:
            m = rs.RteModel(1, m.drift, (cut(m.rates[0]),), m.jumps,
                            analytic=m.analytic, name="nan-rate")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no row is refined, so none stalls
            with pytest.raises(ModelEvaluationError,
                               match=r"^replication 1: non-finite path sums") as info:
                rs.martingale_check(m, F, np.ones_like, [10.0], 0.2, 8, 5,
                                    threads=threads)
        assert info.value.replication == 1

    @pytest.mark.parametrize("threads", [1, 2])
    def test_non_finite_observable_at_x0_raises_before_any_block(self, monkeypatch,
                                                                threads):
        # F is finite along every path after its first jump, but not at x0
        m = rs.builtin_linear_scalar(**SET1)
        F = lambda xs: np.where(xs[..., 0] == 10.0, np.nan, xs[..., 0])
        with pytest.raises(ModelEvaluationError) as generator:
            rs.generator_apply(m, F, np.ones_like, [10.0])
        tasks = TestStrongError._task_counts(monkeypatch)
        with pytest.raises(ModelEvaluationError,
                           match=r"^F\(x0\) = nan is not finite$") as info:
            rs.martingale_check(m, F, np.ones_like, [10.0], 0.2, 8, 5, threads=threads)
        assert tasks == []
        assert np.array_equal(info.value.x, generator.value.x)
        assert info.value.replication is None

    def test_requires_at_least_two_paths(self):
        m = rs.builtin_linear_scalar(**SET1)
        with pytest.raises(ConfigurationError):
            rs.martingale_check(m, lambda xs: xs[..., 0],
                                lambda xs: np.ones_like(xs), [10.0], 1.0, 1, 0)


class TestNoGcCalls:
    """Only the CLI entry freezes the collector; an API caller owns its process."""

    @pytest.mark.parametrize("driver", ["strong_error", "local_error_study",
                                        "martingale_check"])
    def test_drivers_leave_the_freeze_count_alone(self, driver):
        m = rs.builtin_linear_scalar(**SET1)
        cfgs = [rs.SolverConfig(theta=0.0, h=0.25), rs.SolverConfig(theta=1.0, h=0.5)]
        calls = {
            "strong_error": lambda: rs.strong_error(
                m, "exact", cfgs, [10.0], 1.0, 4, 0, threads=2),
            "local_error_study": lambda: analysis.local_error_study(
                m, cfgs, [10.0], 1.0, 4, 0, threads=2),
            "martingale_check": lambda: rs.martingale_check(
                m, lambda xs: xs[..., 0], np.ones_like, [10.0], 1.0, 4, 0,
                threads=2),
        }
        before = gc.get_freeze_count()
        calls[driver]()
        assert gc.get_freeze_count() == before


class TestInitialState:
    """Every solver and Monte Carlo routine checks x0 by one rule, before any work."""

    BAD = [("inf", [math.inf]), ("nan", [math.nan]), ("shape", [1.0, 2.0])]

    @pytest.mark.parametrize("case,x0", BAD, ids=[c for c, _ in BAD])
    def test_bad_initial_state_is_a_configuration_error(self, case, x0):
        m = rs.builtin_linear_scalar(**SET1)
        cfg = rs.SolverConfig(theta=0.5, h=0.25)
        F, gradF = (lambda xs: xs[..., 0]), np.ones_like
        calls = {
            "solve_trajectory": lambda: rs.solve_trajectory(
                m, cfg, rs.PathBundle(0, 0, 1), x0, 1.0),
            "exact_trajectory": lambda: rs.exact_trajectory(
                m, rs.PathBundle(0, 0, 1), x0, 1.0),
            "exact_block": lambda: rs.exact_block(
                m, 0, range(2), x0, 1.0),
            "martingale_check": lambda: rs.martingale_check(
                m, F, gradF, x0, 1.0, 2, 0),
            "strong_error": lambda: rs.strong_error(m, "exact", [cfg], x0, 1.0, 2, 0),
            "local_error_study": lambda: analysis.local_error_study(
                m, [cfg], x0, 1.0, 2, 0),
        }
        want = "must be finite" if case != "shape" else "does not match model dimension"
        for name, call in calls.items():
            start = time.perf_counter()
            with pytest.raises(ConfigurationError, match=want):
                call()
            assert time.perf_counter() - start < 1.0, name
