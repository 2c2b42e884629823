"""The coupling contract as a property: a row's bits are a pure function of
its replication and its config, whichever rows share its block.

Every stream is keyed by (seed, replication, process), so a row of a block,
beside any rows and reading a stream that other rows read too, must equal
the same replication solved alone.  Replication lists are drawn with
repeats, so blocks that bank every stream and blocks that bank none are
both drawn.  conftest's Hypothesis profile derandomizes the examples, so a
tier-1 run is deterministic.
"""

import dataclasses
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rtesim as rs
from conftest import record_lockstep
from rtesim import analysis
from rtesim import exact as exact_module
from rtesim.errors import ModelEvaluationError
from rtesim.exact import PathRecord, exact_block, exact_rows, exact_trajectory
from rtesim.poisson import EpochWindows, PathBundle

SEED = 13
T = 0.5
# both decay models cross several epoch batches over [0, T]
MODELS = {
    "linear-scalar": (rs.builtin_linear_scalar(alpha=1.5, lam=200.0, eps=0.007),
                      [10.0]),
    "quadratic-scalar": (rs.builtin_quadratic_scalar(alpha=1.0, beta=2.0, eps=0.01),
                         [20.0]),
}
# each model's exact paths cross an epoch batch within this horizon
EXACT_T = {"linear-scalar": 0.1, "quadratic-scalar": 0.2}
PROPERTY = settings(max_examples=50)
# few replications, so that repeats are common: all distinct, all repeated
# and mixed lists are each drawn
REPLICATIONS = st.lists(st.integers(0, 3), min_size=1, max_size=4)
# a chain's finest h, then each config's theta and rule and the multiple of
# its h that the next config steps by; h stays at most 1/4, where
# h*theta*L_f < 1/2
CHAINS = st.tuples(
    st.sampled_from([1 / 32, 1 / 16]),
    st.lists(st.tuples(st.sampled_from([0.0, 0.5, 1.0]),
                       st.sampled_from(rs.QUADRATURES), st.sampled_from([1, 2])),
             min_size=1, max_size=3))


def _configs(chain):
    h, links = chain
    configs = []
    for theta, rule, ratio in links:
        configs.append(rs.SolverConfig(theta=theta, h=h, quadrature=rule))
        h *= ratio
    return configs


@PROPERTY
@given(name=st.sampled_from(sorted(MODELS)), reps=REPLICATIONS, chain=CHAINS)
@example(name="linear-scalar", reps=[0, 1, 2], chain=(1 / 16, [(0.0, "euler", 1)]))
@example(name="linear-scalar", reps=[2, 2, 2],
         chain=(1 / 32, [(1.0, "euler", 2), (0.5, "trapezoidal", 1)]))
@example(name="quadratic-scalar", reps=[1, 0, 1, 3],
         chain=(1 / 32, [(0.0, "improved-midpoint", 2), (1.0, "midpoint", 2),
                         (0.5, "improved-trapezoidal", 1)]))
def test_lockstep_rows_equal_their_config_alone(name, reps, chain):
    model, x0 = MODELS[name]
    p = model.jump_count
    configs = _configs(chain)
    grid, states, clocks, group = record_lockstep(
        model, configs, EpochWindows(SEED, reps * len(configs), p), x0, T)
    passes = np.arange(len(grid))
    lone = {}
    for c, cfg in enumerate(configs):
        m = round(cfg.h / configs[0].h)
        for r, j in enumerate(reps):
            key = (cfg, j)
            if key not in lone:
                lone[key] = record_lockstep(model, [cfg], EpochWindows(SEED, [j], p),
                                            x0, T)
            (_, alone_states, alone_clocks, alone), row = lone[key], c * len(reps) + r
            # between its own steps a row holds its state and clocks
            assert np.array_equal(states[:, row], alone_states[passes // m, 0])
            assert np.array_equal(clocks[:, row], alone_clocks[passes // m, 0])
            assert np.array_equal(group.jump_counts[row], alone.jump_counts[0])


@PROPERTY
@given(reps=REPLICATIONS, p=st.integers(1, 2), seed=st.integers(0, 2**32 - 1))
@example(reps=[0, 1, 2], p=1, seed=0)
@example(reps=[2, 2, 2], p=2, seed=1)
@example(reps=[1, 0, 1, 3], p=1, seed=2)
def test_window_rows_equal_lone_windows(reps, p, seed):
    # rows move at different speeds and only a prefix of them is counted,
    # as in a multi-rate pass; halfway, exact_block's keep drops some rows
    rng = np.random.default_rng(seed)
    w = EpochWindows(SEED, reps, p)
    alone = [EpochWindows(SEED, [j], p) for j in reps]
    clocks = np.zeros((len(reps), p))
    speed = rng.uniform(5.0, 60.0, (len(reps), 1))
    for n in range(24):
        if n == 12:
            mask = rng.random(len(reps)) < 0.6
            mask[rng.integers(len(reps))] = True
            w.keep(mask)
            alone = [one for one, k in zip(alone, mask) if k]
            clocks, speed = clocks[mask], speed[mask]
        b = int(rng.integers(1, len(clocks) + 1))
        clocks[:b] += rng.exponential(speed[:b], (b, p))
        counts = w.count(clocks[:b])
        nxt = w.next_after(clocks)
        for i, one in enumerate(alone):
            if i < b:
                assert np.array_equal(one.count(clocks[i:i + 1])[0], counts[i])
            assert np.array_equal(one.next_after(clocks[i:i + 1])[0], nxt[i])
            assert np.array_equal(one.win[0], w.win[i])
            assert np.array_equal(one.drawn[0], w.drawn[i])


@PROPERTY
@given(name=st.sampled_from(sorted(MODELS)), seed=st.integers(0, 2**32 - 1),
       reps=st.lists(st.integers(0, 5), min_size=1, max_size=5))
@example(name="linear-scalar", seed=SEED, reps=[0, 0, 1])
@example(name="quadratic-scalar", seed=SEED, reps=[3, 1, 3, 3, 2])
@example(name="linear-scalar", seed=SEED, reps=[4, 4])
def test_exact_block_rows_equal_exact_trajectory(name, seed, reps):
    # rows stop at different passes, so keep drops rows from a block whose
    # repeated replications share banked streams
    model, x0 = MODELS[name]
    T = EXACT_T[name]
    segments = [[] for _ in reps]

    def record(rows, x, dur, t, fired):
        for i, xi, di in zip(rows.tolist(), x, dur):
            segments[i].append((xi.copy(), di))

    ends = exact_block(model, seed, reps, x0, T, record)
    trajs = [exact_trajectory(model, PathBundle(seed, j, model.jump_count), x0, T)
             for j in reps]
    for i, traj in enumerate(trajs):
        assert np.array_equal([x for x, _ in segments[i]], traj.seg_states)
        assert np.array_equal([dur for _, dur in segments[i]], traj.seg_durations)
        assert np.array_equal(ends.endpoints[i], traj.endpoint)
        assert np.array_equal(ends.clocks[i], traj.clocks)
        assert ends.jump_counts[i] == traj.jump_count
    # a PathRecord rebuilds every row's path, on either engine of exact_rows
    for min_rows in (1, 10**6):
        record = PathRecord()
        with mock.patch.object(exact_module, "MIN_BLOCK_ROWS", min_rows):
            solved = exact_rows(model, seed, reps, x0, T, record)
        assert all(np.array_equal(a, b) for a, b in zip(solved, ends))
        for path, traj in zip(record.paths(model, T, solved), trajs, strict=True):
            for field in ("seg_starts", "seg_states", "seg_durations", "jump_ids",
                          "jump_times", "states_post_jump", "clocks", "x0"):
                got, want = getattr(path, field), getattr(traj, field)
                assert got.dtype == want.dtype and np.array_equal(got, want), field
            assert (path.model, path.T) == (traj.model, traj.T)


def _assert_block_size_free(name, chain, M, exact, threads):
    """strong_error's report is the same at _BLOCK_ROWS 1, 7, 128 and 1024,
    with an exact reference solved by exact_block (exact.MIN_BLOCK_ROWS 1)
    or row by row (exact.MIN_BLOCK_ROWS 10**6)."""
    model, x0 = MODELS[name]
    reference = "exact" if exact else rs.SolverConfig(theta=0.0, h=1 / 64)
    reports = []
    for rows, min_rows in itertools.product((1, 7, 128, 1024),
                                            (1, 10**6) if exact else (16,)):
        with mock.patch.object(analysis, "_BLOCK_ROWS", rows), \
                mock.patch.object(exact_module, "MIN_BLOCK_ROWS", min_rows):
            reports.append(rs.strong_error(model, reference, _configs(chain), x0, T,
                                           M, SEED, threads=threads))
    for report in reports[1:]:
        assert report.rows == reports[0].rows
        assert np.array_equal(report.signed_errors, reports[0].signed_errors)


# a block of 7 rows groups 7 // M configs, so at M = 4 or 3 a chain of 3 is
# cut into runs of 1 or 2; blocks of 1 row solve every config alone
@settings(max_examples=30)
@given(name=st.sampled_from(sorted(MODELS)), chain=CHAINS, M=st.integers(1, 4),
       exact=st.booleans())
@example(name="linear-scalar", M=2, exact=True,
         chain=(1 / 32, [(1.0, "euler", 2), (0.5, "trapezoidal", 2), (0.0, "euler", 1)]))
@example(name="quadratic-scalar", M=3, exact=False,
         chain=(1 / 16, [(0.5, "improved-midpoint", 2), (1.0, "midpoint", 1),
                         (0.0, "improved-trapezoidal", 2)]))
def test_strong_error_does_not_depend_on_block_size(name, chain, M, exact):
    _assert_block_size_free(name, chain, M, exact, threads=1)


def test_strong_error_does_not_depend_on_block_size_at_two_threads():
    _assert_block_size_free("linear-scalar", (1 / 32, [(0.5, "trapezoidal", 2),
                                                       (1.0, "euler", 2),
                                                       (0.0, "midpoint", 1)]),
                            3, False, threads=2)


def _fragile_model():
    """linear-scalar whose broadcasting inverse fails at epoch gaps below
    1e-3: over [0, 0.5] at seed 0 that fails replications 2, 3, 5, 6 and 7,
    and a block solve of range(8) meets replication 7's first."""
    model = MODELS["linear-scalar"][0]
    inverse = model.analytic.hazard_inverse[0]
    hooks = dataclasses.replace(model.analytic, hazard_inverse=(
        lambda delta, x: np.where(delta < 1e-3, np.nan, inverse(delta, x)),))
    return rs.RteModel(1, model.drift, model.rates, model.jumps, analytic=hooks,
                       name="fragile")


@pytest.mark.parametrize("threads", [1, 2])
def test_batched_reference_fails_as_row_by_row(threads):
    # the batched reference must solve its rows again one by one to name
    # replication 2
    fragile = _fragile_model()
    with pytest.raises(ModelEvaluationError, match=r"^replication 7: "):
        exact_block(fragile, 0, range(8), [10.0], 0.5)
    errors = []
    for min_rows in (1, 10**6):
        with mock.patch.object(exact_module, "MIN_BLOCK_ROWS", min_rows), \
                pytest.raises(ModelEvaluationError) as info:
            rs.strong_error(fragile, "exact", [rs.SolverConfig(theta=0.0, h=0.25)],
                            [10.0], 0.5, 8, 0, threads=threads)
        e = info.value
        errors.append((type(e), str(e), e.replication, e.row, e.config))
    assert errors[0] == errors[1]
    assert errors[0][2:] == (2, 2, "reference")
    assert errors[0][1].startswith("replication 2, reference: hazard_inverse[0]")


LOCAL_CONFIGS = [rs.SolverConfig(theta=0.0, h=1 / 8),
                 rs.SolverConfig(theta=1.0, h=1 / 4),
                 rs.SolverConfig(theta=0.5, h=1 / 8, quadrature="trapezoidal")]


@pytest.mark.parametrize("name", sorted(MODELS))
def test_local_error_study_does_not_depend_on_blocks_or_engine(name):
    # row caps 1, 7 and 64 give blocks of 1 to 6 rows; threads 3 runs on at
    # most the usable CPUs
    model, x0 = MODELS[name]
    runs = []
    for cap, min_rows, threads in itertools.product((1, 7, 64), (1, 10**6),
                                                    (1, 2, 3)):
        with mock.patch.object(analysis, "_LOCAL_BLOCK_ROWS", cap), \
                mock.patch.object(exact_module, "MIN_BLOCK_ROWS", min_rows):
            runs.append(analysis.local_error_study(model, LOCAL_CONFIGS, x0, T, 6,
                                                   SEED, threads=threads))
    for run in runs[1:]:
        assert len(run) == len(runs[0])
        for per_rep, first in zip(run, runs[0], strict=True):
            assert len(per_rep) == len(first) == 6
            assert all(np.array_equal(a, b) for a, b in zip(per_rep, first))


@pytest.mark.parametrize("threads", [1, 2])
def test_batched_local_error_study_fails_as_row_by_row(threads):
    fragile = _fragile_model()
    errors = []
    for min_rows in (1, 10**6):
        with mock.patch.object(exact_module, "MIN_BLOCK_ROWS", min_rows), \
                pytest.raises(ModelEvaluationError) as info:
            analysis.local_error_study(fragile, LOCAL_CONFIGS[:1], [10.0], 0.5, 8, 0,
                                       threads=threads)
        e = info.value
        errors.append((type(e), str(e), e.replication, e.row, e.config))
    assert errors[0] == errors[1]
    assert errors[0][2] == 2 and errors[0][4] is None
    assert errors[0][1].startswith("replication 2: hazard_inverse[0]")
