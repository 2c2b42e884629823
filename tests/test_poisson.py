import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import fixed_path
from rtesim import poisson
from rtesim.errors import QueryError
from rtesim.poisson import (BATCH, EpochWindows, PathBundle, PoissonPath,
                            epoch_generator, next_epochs)


class TestCounting:
    def test_count_inclusive_at_epoch(self):
        p = fixed_path([0.4, 1.1, 2.5])
        assert p.count_at(1.1) == 2

    def test_count_at_zero_is_zero(self):
        assert PoissonPath(3, 0, 0).count_at(0.0) == 0

    def test_count_below_first_epoch(self):
        p = fixed_path([0.4, 1.1, 2.5])
        assert p.count_at(0.39) == 0

    def test_increment_empty_interval(self):
        p = fixed_path([0.4, 1.1, 2.5])
        assert p.increment(0.7, 0.7) == 0

    def test_increment_half_open(self):
        p = fixed_path([0.4, 1.1, 2.5])
        assert p.increment(0.5, 2.5) == 2

    def test_next_epoch_strictly_after(self):
        p = fixed_path([0.4, 1.1, 2.5])
        assert p.next_epoch_after(0.4) == 1.1
        assert p.next_epoch_after(0.0) == 0.4
        assert p.next_epoch_after(1.5) == 2.5

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_count_rejects_bad_arguments(self, bad):
        with pytest.raises(QueryError):
            PoissonPath(0, 0, 0).count_at(bad)

    def test_increment_rejects_reversed_interval(self):
        with pytest.raises(QueryError):
            PoissonPath(0, 0, 0).increment(2.0, 1.0)


class TestStreamInvariants:
    def test_epochs_strictly_increasing_and_positive(self):
        p = PoissonPath(11, 4, 2)
        p.count_at(500.0)
        e = np.array(p.epochs)
        assert e[0] > 0.0
        assert (np.diff(e) > 0.0).all()

    def test_same_key_same_answers_any_query_order(self):
        a = PoissonPath(42, 7, 1)
        b = PoissonPath(42, 7, 1)
        qa = [a.count_at(u) for u in (10.0, 3.0, 200.0, 0.5)]
        qb = [b.count_at(u) for u in (200.0, 0.5, 10.0, 3.0)]
        assert qa == [qb[2], qb[3], qb[0], qb[1]]
        assert a.epochs[:100] == b.epochs[:100]

    def test_distinct_streams_differ(self):
        a = PoissonPath(42, 0, 0)
        b = PoissonPath(42, 0, 1)
        c = PoissonPath(42, 1, 0)
        a.count_at(50.0), b.count_at(50.0), c.count_at(50.0)
        assert a.epochs[:10] != b.epochs[:10]
        assert a.epochs[:10] != c.epochs[:10]

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=300.0), min_size=1, max_size=12))
    def test_interleaving_never_changes_counts(self, queries):
        a = PoissonPath(9, 2, 0)
        b = PoissonPath(9, 2, 0)
        b.count_at(300.0)  # fully pre-extended
        assert [a.count_at(u) for u in queries] == [b.count_at(u) for u in queries]

    def test_count_monotone_and_additive(self):
        p = PoissonPath(5, 0, 0)
        us = np.linspace(0.0, 40.0, 81)
        counts = [p.count_at(u) for u in us]
        assert (np.diff(counts) >= 0).all()
        for a, b in [(0.0, 7.5), (3.0, 29.0)]:
            assert p.increment(a, b) == p.count_at(b) - p.count_at(a)


class TestStatistics:
    def test_gaps_pass_ks_against_unit_exponential(self):
        gaps = []
        for rep in range(100):
            p = PoissonPath(2024, rep, 0)
            p.count_at(990.0)
            e = np.array(p.epochs[:1000])
            gaps.append(np.diff(np.concatenate([[0.0], e])))
        gaps = np.concatenate(gaps)
        assert gaps.size >= 100_000
        assert stats.kstest(gaps, "expon").pvalue > 0.001

    def test_increment_mean_matches_interval_length(self):
        # fresh stream per sample: mean of Y(3) over 1e5 streams
        n = 100_000
        total = sum(PoissonPath(99, rep, 0).increment(0.0, 3.0)
                    for rep in range(n))
        assert abs(total / n - 3.0) < 3.0 * np.sqrt(3.0 / n)

    def test_disjoint_equal_intervals_same_moments(self):
        n = 20_000
        first, second = np.empty(n), np.empty(n)
        for rep in range(n):
            p = PoissonPath(7, rep, 0)
            first[rep] = p.increment(0.0, 2.0)
            second[rep] = p.increment(2.0, 4.0)
        bound = 4.0 * np.sqrt(2.0 / n)
        assert abs(first.mean() - 2.0) < bound
        assert abs(second.mean() - 2.0) < bound
        assert abs(first.var(ddof=1) - 2.0) < 6.0 * np.sqrt(2.0 / n)
        assert abs(second.var(ddof=1) - 2.0) < 6.0 * np.sqrt(2.0 / n)


class TestBatchedDraws:
    def test_rows_equal_single_stream_draws(self):
        # the per-stream recipe: BATCH inverse-CDF gaps, floored, summed
        keys = [(4, j, k) for j in range(5) for k in range(2)]
        batched = [epoch_generator(*key) for key in keys]
        single = [epoch_generator(*key) for key in keys]
        last = np.linspace(0.0, 30.0, len(keys))
        for _ in range(3):
            rows = next_epochs(batched, last)
            assert rows.shape == (len(keys), BATCH)
            for row, gen, start in zip(rows, single, last):
                gaps = np.maximum(gen.standard_exponential(BATCH, method="inv"),
                                  np.finfo(float).tiny)
                assert np.array_equal(row, start + np.cumsum(gaps))
            last = rows[:, -1]


class TestBundle:
    def test_bundle_layout(self):
        b = PathBundle(1, 3, 4)
        assert len(b.paths) == 4
        for k, path in enumerate(b.paths):  # path k reads stream (1, 3, k)
            path.next_epoch_after(0.0)
            assert np.array_equal(path.epochs, next_epochs(
                [epoch_generator(1, 3, k)], np.zeros(1))[0])


class TestEpochWindows:
    def test_queries_match_poisson_path(self):
        # clocks that stay put, land exactly on epochs and skip whole batches
        rng = np.random.default_rng(5)
        reps = [0, 3, 9]
        w = EpochWindows(11, reps, 2)
        paths = [[PoissonPath(11, j, k) for k in range(2)] for j in reps]
        clocks = np.zeros((3, 2))
        for n in range(60):
            if n % 3 == 2:
                land = rng.random((3, 2)) < 0.5
                clocks = np.where(land, w.next_after(clocks), clocks)
            else:
                gaps = rng.exponential(1.0, (3, 2))
                clocks = clocks + gaps * rng.choice([0.0, 1.0, 300.0], (3, 2))
            counts, nxt = w.count(clocks), w.next_after(clocks)
            for i in range(3):
                for k in range(2):
                    assert counts[i, k] == paths[i][k].count_at(clocks[i, k])
                    assert nxt[i, k] == paths[i][k].next_epoch_after(clocks[i, k])
        assert counts.min() > 128  # every stream left its first batch

    def test_lockstep_refill_matches_poisson_path(self, monkeypatch):
        # every stream sits on the last epoch of its window, so all of them
        # leave it in one next_after call and refill in one batched draw
        calls = []
        draw = poisson.next_epochs
        monkeypatch.setattr(poisson, "next_epochs",
                            lambda gens, last: calls.append(len(gens)) or draw(gens, last))
        reps = [1, 5, 8, 2]
        w = EpochWindows(13, reps, 3)
        clocks = w.win[..., -1].copy()
        nxt = w.next_after(clocks)
        assert calls == [12, 12]
        assert (w.drawn == BATCH).all() and (w.cur == 0).all()
        counts = w.count(clocks)
        for i, j in enumerate(reps):
            for k in range(3):
                path = PoissonPath(13, j, k)
                assert nxt[i, k] == path.next_epoch_after(clocks[i, k])
                assert counts[i, k] == path.count_at(clocks[i, k]) == BATCH

    def test_row_does_not_depend_on_its_block(self):
        w = EpochWindows(2, [4, 7], 3)
        one = EpochWindows(2, [7], 3)
        clocks = np.array([[50.0, 0.5, 200.0]])
        assert np.array_equal(one.count(clocks), w.count(np.repeat(clocks, 2, 0))[1:])

    def test_count_of_a_prefix_leaves_the_later_rows(self):
        # a multi-rate block reads only the rows that step; the rest keep
        # their cursors until their clocks move again
        w = EpochWindows(2, [4, 7, 9], 1)
        clocks = np.array([[300.0], [20.0], [150.0]])
        assert np.array_equal(w.count(clocks[:2]),
                              EpochWindows(2, [4, 7], 1).count(clocks[:2]))
        assert w.cur[2, 0] == 0 and w.drawn[2, 0] == 0
        fresh = EpochWindows(2, [4, 7, 9], 1)
        assert np.array_equal(w.count(clocks), fresh.count(clocks))

    def test_rows_sharing_a_stream_match_rows_alone(self, monkeypatch):
        # rows 0, 2 and 4 read replication 4, rows 1 and 3 replication 7 and
        # row 5 replication 9; rows 4 and 5 wait while the others run 8 or more
        # batches ahead, then catch up in one count
        sizes = []
        draw = poisson.next_epochs
        monkeypatch.setattr(poisson, "next_epochs",
                            lambda gens, last: sizes.append(len(gens)) or draw(gens, last))
        reps = [4, 7, 4, 7, 4, 9]
        w = EpochWindows(3, reps, 2)
        rng = np.random.default_rng(8)
        clocks = np.zeros((6, 2))
        seen = []
        for n in range(40):
            b = 4 if n < 30 else 6
            if n == 30:
                assert (w.drawn[:4] >= 8 * BATCH).all() and (w.drawn[4:] == 0).all()
                clocks[4:] = clocks[:2]
            clocks[:b] += rng.exponential(60.0, (b, 2))
            seen.append((b, clocks.copy(), w.count(clocks[:b]), w.next_after(clocks),
                         w.win.copy(), w.drawn.copy()))
        monkeypatch.undo()
        # each stream drew each of its batches once, however many rows read it
        batches = {}
        for j, d in zip(reps, w.drawn):
            batches[j] = np.maximum(batches.get(j, 0), d // BATCH + 1)
        assert sum(sizes) == sum(v.sum() for v in batches.values())
        alone = [EpochWindows(3, [j], 2) for j in reps]
        for b, at, counts, nxt, win, drawn in seen:
            for i, one in enumerate(alone):
                if i < b:
                    assert np.array_equal(one.count(at[i:i + 1])[0], counts[i])
                assert np.array_equal(one.next_after(at[i:i + 1])[0], nxt[i])
                assert np.array_equal(one.win[0], win[i])
                assert np.array_equal(one.drawn[0], drawn[i])

    def test_bank_holds_only_batches_a_row_has_not_left(self):
        w = EpochWindows(5, [2, 2, 2], 1)
        clocks = np.zeros((3, 1))
        for n in range(100):
            clocks += [[30.0], [31.0], [29.0]]
            w.count(clocks)
        assert w.drawn.min() >= 20 * BATCH
        assert len(w.bank) == 1 and w.bank.shape[1] <= 4  # of 24 drawn

    def test_keep_leaves_shared_rows_as_rows_alone(self):
        reps = [4, 7, 4, 7, 9]
        w = EpochWindows(3, reps, 1)
        alone = [EpochWindows(3, [j], 1) for j in reps]
        clocks = np.zeros((5, 1))
        mask = np.array([False, True, True, True, False])
        for n in range(30):
            if n == 10:
                w.keep(mask)
                alone = [one for one, k in zip(alone, mask) if k]
                clocks = clocks[mask]
            clocks += np.arange(1.0, len(clocks) + 1)[:, None] * 40.0
            counts = w.count(clocks)
            for i, one in enumerate(alone):
                assert np.array_equal(one.count(clocks[i:i + 1])[0], counts[i])
                assert np.array_equal(one.win[0], w.win[i])

    def test_keep_drops_rows_of_the_replication_array(self):
        w = EpochWindows(2, range(5), 1)
        w.keep(np.array([True, False, True, False, True]))
        assert w.replications.dtype == np.int64 and w.replications.tolist() == [0, 2, 4]
        one = EpochWindows(2, w.replications[1:2], 1)
        assert np.array_equal(one.win, EpochWindows(2, [2], 1).win)
        with pytest.raises(TypeError):  # a key is never truncated to an int
            EpochWindows(2, [1.5], 1)
        with pytest.raises(TypeError):  # nor merged with an int it equals
            EpochWindows(2, [1, 1.0], 1)
