import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import fixed_path
from rtesim.errors import QueryError
from rtesim.poisson import PathBundle, PoissonPath


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
            p = PoissonPath(2024, rep, 0, batch=1024)
            p.count_at(990.0)
            e = np.array(p.epochs[:1000])
            gaps.append(np.diff(np.concatenate([[0.0], e])))
        gaps = np.concatenate(gaps)
        assert gaps.size >= 100_000
        assert stats.kstest(gaps, "expon").pvalue > 0.001

    def test_increment_mean_matches_interval_length(self):
        # fresh stream per sample: mean of Y(3) over 1e5 streams
        n = 100_000
        total = sum(PoissonPath(99, rep, 0, batch=16).increment(0.0, 3.0)
                    for rep in range(n))
        assert abs(total / n - 3.0) < 3.0 * np.sqrt(3.0 / n)

    def test_disjoint_equal_intervals_same_moments(self):
        n = 20_000
        first, second = np.empty(n), np.empty(n)
        for rep in range(n):
            p = PoissonPath(7, rep, 0, batch=16)
            first[rep] = p.increment(0.0, 2.0)
            second[rep] = p.increment(2.0, 4.0)
        bound = 4.0 * np.sqrt(2.0 / n)
        assert abs(first.mean() - 2.0) < bound
        assert abs(second.mean() - 2.0) < bound
        assert abs(first.var(ddof=1) - 2.0) < 6.0 * np.sqrt(2.0 / n)
        assert abs(second.var(ddof=1) - 2.0) < 6.0 * np.sqrt(2.0 / n)


class TestBundle:
    def test_bundle_layout(self):
        b = PathBundle(1, 3, 4)
        assert len(b) == 4
        assert [p.stream_id for p in b] == [(3, k) for k in range(4)]
