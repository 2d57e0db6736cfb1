import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acpp.core import (
    Instance,
    InstanceGrouping,
    InstanceResult,
    RunRecord,
    RunStatus,
    clamp_run,
    par_score,
    penalized_score,
    portfolio_runtime,
    split_random_even,
    subset_bounds,
)


def result(status, runtime, cutoff=60.0):
    return InstanceResult("i", status, runtime, cutoff)


class TestParScore:
    def test_single_solved(self):
        assert par_score([result(RunStatus.SOLVED, 30.0)], 60.0, 10) == 30.0

    def test_single_timeout_counts_ten_cutoffs(self):
        assert par_score([result(RunStatus.TIMEOUT, 60.0)], 60.0, 10) == 600.0

    def test_mixed(self):
        records = [result(RunStatus.SOLVED, 30.0), result(RunStatus.TIMEOUT, 60.0)]
        assert par_score(records, 60.0, 10) == 315.0

    def test_par1_is_penalty_one(self):
        records = [result(RunStatus.SOLVED, 30.0), result(RunStatus.TIMEOUT, 60.0)]
        assert par_score(records, 60.0, 1) == 45.0

    def test_crashed_scored_as_timeout(self):
        assert par_score([result(RunStatus.CRASHED, 5.0)], 60.0, 10) == 600.0

    def test_empty_errors(self):
        with pytest.raises(ValueError, match="no instances"):
            par_score([], 60.0, 10)

    def test_cutoff_mismatch_errors(self):
        with pytest.raises(ValueError, match="cutoff"):
            par_score([result(RunStatus.SOLVED, 3.0, cutoff=30.0)], 60.0, 10)

    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(min_value=0, max_value=60 * 1024)),
            min_size=1,
            max_size=200,
        )
    )
    def test_par10_par1_identity(self, raw):
        # dyadic runtimes keep the float sums exact; the identity then holds
        # to within a couple of ulps of the final divisions
        cutoff = 60.0
        records = [
            result(RunStatus.SOLVED if solved else RunStatus.TIMEOUT,
                   q / 1024.0 if solved else cutoff)
            for solved, q in raw
        ]
        timeouts = sum(1 for r in records if r.status is not RunStatus.SOLVED)
        par10 = par_score(records, cutoff, 10)
        par1 = par_score(records, cutoff, 1)
        lhs = Fraction(par10)
        rhs = Fraction(par1) + Fraction(9) * Fraction(cutoff) * Fraction(timeouts, len(records))
        assert abs(lhs - rhs) <= Fraction(abs(par10) or 1.0) * Fraction(1, 2**50)


class TestClampRun:
    @pytest.mark.parametrize(
        "status,runtime,expected",
        [
            (RunStatus.SOLVED, 12.0, (RunStatus.SOLVED, 12.0)),
            (RunStatus.SOLVED, 20.0, (RunStatus.SOLVED, 20.0)),
            (RunStatus.SOLVED, 21.0, (RunStatus.TIMEOUT, 20.0)),
            (RunStatus.TIMEOUT, 3.0, (RunStatus.TIMEOUT, 20.0)),
            (RunStatus.TIMEOUT, 25.0, (RunStatus.TIMEOUT, 20.0)),
            (RunStatus.CRASHED, 3.0, (RunStatus.CRASHED, 3.0)),
            (RunStatus.CRASHED, 25.0, (RunStatus.CRASHED, 20.0)),
        ],
    )
    def test_rule(self, status, runtime, expected):
        assert clamp_run(status, runtime, 20.0) == expected


class TestPortfolioRuntime:
    def test_first_solver_wins(self):
        outcome = portfolio_runtime(
            [(RunStatus.SOLVED, 5.0), (RunStatus.SOLVED, 12.0), (RunStatus.TIMEOUT, 20.0)],
            20.0,
        )
        assert outcome.status is RunStatus.SOLVED
        assert outcome.runtime == 5.0
        assert outcome.winner == 0

    def test_all_timeout(self):
        outcome = portfolio_runtime([(RunStatus.TIMEOUT, 20.0)] * 2, 20.0)
        assert outcome.status is RunStatus.TIMEOUT
        assert outcome.runtime == 20.0
        assert outcome.winner is None

    def test_single_component(self):
        outcome = portfolio_runtime([(RunStatus.SOLVED, 7.0)], 20.0)
        assert outcome.status is RunStatus.SOLVED
        assert outcome.runtime == 7.0

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            portfolio_runtime([], 20.0)

    @given(
        st.lists(
            st.tuples(st.booleans(), st.floats(min_value=0.0, max_value=20.0)),
            min_size=1,
            max_size=8,
        )
    )
    def test_dominance(self, raw):
        outcomes = [
            (RunStatus.SOLVED if s else RunStatus.TIMEOUT, t if s else 20.0)
            for s, t in raw
        ]
        combined = portfolio_runtime(outcomes, 20.0)
        for status, runtime in outcomes:
            score = penalized_score(status, runtime, 20.0, 10)
            assert penalized_score(combined.status, combined.runtime, 20.0, 10) <= score


class TestSubsetBounds:
    @pytest.mark.parametrize(
        "total,k,expected",
        [(1000, 8, (100, 150)), (300, 8, (30, 45)), (8, 8, (1, 2))],
    )
    def test_examples(self, total, k, expected):
        assert subset_bounds(total, k) == expected

    def test_no_float_rounding_artifacts(self):
        # 0.8 * 300 / 8 is exactly 30; a float ceil would give 31
        assert subset_bounds(300, 8)[0] == 30

    @given(st.integers(min_value=1, max_value=16), st.integers(min_value=5, max_value=100))
    def test_balanced_split_fits_bounds_when_enough_instances(self, k, mult):
        # with at least 5 instances per subset the bounds always admit a
        # balanced split (below that ceil(0.8 n/k) can exceed floor(n/k))
        total = k * mult
        lower, upper = subset_bounds(total, k)
        assert lower <= total // k
        assert upper >= -(-total // k)

    def test_invalid(self):
        with pytest.raises(ValueError):
            subset_bounds(4, 8)
        with pytest.raises(ValueError):
            subset_bounds(10, 0)


class TestSplitRandomEven:
    def _instances(self, n):
        return [Instance(f"i{j:04d}") for j in range(n)]

    def test_exact_division(self):
        grouping = split_random_even(self._instances(1000), 8, seed=5)
        assert grouping.sizes() == (125,) * 8

    def test_remainder_goes_to_lowest_subsets(self):
        grouping = split_random_even(self._instances(10), 3, seed=5)
        assert grouping.sizes() == (4, 3, 3)

    def test_deterministic(self):
        a = split_random_even(self._instances(50), 4, seed=9)
        b = split_random_even(self._instances(50), 4, seed=9)
        assert a == b

    def test_different_seeds_differ(self):
        a = split_random_even(self._instances(50), 4, seed=1)
        b = split_random_even(self._instances(50), 4, seed=2)
        assert a != b

    def test_bad_k(self):
        with pytest.raises(ValueError):
            split_random_even(self._instances(5), 0, seed=1)
        with pytest.raises(ValueError):
            split_random_even(self._instances(3), 4, seed=1)

    @settings(max_examples=60)
    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=40),
        st.integers(),
    )
    def test_partition_properties(self, k, extra, seed):
        n = k + extra
        ids = [f"x{j}" for j in range(n)]
        grouping = split_random_even(ids, k, seed)
        assert grouping.k == k
        sizes = grouping.sizes()
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == n
        assert grouping.all_instances() == set(ids)


class TestRecords:
    def test_timeout_requires_runtime_at_cutoff(self):
        with pytest.raises(ValueError):
            RunRecord("c", "i", 0, RunStatus.TIMEOUT, 10.0, 60.0)

    def test_runtime_beyond_cutoff_rejected(self):
        with pytest.raises(ValueError):
            RunRecord("c", "i", 0, RunStatus.SOLVED, 61.0, 60.0)

    def test_grouping_rejects_duplicates(self):
        with pytest.raises(ValueError):
            InstanceGrouping((("a", "b"), ("b",)), 1, 2)
