"""Selection algorithms: prefix-exact free model, budgeted greedy, enumeration truth."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from juryselect import (
    Budget,
    CandidatePool,
    EmptyPool,
    Juror,
    NoAffordableJuror,
    SizeLimitExceeded,
    SynthConfig,
    compare_results,
    gen_pool,
    jer_dp,
    solve_altrm,
    solve_oracle,
    solve_paym_greedy,
)
from juryselect.jer import Jury


def make_pool(rows):
    return CandidatePool(tuple(Juror(i, e, r) for i, e, r in rows))


PAYM_POOL = [
    ("A", 0.1, 0.8),
    ("B", 0.2, 0.1),
    ("C", 0.2, 0.1),
    ("D", 0.3, 0.1),
    ("E", 0.3, 0.1),
]


class TestCandidatePool:
    def test_empty_rejected(self):
        with pytest.raises(EmptyPool):
            CandidatePool(())

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            CandidatePool((Juror("a", 0.1), Juror("a", 0.2)))


class TestBudget:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Budget(-1.0)

    def test_nan_rejected_as_not_a_number(self):
        with pytest.raises(ValueError, match="^budget must be a number$"):
            Budget(math.nan)

    def test_infinite_allowed(self):
        assert Budget(math.inf).amount == math.inf


class TestSolveAltrm:
    def test_motivating_pool_selects_best_five(self, fig1_pool):
        result = solve_altrm(fig1_pool)
        assert sorted(result.member_ids) == ["A", "B", "C", "D", "E"]
        assert result.jer == pytest.approx(0.07036, abs=1e-9)
        assert result.total_cost == 0.0

    def test_single_candidate(self):
        result = solve_altrm([Juror("only", 0.3)])
        assert result.jury.size == 1
        assert result.jer == pytest.approx(0.3)

    def test_error_prone_pool_shrinks_to_one(self):
        result = solve_altrm([Juror(f"x{i}", 0.6) for i in range(9)])
        assert result.jury.size == 1
        assert result.jer == pytest.approx(0.6)

    def test_mixed_degraded_pool_collapses_to_best_juror(self):
        # Prefix JERs by exact enumeration: 0.4 / 0.552 / 0.72464.
        pool = [Juror(f"m{i}", e) for i, e in enumerate([0.4, 0.6, 0.6, 0.7, 0.8])]
        result = solve_altrm(pool)
        assert result.jury.size == 1
        assert result.member_ids == {"m0"}
        assert result.jer == pytest.approx(0.4, abs=1e-12)
        exact = solve_oracle(pool, math.inf)
        assert exact.member_ids == result.member_ids
        assert abs(exact.jer - result.jer) <= 1e-12

    def test_even_pool_uses_largest_odd_prefix(self):
        result = solve_altrm([Juror(f"x{i}", 0.1) for i in range(4)])
        assert result.jury.size == 3

    def test_tie_broken_by_id(self):
        pool = [Juror("b", 0.2), Juror("a", 0.2), Juror("c", 0.9)]
        result = solve_altrm(pool)
        assert result.jury.members[0].id == "a"

    def test_pruning_never_changes_result(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            n = int(rng.integers(1, 30))
            eps = rng.uniform(0.05, 0.95, n)
            pool = [Juror(f"j{i}", e) for i, e in enumerate(eps)]
            with_pruning = solve_altrm(pool, use_pruning=True)
            without = solve_altrm(pool, use_pruning=False)
            assert with_pruning.member_ids == without.member_ids
            assert with_pruning.jer == without.jer
            assert with_pruning.juries_pruned >= 0
            assert without.juries_pruned == 0

    def test_pruning_actually_skips_on_error_prone_pools(self):
        pool = [Juror(f"j{i}", 0.8) for i in range(21)]
        result = solve_altrm(pool, use_pruning=True)
        assert result.juries_pruned > 0

    def test_matches_oracle_on_random_pools(self):
        rng = np.random.default_rng(37)
        for _ in range(40):
            n = int(rng.integers(1, 14))
            pool = [Juror(f"j{i}", e) for i, e in enumerate(rng.uniform(0.05, 0.95, n))]
            exact = solve_oracle(pool, math.inf)
            prefix = solve_altrm(pool)
            assert abs(prefix.jer - exact.jer) <= 1e-9

    def test_empty_pool_rejected(self):
        with pytest.raises(EmptyPool):
            solve_altrm([])

    def test_prefix_jers_non_monotone_on_motivating_pool(self, fig1_pool):
        ordered = sorted(fig1_pool, key=lambda j: (j.epsilon, j.id))
        jers = {n: jer_dp(Jury(tuple(ordered[:n]))) for n in (3, 5, 7)}
        assert jers[5] < jers[3] < jers[7]
        assert jers[5] == pytest.approx(0.07036, abs=1e-9)
        assert jers[3] == pytest.approx(0.072, abs=1e-9)
        assert jers[7] == pytest.approx(0.085248, abs=1e-9)


@pytest.fixture(scope="module")
def deep_pool_scan():
    """A pool whose best juries err below the float floor (1e-308), and the
    log10 JER of each of its odd prefixes from a 30-digit mpmath scan.

    The scan is the all-positive recurrence for P(W >= l), advanced one
    sorted juror at a time, so one row serves every prefix.
    """
    mpmath = pytest.importorskip("mpmath")
    pool = gen_pool(SynthConfig(1000, 0.1, 0.1, seed=1))
    order = sorted(pool, key=lambda j: (j.epsilon, j.id))
    half = len(order) // 2 + 1
    log10_tails = {}
    with mpmath.workdps(30):
        row = [mpmath.mpf(1)] + [mpmath.mpf(0)] * half
        for n, juror in enumerate(order, start=1):
            e = mpmath.mpf(juror.epsilon)
            for level in range(min(n, half), 0, -1):
                row[level] = row[level] * (1 - e) + row[level - 1] * e
            if n % 2:
                log10_tails[n] = float(mpmath.log10(row[(n + 1) // 2]))
    return pool, order, log10_tails


class TestDeepTails:
    def test_altrm_finds_the_optimum_below_the_float_floor(self, deep_pool_scan):
        pool, _, log10_tails = deep_pool_scan
        best = min(log10_tails, key=log10_tails.get)
        assert best == 177
        assert log10_tails[best] < -308
        for use_pruning in (True, False):
            result = solve_altrm(pool, use_pruning=use_pruning)
            assert result.jury.size == best
            assert abs(result.log10_jer - log10_tails[best]) <= 1e-9
            assert result.jer == 0.0
            assert result.juries_evaluated + result.juries_pruned == 500

    def test_greedy_stops_where_the_error_rate_stops_falling(self, deep_pool_scan):
        pool, order, log10_tails = deep_pool_scan
        result = solve_paym_greedy(pool, 1.0)
        assert result.jury.size == 177
        assert result.member_ids == {j.id for j in order[:177]}
        assert abs(result.log10_jer - log10_tails[177]) <= 1e-9
        assert result.total_cost == 0.0

    def test_log10_jer_matches_jer_above_the_floor(self, fig1_pool):
        for result in (
            solve_altrm(fig1_pool),
            solve_paym_greedy(make_pool(PAYM_POOL), 0.5),
            solve_oracle(make_pool(PAYM_POOL), 0.5),
        ):
            assert result.log10_jer == pytest.approx(math.log10(result.jer), abs=1e-12)


class TestSolvePaymGreedy:
    def test_hand_traced_selection(self):
        result = solve_paym_greedy(make_pool(PAYM_POOL), 0.5)
        assert sorted(result.member_ids) == ["B", "C", "D"]
        assert result.jer == pytest.approx(0.136, abs=1e-12)
        assert result.total_cost == pytest.approx(0.3)

    def test_single_affordable_candidate(self):
        result = solve_paym_greedy([Juror("a", 0.2, 0.5)], Budget(1.0))
        assert result.jury.size == 1
        assert result.jer == pytest.approx(0.2)
        assert result.total_cost == pytest.approx(0.5)

    def test_budget_below_every_requirement(self):
        with pytest.raises(NoAffordableJuror):
            solve_paym_greedy([Juror("a", 0.2, 0.5)], 0.1)

    def test_pending_pair_discarded_at_scan_end(self):
        # Second candidate fits as a pair but no third ever completes it.
        pool = [Juror("a", 0.2, 0.1), Juror("b", 0.3, 0.1)]
        result = solve_paym_greedy(pool, 1.0)
        assert sorted(result.member_ids) == ["a"]

    def test_jer_neutral_enlargement_admitted(self):
        # The pair leaves the error rate unchanged; the non-strict rule admits it.
        pool = [
            Juror("a", 0.5, 0.0),
            Juror("b", 0.5, 0.0),
            Juror("c", 0.5, 0.0),
        ]
        result = solve_paym_greedy(pool, 10.0)
        assert result.jury.size == 3

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_output_is_odd_and_within_budget(self, data):
        n = data.draw(st.integers(1, 12))
        eps = data.draw(st.lists(st.floats(0.05, 0.95), min_size=n, max_size=n))
        req = data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
        pool = [Juror(f"j{i}", e, r) for i, (e, r) in enumerate(zip(eps, req))]
        budget = data.draw(st.floats(min(req), sum(req) + 1.0))
        result = solve_paym_greedy(pool, budget)
        assert result.jury.size % 2 == 1
        assert result.total_cost <= budget + 1e-12


def exact_oracle(pool, budget):
    """The documented optimum in exact arithmetic, by plain enumeration.

    Returns (jer, cost, size, ids) of the feasible odd jury that minimizes
    exactly that key: error rate, then cost, then size, then id order.
    """
    order = sorted(pool, key=lambda j: j.id)
    best = None
    for k in range(1, len(order) + 1, 2):
        for combo in itertools.combinations(order, k):
            cost = sum(Fraction(j.requirement) for j in combo)
            if cost > Fraction(budget):
                continue
            pmf = [Fraction(1)]
            for juror in combo:
                e = Fraction(juror.epsilon)
                pmf = [p * (1 - e) + q * e for p, q in zip(pmf + [0], [0] + pmf)]
            key = (sum(pmf[(k + 1) // 2 :]), cost, k, [j.id for j in combo])
            if best is None or key < best:
                best = key
    return best


class TestSolveOracle:
    def test_agrees_with_greedy_on_traced_pool(self):
        truth = solve_oracle(make_pool(PAYM_POOL), 0.5)
        assert sorted(truth.member_ids) == ["B", "C", "D"]
        assert truth.jer == pytest.approx(0.136, abs=1e-12)

    def test_single_affordable_juror(self):
        truth = solve_oracle([Juror("a", 0.2, 0.5)], 1.0)
        assert sorted(truth.member_ids) == ["a"]

    def test_zero_requirements_match_free_model(self, fig1_pool):
        truth = solve_oracle(fig1_pool, 0.0)
        assert sorted(truth.member_ids) == ["A", "B", "C", "D", "E"]
        assert truth.jer == pytest.approx(0.07036, abs=1e-9)

    def test_size_cap(self):
        pool = [Juror(f"j{i}", 0.3) for i in range(23)]
        with pytest.raises(SizeLimitExceeded):
            solve_oracle(pool, math.inf)

    def test_infeasible_budget(self):
        with pytest.raises(NoAffordableJuror):
            solve_oracle([Juror("a", 0.2, 2.0)], 1.0)

    def test_tie_breaking_prefers_cheaper_then_smaller_then_ids(self):
        # b and c are identical in error rate; cheaper c wins the tie.
        pool = [Juror("b", 0.2, 0.5), Juror("c", 0.2, 0.1)]
        truth = solve_oracle(pool, 1.0)
        assert sorted(truth.member_ids) == ["c"]
        # Equal cost and error rate: lexicographically smaller id wins.
        pool = [Juror("b", 0.2, 0.1), Juror("a", 0.2, 0.1)]
        truth = solve_oracle(pool, 1.0)
        assert sorted(truth.member_ids) == ["a"]

    def test_smaller_jury_wins_a_tie(self):
        # {a} and {a, b, c} both err with probability exactly 0.5, at cost 0.
        pool = [Juror(i, 0.5) for i in "abc"]
        truth = solve_oracle(pool, 1.0)
        assert sorted(truth.member_ids) == ["a"]
        assert truth.jer == 0.5

    def test_matches_exact_enumeration_on_continuous_pools(self):
        rng = np.random.default_rng(43)
        for _ in range(150):
            n = int(rng.integers(1, 10))
            pool = [
                Juror(f"j{i}", e, r)
                for i, (e, r) in enumerate(zip(rng.uniform(0.05, 0.95, n), rng.uniform(0.0, 1.0, n)))
            ]
            budget = float(min(j.requirement for j in pool) + rng.uniform(0.0, n * 0.4))
            jer, cost, _, ids = exact_oracle(pool, budget)
            truth = solve_oracle(pool, budget)
            assert sorted(truth.member_ids) == ids
            assert abs(truth.jer - jer) <= 1e-12 * jer
            assert truth.total_cost == pytest.approx(float(cost), abs=1e-12)

    def test_exact_ties_follow_the_tie_rule_on_grid_pools(self):
        # Few distinct error rates and binary-exact costs make many juries
        # tie exactly; their float error rates may differ in the last ulps.
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(5, 10))
            eps = rng.choice([0.1, 0.2, 0.3, 0.5], n)
            req = rng.choice([0.0, 0.25, 0.5], n)
            pool = [Juror(f"j{i}", e, r) for i, (e, r) in enumerate(zip(eps, req))]
            budget = 0.25 * int(rng.integers(1, 2 * n))
            _, _, _, ids = exact_oracle(pool, budget)
            assert sorted(solve_oracle(pool, budget).member_ids) == ids

    def test_greedy_never_beats_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(60):
            n = int(rng.integers(1, 13))
            pool = [
                Juror(f"j{i}", e, r)
                for i, (e, r) in enumerate(
                    zip(rng.uniform(0.05, 0.95, n), rng.uniform(0.0, 1.0, n))
                )
            ]
            budget = float(min(j.requirement for j in pool) + rng.uniform(0.0, n * 0.5))
            greedy = solve_paym_greedy(pool, budget)
            truth = solve_oracle(pool, budget)
            assert greedy.jer - truth.jer >= -1e-9


class TestCompareResults:
    def test_identical_juries(self):
        result = solve_paym_greedy(make_pool(PAYM_POOL), 0.5)
        comparison = compare_results(result, result)
        assert comparison == (1.0, 1.0, 0.0, 0.0)

    def test_set_arithmetic(self):
        left = solve_oracle([Juror("a", 0.1), Juror("b", 0.2), Juror("c", 0.3)], math.inf)
        right = solve_oracle([Juror("a", 0.1), Juror("d", 0.2), Juror("e", 0.3)], math.inf)
        comparison = compare_results(left, right)
        assert comparison.precision == pytest.approx(1 / 3)
        assert comparison.recall == pytest.approx(1 / 3)

    def test_greedy_vs_oracle_on_traced_pool(self):
        greedy = solve_paym_greedy(make_pool(PAYM_POOL), 0.5)
        truth = solve_oracle(make_pool(PAYM_POOL), 0.5)
        precision, recall, jer_gap, cost_gap = compare_results(greedy, truth)
        assert (precision, recall) == (1.0, 1.0)
        assert jer_gap == pytest.approx(0.0, abs=1e-12)
        assert cost_gap == pytest.approx(0.0, abs=1e-12)
