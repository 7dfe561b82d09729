"""Selection algorithms: prefix-exact free model, budgeted greedy, enumeration truth."""

import functools
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
    log_jer,
    solve_altrm,
    solve_oracle,
    solve_paym_greedy,
)
from juryselect import jer, solver
from juryselect.jer import Jury
from juryselect.jer import _advance as group_advance
from juryselect.solver import _half_table, _members


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

    def test_error_prone_pools_read_every_prefix(self):
        # The best jury, the first juror, errs with probability 0.8 > 1/2,
        # so the stop never fires.
        pool = [Juror(f"j{i}", 0.8) for i in range(21)]
        result = solve_altrm(pool, use_pruning=True)
        assert (result.juries_evaluated, result.juries_pruned) == (11, 0)
        assert result.jury.size == 1

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

    @pytest.mark.parametrize("use_pruning", [True, False])
    def test_jer_dp_runs_the_scan_s_kernel(self, use_pruning):
        # The criterion 11 pools, then draws up to 1,500 candidates: jer_dp
        # and log_jer read the chosen jury's error rate bit for bit.
        configs = [SynthConfig(1000, mean, 0.1, seed=11) for mean in (0.2, 0.5, 0.7)]
        configs += [
            SynthConfig(n, mean, 0.1, seed=seed)
            for n, mean, seed in ((1500, 0.1, 2), (1201, 0.3, 3), (800, 0.4, 4), (301, 0.6, 5), (1000, 0.7, 6))
        ]
        for config in configs:
            result = solve_altrm(gen_pool(config), use_pruning=use_pruning)
            assert jer_dp(result.jury) == result.jer
            assert log_jer(result.jury) / math.log(10) == result.log10_jer

    def test_prefix_jers_non_monotone_on_motivating_pool(self, fig1_pool):
        ordered = sorted(fig1_pool, key=lambda j: (j.epsilon, j.id))
        jers = {n: jer_dp(Jury(tuple(ordered[:n]))) for n in (3, 5, 7)}
        assert jers[5] < jers[3] < jers[7]
        assert jers[5] == pytest.approx(0.07036, abs=1e-9)
        assert jers[3] == pytest.approx(0.072, abs=1e-9)
        assert jers[7] == pytest.approx(0.085248, abs=1e-9)


def whole_row_advance(row, q, lo, hi):
    """The group step on every tail up to the jury's new size or the row's
    top, whatever the band it is given; the size is read off the row,
    whose tails are finite up to it, and its spare tails are not stepped."""
    last = row.size - 2 * jer.BLOCK - 1
    size = np.count_nonzero(row[jer.BLOCK + 1 :] > -np.inf)
    group_advance(row, q, 1, min(size + q.size - 1, last) + 1)


def counting_advance(monkeypatch):
    """Route ``jer._advance``, which the free scan runs, through a counter;
    returns the group sizes it absorbed, one entry per call."""
    calls = []

    def advance(row, q, *band):
        calls.append(q.size - 1)
        group_advance(row, q, *band)

    monkeypatch.setattr(jer, "_advance", advance)
    return calls


def log_prefix_scan(pool, monkeypatch):
    """Every odd prefix's log error rate, the scan advancing the whole row:
    the scan without band, bound or stop.  Returns (best size, its log
    tail, prefix count)."""
    order = sorted(pool, key=lambda j: (j.epsilon, j.id))
    n_max = len(order) - (len(order) % 2 == 0)
    with monkeypatch.context() as patch:
        patch.setattr(jer, "_advance", whole_row_advance)
        tails = [(tail, k) for k, tail in jer.odd_prefix_tails([j.epsilon for j in order[:n_max]])]
    best = min(tails)
    return best[1], best[0], len(tails)


class TestLiveBand:
    """The band and the stop change no answer; the stop fires where it may."""

    def test_band_matches_the_whole_row(self, monkeypatch):
        rng = np.random.default_rng(53)
        pools = [
            [Juror(f"s{i}", e, r) for i, (e, r) in enumerate(zip(rng.uniform(0.05, 0.6, n), rng.uniform(0, 0.2, n)))]
            for n in (1, 2, 3, 4, 6, 10, 100)
        ]
        pools += [
            gen_pool(SynthConfig(2000, 0.3, 0.1)),
            gen_pool(SynthConfig(1000, 0.1, 0.1, seed=1)),
            gen_pool(SynthConfig(2000, 0.3, 0.07, requirement_mean=0.001, requirement_stddev=0.001, seed=5)),
        ]

        # At budget 100 the greedy grows the last pool's jury to about
        # 1,900 jurors, so its band starts above tail 1.
        paid = [(pool, 0.5) for pool in pools] + [(pools[-1], 100)]

        def results():
            picked = [solve_altrm(pool, use_pruning=False) for pool in pools]
            picked += [solve_paym_greedy(pool, budget) for pool, budget in paid]
            return picked, [log_jer(result.jury) for result in picked]

        banded = results()
        starts = []

        def recording_advance(row, q, lo, hi):
            starts.append(lo)
            group_advance(row, q, lo, hi)

        with monkeypatch.context() as patch:
            patch.setattr(jer, "_advance", recording_advance)
            for pool, budget in paid:
                solve_paym_greedy(pool, budget)
        assert max(starts) > 1
        monkeypatch.setattr(jer, "_advance", whole_row_advance)
        assert banded == results()

    def test_stop_fires_on_a_high_mean_pool(self, monkeypatch):
        pool = gen_pool(SynthConfig(1000, 0.7, 0.1, seed=11))
        advanced = counting_advance(monkeypatch)
        result = solve_altrm(pool)
        # Prefix 63 is the first whose mean wrong count reaches (n + 1) / 2.
        # It is the last read of the block from prefix 49, so the row
        # stops there: one juror plus three groups.
        assert (result.juries_evaluated, result.juries_pruned) == (32, 468)
        assert sum(advanced) == 48
        assert result.jury.size == 11
        advanced.clear()
        full = solve_altrm(pool, use_pruning=False)
        # The full scan's last block, from prefix 993, needs no advance.
        assert (full.juries_evaluated, full.juries_pruned) == (500, 0)
        assert sum(advanced) == 992
        assert (full.jury, full.jer, full.log10_jer) == (result.jury, result.jer, result.log10_jer)

    @pytest.mark.parametrize(
        "mean, counts", [(0.2, (500, 0)), (0.5, (499, 1)), (0.7, (32, 468))]
    )
    def test_counters_on_criterion_11_pools(self, mean, counts):
        # Only the stop skips prefixes.  It never fires at mean 0.2, and
        # fires after prefix 997 of 999 at 0.5 and after prefix 63 at 0.7.
        result = solve_altrm(gen_pool(SynthConfig(1000, mean, 0.1, seed=11)))
        assert (result.juries_evaluated, result.juries_pruned) == counts

    def test_answer_matches_a_full_log_scan(self, monkeypatch):
        stopped = 0
        for mean in (0.4, 0.5, 0.6, 0.7, 0.8):
            for stddev in (0.05, 0.1, 0.2, 0.3):
                for seed in range(4):
                    pool = gen_pool(SynthConfig(301, mean, stddev, seed=seed))
                    size, log_tail, prefixes = log_prefix_scan(pool, monkeypatch)
                    result = solve_altrm(pool)
                    stopped += result.juries_pruned > 0
                    assert result.jury.size == size
                    assert result.log10_jer == log_tail / math.log(10)
                    assert result.jer == math.exp(log_tail)
                    assert result.juries_evaluated + result.juries_pruned == prefixes
        assert stopped >= 20

    def test_error_rate_one_half_throughout_never_stops(self, monkeypatch):
        # Every odd prefix errs with probability exactly 1/2, so the best
        # is never below 1/2 and the first prefix keeps the lead.
        advanced = counting_advance(monkeypatch)
        for use_pruning in (True, False):
            advanced.clear()
            result = solve_altrm([Juror(f"h{i:03d}", 0.5) for i in range(201)], use_pruning=use_pruning)
            # Up to the block from prefix 193, the last.
            assert sum(advanced) == 192
            assert result.jury.size == 1
            assert result.jer == 0.5
            assert result.juries_evaluated + result.juries_pruned == 101

    def test_no_stop_while_the_best_errs_above_one_half(self, monkeypatch):
        # Mean wrong counts pass (n + 1) / 2 from prefix 5 on, but the best
        # jury, the first juror, errs with probability 0.629 > 1/2.
        pool = gen_pool(SynthConfig(500, 0.9, 0.1, seed=1))
        advanced = counting_advance(monkeypatch)
        result = solve_altrm(pool)
        # Up to the block from prefix 497, the last.
        assert sum(advanced) == 496
        assert result.jury.size == 1
        assert (result.juries_evaluated, result.juries_pruned) == (250, 0)

    def test_median_bound_behind_the_stop(self):
        # Jogdeo & Samuels (1968): a Poisson-binomial count W with mean mu
        # has P(W >= floor(mu)) >= 1/2.  Checked in exact arithmetic,
        # including rates 0 and 1 and integer means.
        rng = np.random.default_rng(61)
        for _ in range(400):
            n = int(rng.integers(1, 12))
            eps = [Fraction(int(k), 16) for k in rng.integers(0, 17, n)]
            pmf = [Fraction(1)]
            for e in eps:
                pmf = [p * (1 - e) + q * e for p, q in zip(pmf + [0], [0] + pmf)]
            mu = sum(eps)
            assert sum(pmf[math.floor(mu) :]) >= Fraction(1, 2)


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

    def test_log_jer_below_the_float_floor(self, deep_pool_scan):
        _, order, log10_tails = deep_pool_scan
        jury = Jury(tuple(order[:177]))
        assert abs(log_jer(jury) / math.log(10) - log10_tails[177]) <= 1e-9
        assert jer_dp(jury) == 0.0

    def test_log_jer_just_below_the_smallest_float(self):
        # The optimum of this pool errs with probability 1.338e-325, below
        # the smallest subnormal; log10 from a 30-digit mpmath recurrence.
        order = sorted(gen_pool(SynthConfig(3000, 0.2, 0.1, seed=11)), key=lambda j: (j.epsilon, j.id))
        jury = Jury(tuple(order[:2515]))
        assert abs(log_jer(jury) / math.log(10) - -324.87347847824) <= 1e-9
        assert jer_dp(jury) == 0.0

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

    def test_jer_dp_reads_the_greedy_jer(self):
        # The greedy reports the odd-prefix scan's read of its jury, so
        # jer_dp and log_jer read the chosen jury's error rate bit for bit.
        configs = [SynthConfig(22, 0.2, 0.1, requirement_mean=0.05, requirement_stddev=0.2, seed=s) for s in range(4)]
        configs += [
            SynthConfig(2000, 0.3, 0.07, requirement_mean=0.001, requirement_stddev=0.001, seed=5),
            SynthConfig(1000, 0.1, 0.1, seed=1),
            SynthConfig(600, 0.45, 0.2, requirement_mean=0.01, requirement_stddev=0.01, seed=7),
        ]
        for config in configs:
            pool = gen_pool(config)
            for budget in (0.05, 0.5, 2.0):
                result = solve_paym_greedy(pool, budget)
                assert jer_dp(result.jury) == result.jer
                assert log_jer(result.jury) / math.log(10) == result.log10_jer

    @pytest.mark.parametrize("size", [15, 17, 19, 33])
    def test_jer_dp_reads_the_greedy_jer_at_block_boundaries(self, size):
        # Juries that end just before, at and after a row advance, and one
        # block on: a budget of `size` unit requirements caps the size and
        # each pair of low error rates lowers the error rate.
        rng = np.random.default_rng(size)
        for _ in range(5):
            pool = [Juror(f"b{i:02d}", e, 1.0) for i, e in enumerate(rng.uniform(0.05, 0.3, 40))]
            result = solve_paym_greedy(pool, float(size))
            assert result.jury.size == size
            assert jer_dp(result.jury) == result.jer
            assert log_jer(result.jury) / math.log(10) == result.log10_jer

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
            jer = exact_jer(tuple(sorted(j.epsilon for j in combo)))
            key = (jer, cost, k, [j.id for j in combo])
            if best is None or key < best:
                best = key
    return best


@functools.lru_cache(maxsize=None)
def exact_jer(epsilons):
    """The exact majority error rate of a jury with these error rates."""
    pmf = [Fraction(1)]
    for e in map(Fraction, epsilons):
        pmf = [p * (1 - e) + q * e for p, q in zip(pmf + [0], [0] + pmf)]
    return sum(pmf[(len(epsilons) + 1) // 2 :])


def oracle(pool, budget):
    """``solve_oracle``, checking that every odd subset was either priced or
    pruned and that the cost is the members' requirement sum, within budget."""
    result = solve_oracle(pool, budget)
    assert result.juries_evaluated + result.juries_pruned == 2 ** (len(pool) - 1)
    cost = math.fsum(j.requirement for j in result.jury.members)
    assert result.total_cost <= budget
    assert abs(result.total_cost - cost) <= 1e-12 * cost
    return result


def brute_force_oracle(pool, budget):
    """The optimum under the oracle's tie rule, pricing every odd subset in numpy.

    Returns (jer, member ids), or None when no odd subset fits the budget;
    subset bit i is the i-th juror in id order.
    """
    order = sorted(pool, key=lambda j: j.id)
    n = len(order)
    members = (np.arange(2**n)[:, None] >> np.arange(n)) & 1 == 1
    pmf = np.ones((1, 1))
    for juror in order:
        # The subsets holding this juror come after those without it.
        pmf = np.pad(pmf, ((0, 0), (0, 1)))
        pmf = np.vstack([pmf, pmf * (1.0 - juror.epsilon) + np.roll(pmf, 1, axis=1) * juror.epsilon])
    size = members.sum(axis=1)
    jer = np.where(np.arange(n + 1) >= (size[:, None] + 1) // 2, pmf, 0.0).sum(axis=1)
    cost = members @ np.array([j.requirement for j in order])
    feasible = (size % 2 == 1) & (cost <= budget)
    if not feasible.any():
        return None
    tied = np.flatnonzero(feasible & (jer <= jer[feasible].min() * (1.0 + 1e-13)))

    def ids(k):
        return [order[i].id for i in np.flatnonzero(members[k])]

    best = min(tied, key=lambda k: (cost[k], size[k], ids(k)))
    return jer[best], ids(best)


def column_of(combo, h):
    """The doubling table's column of a subset: member i is bit h - 1 - i."""
    return sum(1 << (h - 1 - i) for i in combo)


class TestHalfTables:
    @pytest.mark.parametrize("h", range(12))
    def test_doubling_matches_the_per_size_tables(self, h):
        rng = np.random.default_rng(59 + h)
        halves = [
            # Tied error rates, so the stable tie order picks lowest.
            (rng.choice([0.1, 0.2, 0.3], h), rng.uniform(0.0, 1.0, h)),
            (rng.uniform(0.05, 0.95, h), np.zeros(h)),
            (rng.uniform(0.05, 0.95, h), np.full(h, 0.25)),
            (np.full(h, 0.2), np.full(h, 0.1)),
        ]
        for eps, req in halves:
            half = tuple(Juror(f"j{i:02d}", e, r) for i, (e, r) in enumerate(zip(eps, req)))
            pmf, cols, cost, lowest = _half_table(half)
            assert pmf.shape == (h + 1, 2**h) and len(cols) == len(lowest) == h + 1
            by_rate = sorted(range(h), key=lambda i: half[i].epsilon)
            for s in range(h + 1):
                combos = list(itertools.combinations(range(h), s))
                assert cols[s].tolist() == [column_of(c, h) for c in combos]
                assert lowest[s] == column_of(by_rate[:s], h)
                for combo in combos:
                    column = column_of(combo, h)
                    assert _members(column, h) == list(combo)
                    # Juror by juror, and costs left to right: builtin sum
                    # compensates on newer Pythons.
                    want = np.zeros(h + 1)
                    want[0] = 1.0
                    total = 0.0
                    for i in combo:
                        e = half[i].epsilon
                        want[1:] = want[1:] * (1.0 - e) + want[:-1] * e
                        want[:1] *= 1.0 - e
                        total += half[i].requirement
                    assert np.array_equal(pmf[:, column], want)
                    assert cost[column] == total


class TestSolveOracle:
    def test_agrees_with_greedy_on_traced_pool(self):
        truth = oracle(make_pool(PAYM_POOL), 0.5)
        assert sorted(truth.member_ids) == ["B", "C", "D"]
        assert truth.jer == pytest.approx(0.136, abs=1e-12)

    def test_single_affordable_juror(self):
        truth = oracle([Juror("a", 0.2, 0.5)], 1.0)
        assert sorted(truth.member_ids) == ["a"]

    def test_zero_requirements_match_free_model(self, fig1_pool):
        truth = oracle(fig1_pool, 0.0)
        assert sorted(truth.member_ids) == ["A", "B", "C", "D", "E"]
        assert truth.jer == pytest.approx(0.07036, abs=1e-9)

    def test_size_cap(self):
        pool = [Juror(f"j{i}", 0.3) for i in range(23)]
        with pytest.raises(SizeLimitExceeded):
            oracle(pool, math.inf)

    def test_infeasible_budget(self):
        with pytest.raises(NoAffordableJuror):
            oracle([Juror("a", 0.2, 2.0)], 1.0)

    def test_tie_breaking_prefers_cheaper_then_smaller_then_ids(self):
        # b and c are identical in error rate; cheaper c wins the tie.
        pool = [Juror("b", 0.2, 0.5), Juror("c", 0.2, 0.1)]
        truth = oracle(pool, 1.0)
        assert sorted(truth.member_ids) == ["c"]
        # Equal cost and error rate: lexicographically smaller id wins.
        pool = [Juror("b", 0.2, 0.1), Juror("a", 0.2, 0.1)]
        truth = oracle(pool, 1.0)
        assert sorted(truth.member_ids) == ["a"]

    def test_smaller_jury_wins_a_tie(self):
        # {a} and {a, b, c} both err with probability exactly 0.5, at cost 0.
        pool = [Juror(i, 0.5) for i in "abc"]
        truth = oracle(pool, 1.0)
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
            truth = oracle(pool, budget)
            assert sorted(truth.member_ids) == ids
            assert abs(truth.jer - jer) <= 1e-12 * jer
            assert truth.total_cost == pytest.approx(float(cost), abs=1e-12)

    def test_exact_ties_follow_the_tie_rule_on_grid_pools(self):
        # Few distinct error rates and binary-exact costs make many juries
        # tie exactly; their float error rates may differ in the last ulps.
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(5, 13))
            eps = rng.choice([0.1, 0.2, 0.3, 0.5], n)
            req = rng.choice([0.0, 0.25, 0.5], n)
            pool = [Juror(f"j{i}", e, r) for i, (e, r) in enumerate(zip(eps, req))]
            budget = 0.25 * int(rng.integers(1, 2 * n))
            _, _, _, ids = exact_oracle(pool, budget)
            assert sorted(oracle(pool, budget).member_ids) == ids

    def test_pruning_matches_brute_force_on_larger_pools(self):
        def check(pool, budget):
            expected = brute_force_oracle(pool, budget)
            if expected is None:
                with pytest.raises(NoAffordableJuror):
                    oracle(pool, budget)
                return
            jer, ids = expected
            truth = oracle(pool, budget)
            assert sorted(truth.member_ids) == ids
            assert abs(truth.jer - jer) <= 1e-12 * jer

        rng = np.random.default_rng(47)
        # n = 1 leaves half A empty.
        for n in (*range(12, 17), 1, 2, 3):
            for _ in range(3):
                pool = [
                    Juror(f"j{i:02d}", e, r)
                    for i, (e, r) in enumerate(zip(rng.uniform(0.05, 0.6, n), rng.uniform(0.0, 1.0, n)))
                ]
                total = sum(j.requirement for j in pool)
                for budget in (math.inf, total, *(total * rng.uniform(0.1, 0.5, 3))):
                    check(pool, budget)
        # With every requirement zero, each jury costs exactly the budget 0.0.
        for n in (1, 2, 3, 16):
            check([Juror(f"j{i:02d}", e) for i, e in enumerate(rng.uniform(0.05, 0.6, n))], 0.0)

    def test_counters_pinned_on_sweep_pools(self):
        # (juries_evaluated, juries_pruned) at budgets 1.0, 2.0 and 3.0, as
        # counted when each block was bounded in its own loop iteration.
        expected = {
            1000: [(479160, 1617992), (12705, 2084447), (3630, 2093522)],
            1001: [(571362, 1525790), (13486, 2083666), (3630, 2093522)],
            1002: [(98857, 1998295), (3630, 2093522), (3630, 2093522)],
        }
        for seed, counts in expected.items():
            config = SynthConfig(22, 0.2, 0.1, requirement_mean=0.05, requirement_stddev=0.2, seed=seed)
            pool = gen_pool(config)
            for budget, count in zip((1.0, 2.0, 3.0), counts):
                result = oracle(pool, budget)
                assert (result.juries_evaluated, result.juries_pruned) == count

    def test_bound_prunes_most_subsets_on_sweep_pools(self):
        # Without the bound every subset would be priced; a disabled or
        # loosened bound fails here before any timing shows it.
        for seed in (1, 2, 3):
            config = SynthConfig(22, 0.2, 0.1, requirement_mean=0.05, requirement_stddev=0.2, seed=seed)
            assert oracle(gen_pool(config), 3.0).juries_pruned >= 0.9 * 2**21

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
            truth = oracle(pool, budget)
            assert greedy.jer - truth.jer >= -1e-9


def oracle_key(result):
    """Everything a caller reads off an oracle answer, floats as exact bits."""
    return (
        sorted(result.member_ids),
        result.jer.hex(),
        result.total_cost.hex(),
        result.juries_evaluated,
        result.juries_pruned,
    )


def cold_oracle(pool, budget):
    solver._oracle_tables.cache_clear()
    return solve_oracle(pool, budget)


SWEEP_BUDGETS = [round(1.0 + 0.2 * i, 1) for i in range(11)]


class TestOracleMemo:
    def sweep_pools(self):
        pools = [gen_pool(SynthConfig(22, 0.2, 0.1, 0.05, 0.2, seed=seed)) for seed in (1000, 1001, 1002)]
        return [(pool, SWEEP_BUDGETS) for pool in pools] + self.small_pools()

    def small_pools(self):
        # Criterion 7's random pools, several budgets each.
        rng = np.random.default_rng(7)
        pools = []
        for _ in range(40):
            n = int(rng.integers(1, 17))
            eps, req = rng.uniform(0.05, 0.95, n), rng.uniform(0.0, 1.0, n)
            pool = [Juror(f"j{i:02d}", e, r) for i, (e, r) in enumerate(zip(eps, req))]
            budgets = [float(req.min() + rng.uniform(0.0, req.sum())) for _ in range(3)]
            pools.append((pool, [*budgets, math.inf]))
        return pools

    def test_warm_sweeps_match_cold_calls(self):
        for pool, budgets in self.sweep_pools():
            cold = [oracle_key(cold_oracle(pool, budget)) for budget in budgets]
            solver._oracle_tables.cache_clear()
            warm = [oracle_key(oracle(pool, budget)) for budget in budgets]
            assert warm == cold
            # Every call after the first reused the first call's tables.
            info = solver._oracle_tables.cache_info()
            assert (info.hits, info.misses, info.maxsize) == (len(budgets) - 1, 1, 1)

    def test_interleaved_pools_match_cold_calls(self):
        a, b = (gen_pool(SynthConfig(22, 0.2, 0.1, 0.05, 0.2, seed=seed)) for seed in (7, 8))
        for budget in (1.0, 2.0, 3.0):
            cold = [oracle_key(cold_oracle(pool, budget)) for pool in (a, b)]
            solver._oracle_tables.cache_clear()
            warm = [oracle_key(oracle(pool, budget)) for pool in (a, b, a)]
            assert warm == [*cold, cold[0]]
            # One pool is held, so each switch rebuilds.
            assert solver._oracle_tables.cache_info().misses == 3

    def test_a_pool_differing_in_one_requirement_misses(self):
        pool = gen_pool(SynthConfig(22, 0.2, 0.1, 0.05, 0.2, seed=1000))
        first = oracle(pool, 2.0)
        # Price one of the winner's members out of the budget: answered off
        # the stale tables, the winner could not change.
        dropped = min(first.member_ids)
        changed = [Juror(j.id, j.epsilon, 2.5) if j.id == dropped else j for j in pool]
        result = oracle(changed, 2.0)
        assert solver._oracle_tables.cache_info().misses == 2
        assert dropped not in result.member_ids
        assert oracle_key(result) == oracle_key(cold_oracle(changed, 2.0))

    def test_an_equal_pool_hits_and_returns_its_own_jurors(self):
        pool = gen_pool(SynthConfig(22, 0.2, 0.1, 0.05, 0.2, seed=1000))
        copy = [Juror(j.id, j.epsilon, j.requirement) for j in pool]
        first = oracle(pool, 2.0)
        again = oracle(copy, 2.0)
        assert solver._oracle_tables.cache_info().hits == 1
        assert oracle_key(again) == oracle_key(first)
        by_id = {j.id: j for j in copy}
        assert all(member is by_id[member.id] for member in again.jury.members)

    def test_memoised_arrays_are_read_only(self):
        order = tuple(sorted(gen_pool(SynthConfig(9, 0.2, 0.1, 0.05, 0.2, seed=3)), key=lambda j: j.id))
        pmf_a, cols_a, cost_a, cols_b, cost_b, tails_b, column, blocks = solver._oracle_tables(order)
        arrays = [pmf_a, *cols_a, cost_a, *cols_b, cost_b, tails_b, column]
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = 0
        assert isinstance(blocks, tuple)


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
