"""Core error-rate machinery: golden values, algorithm agreement, invariants.

Golden expectations were frozen from exact Fraction-based subset
enumeration; jer_naive reproduces that enumeration in float arithmetic
and serves as the oracle for the two fast algorithms.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from juryselect import (
    BoundDiagnostics,
    EvenSize,
    InvalidDistribution,
    InvalidJury,
    Juror,
    Jury,
    SizeLimitExceeded,
    WrongCountDistribution,
    convolve,
    jer_cba,
    jer_dp,
    jer_from_distribution,
    jer_lower_bound,
    jer_naive,
    log_jer,
    wrong_count_distribution,
)
from juryselect import jer as jer_module
from juryselect.jer import (
    BLOCK,
    DIRECT_CONVOLUTION_MAX,
    PairGrower,
    _advance,
    _cba,
    _convolve_mass,
    _tail_row,
    odd_prefix_tails,
)

from conftest import random_jury_epsilons

# (epsilons, exact tail probability) frozen from Fraction enumeration.
GOLDEN = [
    ([0.2], 0.2),
    ([0.1], 0.1),
    ([0.3], 0.3),
    ([0.5, 0.5, 0.5], 0.5),
    ([0.2, 0.3, 0.3], 0.174),
    ([0.1, 0.2, 0.2], 0.072),
    ([0.2, 0.2, 0.3], 0.136),
    ([0.1, 0.2, 0.2, 0.3, 0.3], 0.07036),
    ([0.1, 0.2, 0.2, 0.4, 0.4], 0.10384),
    ([0.1, 0.2, 0.2, 0.3, 0.3, 0.4, 0.4], 0.085248),
]

epsilon_lists = st.lists(st.floats(0.01, 0.99), min_size=1, max_size=9).filter(
    lambda eps: len(eps) % 2 == 1
)


class TestJuror:
    def test_epsilon_clamped_to_open_interval(self):
        assert Juror("a", 0.0).epsilon == 1e-6
        assert Juror("a", 1.0).epsilon == 1 - 1e-6
        assert Juror("a", -3.0).epsilon == 1e-6
        assert Juror("a", 0.25).epsilon == 0.25

    def test_negative_requirement_rejected(self):
        with pytest.raises(ValueError):
            Juror("a", 0.2, requirement=-0.1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_values_rejected(self, value):
        with pytest.raises(ValueError, match="epsilon must be finite"):
            Juror("a", value)
        with pytest.raises(ValueError, match="requirement must be finite"):
            Juror("a", 0.2, requirement=value)


class TestJury:
    def test_even_size_rejected(self):
        with pytest.raises(InvalidJury):
            Jury.from_epsilons([0.1, 0.2])

    def test_empty_rejected(self):
        with pytest.raises(InvalidJury):
            Jury(())

    def test_duplicate_ids_rejected(self):
        with pytest.raises(InvalidJury):
            Jury((Juror("a", 0.1), Juror("a", 0.2), Juror("b", 0.3)))


@pytest.mark.parametrize("eps,expected", GOLDEN)
def test_golden_values_all_algorithms(eps, expected):
    jury = Jury.from_epsilons(eps)
    assert jer_naive(jury) == pytest.approx(expected, abs=1e-9)
    assert jer_dp(jury) == pytest.approx(expected, abs=1e-9)
    assert jer_cba(jury) == pytest.approx(expected, abs=1e-9)


class TestJerNaive:
    def test_size_cap(self):
        with pytest.raises(SizeLimitExceeded):
            jer_naive(Jury.from_epsilons([0.4] * 27))

    def test_even_jury_rejected(self):
        with pytest.raises(InvalidJury):
            jer_naive([Juror("a", 0.2), Juror("b", 0.2)])

    def test_single_juror_is_epsilon(self):
        assert jer_naive(Jury.from_epsilons([0.3])) == pytest.approx(0.3)


class TestJerDp:
    def test_matches_naive_on_random_juries(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            eps = random_jury_epsilons(rng, max_n=13)
            jury = Jury.from_epsilons(eps)
            assert abs(jer_dp(jury) - jer_naive(jury)) <= 1e-9

    def test_large_jury_in_range(self):
        rng = np.random.default_rng(5)
        jury = Jury.from_epsilons(rng.uniform(0.01, 0.99, 1001))
        assert 0.0 <= jer_dp(jury) <= 1.0

    def test_near_certain_error_stays_a_probability(self):
        # Rounding in the log row can lift a tail near 1 above log 1.
        rng = np.random.default_rng(0)
        for _ in range(100):
            jury = Jury.from_epsilons(rng.uniform(0.9, 1.0, int(rng.integers(0, 100)) * 2 + 1))
            assert log_jer(jury) <= 0.0
            assert jer_dp(jury) <= 1.0

    def test_non_juror_member_rejected(self):
        with pytest.raises(InvalidJury):
            jer_dp([Juror("a", 0.2), 0.3, Juror("c", 0.4)])


def one_juror_step(row, e):
    """The earlier kernel, kept as an independent reference: absorb one
    juror into every tail T(l), l >= 1, from T(l) and T(l - 1)."""
    row[BLOCK + 1 :] = np.logaddexp(row[BLOCK + 1 :] + math.log1p(-e), row[BLOCK:-1] + math.log(e))


def random_rate(rng):
    """An error rate, often at a clamp."""
    return float(rng.choice([1e-6, 1 - 1e-6, rng.uniform(1e-6, 1 - 1e-6)], p=[0.2, 0.2, 0.6]))


def row_of(rng, size, top):
    """The log tail row of ``size`` random jurors, built by the reference
    from the empty jury's row, laid out as ``_tail_row(e, top)``: tails
    -BLOCK through ``top`` + BLOCK.  Tails above the size stay -inf."""
    row = np.full(2 * BLOCK + top + 1, -np.inf)
    row[: BLOCK + 1] = 0.0
    for _ in range(size):
        one_juror_step(row, random_rate(rng))
    return row


def random_row(rng):
    """A random jury's log tail row, and its size and top tail."""
    size = int(rng.integers(0, 40))
    top = int(rng.integers(2, 48))
    return row_of(rng, size, top), size, top


def to_top(row):
    """Tails -BLOCK through the row's top: its BLOCK spare tails past the
    top are inputs of a step, which the reference updates and a step
    leaves alone."""
    return row[:-BLOCK]


def group_pmf(rates):
    """Wrong-count pmf of a group, one juror at a time."""
    pmf = np.ones(1)
    for e in rates:
        pmf = np.convolve(pmf, [1.0 - e, e])
    return pmf


def assert_rows_close(got, want):
    assert np.array_equal(np.isneginf(got), np.isneginf(want))
    finite = ~np.isneginf(want)
    assert np.all(np.abs(got[finite] - want[finite]) <= 1e-14 * np.maximum(1.0, np.abs(want[finite])))


def assert_group_step_matches_one_juror_steps(rng, m, trials):
    for _ in range(trials):
        row, size, top = random_row(rng)
        rates = [random_rate(rng) for _ in range(m)]
        want = row.copy()
        for e in rates:
            one_juror_step(want, e)
        _advance(row, group_pmf(rates), 1, min(size + m, top) + 1)
        assert_rows_close(to_top(row), to_top(want))


def assert_band_step_matches_one_juror_steps(rng, size, top, m, lo):
    """Advance ``size`` random jurors' row by m more on tails ``lo``
    through min(size + m, top): the band matches one-juror steps, and the
    rest of the row keeps its values.  Returns the row before and after,
    the pmf and the band's end."""
    before = row_of(rng, size, top)
    rates = [random_rate(rng) for _ in range(m)]
    want = before.copy()
    for e in rates:
        one_juror_step(want, e)
    row, q, hi = before.copy(), group_pmf(rates), min(size + m, top) + 1
    _advance(row, q, lo, hi)
    assert_rows_close(row[BLOCK + lo : BLOCK + hi], want[BLOCK + lo : BLOCK + hi])
    assert np.array_equal(row[: BLOCK + lo], before[: BLOCK + lo])
    assert np.array_equal(row[BLOCK + hi :], before[BLOCK + hi :])
    return before, row, q, hi


class TestAdvance:
    """The group step against one-juror steps of the earlier kernel."""

    def test_pair_step_matches_two_one_juror_steps(self):
        assert_group_step_matches_one_juror_steps(np.random.default_rng(83), 2, 500)

    @pytest.mark.parametrize("m", [1, BLOCK])
    def test_group_step_matches_one_juror_steps(self, m):
        assert_group_step_matches_one_juror_steps(np.random.default_rng(79 + m), m, 300)

    def test_tail_row_holds_one_juror(self):
        for top in (1, 2, BLOCK, 3 * BLOCK + 5):
            for e in (1e-6, 0.3, 1 - 1e-6):
                want = row_of(np.random.default_rng(0), 0, top)
                one_juror_step(want, e)
                assert np.array_equal(_tail_row(e, top), want)

    def test_pair_with_zero_absorbs_one_juror(self):
        # A pair whose second rate is 0 weighs its top term by 0.
        rng = np.random.default_rng(89)
        for _ in range(300):
            row, size, top = random_row(rng)
            a = random_rate(rng)
            want = row.copy()
            one_juror_step(want, a)
            _advance(row, np.array([1.0 - a, a, 0.0]), 1, min(size + 1, top) + 1)
            assert_rows_close(to_top(row), to_top(want))

    def test_band_leaves_the_rest_of_the_row(self):
        rng = np.random.default_rng(97)
        row, size, top = random_row(rng)
        while size < 20 or top < size + 2:
            row, size, top = random_row(rng)
        before = row.copy()
        _advance(row, group_pmf([0.3, 0.4]), 6, 11)
        assert np.array_equal(row[: BLOCK + 6], before[: BLOCK + 6])
        assert np.array_equal(row[BLOCK + 11 :], before[BLOCK + 11 :])
        assert not np.array_equal(row[BLOCK + 6 : BLOCK + 11], before[BLOCK + 6 : BLOCK + 11])

    @pytest.mark.parametrize("m", [1, 2, BLOCK])
    def test_top_chunk_past_the_size(self, m):
        # The top chunk's first tail, T(BLOCK c), is log 0 before the
        # step; its reference, T(BLOCK c - BLOCK), is not, and depends on
        # no band: the tails are bit for bit those of a band cut short
        # anywhere in the chunk.
        rng = np.random.default_rng(103 + m)
        sizes = [s for s in range(3 * BLOCK) if (s + m) // BLOCK * BLOCK > s]
        assert sizes
        for size in sizes:
            before, row, q, hi = assert_band_step_matches_one_juror_steps(rng, size, size + m + BLOCK, m, 1)
            for cut in range((hi - 1) // BLOCK * BLOCK + 1, hi):
                short = before.copy()
                _advance(short, q, 1, cut)
                assert np.array_equal(short[: BLOCK + cut], row[: BLOCK + cut])

    @pytest.mark.parametrize("m", [1, 2, BLOCK])
    def test_band_starting_inside_a_chunk(self, m):
        # A band that starts mid-chunk still scales by the chunk's own
        # reference, below the band, so its tails are the whole row's
        # bit for bit.
        rng = np.random.default_rng(107 + m)
        for lo in (1, 5, 15, 17, 23, 31, 33, 40):
            before, row, q, hi = assert_band_step_matches_one_juror_steps(rng, 3 * BLOCK, 4 * BLOCK, m, lo)
            _advance(before, q, 1, hi)
            assert np.array_equal(row[BLOCK + lo : BLOCK + hi], before[BLOCK + lo : BLOCK + hi])

    @pytest.mark.parametrize("m", [1, 2, BLOCK])
    def test_window_past_the_row_end(self, m):
        # The top chunk's inputs reach past the row's top tail, which is
        # not the last of a chunk, into its spare tails; they stay log 0.
        rng = np.random.default_rng(109 + m)
        for size in range(0, 3 * BLOCK, 3):
            if (size + m) % BLOCK != BLOCK - 1:
                _, row, _, _ = assert_band_step_matches_one_juror_steps(rng, size, size + m, m, 1)
                assert np.all(np.isneginf(row[-BLOCK:]))

    def test_log_jer_matches_mpmath(self):
        # The rate itself, to 1e-13 relative, from a 40-digit recurrence.
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(101)
        for _ in range(24):
            jury = Jury.from_epsilons([random_rate(rng) for _ in range(int(rng.integers(0, 100)) * 2 + 1)])
            t = (jury.size + 1) // 2
            with mpmath.workdps(40):
                row = [mpmath.mpf(1)] + [mpmath.mpf(0)] * t
                for k, e in enumerate(jury.epsilons.tolist(), start=1):
                    for level in range(min(k, t), 0, -1):
                        row[level] = row[level] * (1 - e) + row[level - 1] * e
                assert abs(log_jer(jury) - mpmath.log(row[t])) <= 1e-13


def mpmath_log_tails(eps, digits=60):
    """log P(W_k >= (k + 1) / 2) of every odd prefix k, from the
    all-positive one-juror recurrence in ``digits``-digit arithmetic."""
    mpmath = pytest.importorskip("mpmath")
    tails = {}
    with mpmath.workdps(digits):
        row = [mpmath.mpf(1)] + [mpmath.mpf(0)] * len(eps)
        for k, e in enumerate(eps, start=1):
            for level in range(k, 0, -1):
                row[level] = row[level] * (1 - e) + row[level - 1] * e
            if k % 2:
                tails[k] = float(mpmath.log(row[(k + 1) // 2]))
    return tails


def per_entry_advance(row, q, lo, hi):
    """The group step with one reference per tail, T(l - m), and m + 1
    exps per tail: T(l) becomes T(l - m) + log sum_s q[s] exp(T(l - s) -
    T(l - m))."""
    m = q.size - 1
    view = np.ndarray((m + 1, hi - lo), buffer=row, offset=(lo + BLOCK) * 8, strides=(-8, 8))
    row[lo + BLOCK : hi + BLOCK] = view[m] + np.log(q @ np.exp(view - view[m]))


class TestOddPrefixTails:
    """The block scan: reads inside a block, advances at its boundaries."""

    @pytest.mark.parametrize("n", [1, 3, 15, 17, 19, 31, 33, 35, 49, 301])
    def test_every_prefix_reads_log_jer_bit_for_bit(self, n):
        # Each prefix's tail, read off the row of its block, is the one
        # log_jer gets from the scan of that prefix alone.
        rng = np.random.default_rng(n)
        eps = [random_rate(rng) if rng.random() < 0.3 else float(rng.uniform(0.01, 0.6)) for _ in range(n)]
        tails = list(odd_prefix_tails(eps))
        assert [k for k, _ in tails] == list(range(1, n + 1, 2))
        for k, tail in tails:
            assert log_jer(Jury.from_epsilons(eps[:k])) == min(tail, 0.0)

    @pytest.mark.parametrize(
        "eps",
        [[1e-6] * 301, [1 - 1e-6] * 301, [1e-6] * 150 + [1 - 1e-6] * 151, [1e-6, 1 - 1e-6] * 150 + [1e-6]],
        ids=["all-low", "all-high", "low-then-high", "alternating"],
    )
    def test_clamped_pools_match_mpmath(self, eps):
        # Group weights as small as 1e-96 and tails far below the float
        # floor: every prefix within 1e-13, relative past 1 in magnitude.
        want = mpmath_log_tails(eps)
        for k, tail in odd_prefix_tails(eps):
            assert abs(tail - want[k]) <= 1e-13 * max(1.0, abs(want[k]))

    @pytest.mark.parametrize(
        "eps",
        [[1e-6] * 3001, [1e-6, 1 - 1e-6] * 1500 + [1e-6], [1e-6] * 1500 + [1 - 1e-6] * 1501],
        ids=["all-low", "alternating", "low-then-high"],
    )
    def test_every_prefix_matches_the_per_entry_step(self, eps, monkeypatch):
        # Chunk inputs 2 BLOCK - 1 indices from their reference and tails
        # down to e^-18,661: within 1e-14, relative past 1 in magnitude.
        # Not 1e-13: a step that adds its reference back after the log,
        # without dividing by U(l - m), is off by 1.6e-14 on low-then-high.
        got = list(odd_prefix_tails(eps))
        monkeypatch.setattr(jer_module, "_advance", per_entry_advance)
        want = list(odd_prefix_tails(eps))
        assert [k for k, _ in got] == [k for k, _ in want]
        for (_, tail), (_, ref) in zip(got, want):
            assert abs(tail - ref) <= 1e-14 * max(1.0, abs(ref))


RATE_DRAWS = {
    "moderate": lambda rng: float(rng.uniform(0.01, 0.6)),
    "low": lambda rng: float(rng.uniform(1e-6, 1e-3)),
    "high": lambda rng: float(rng.uniform(1 - 1e-3, 1 - 1e-6)),
    "full": lambda rng: float(rng.uniform(1e-6, 1 - 1e-6)),
    "clamped": random_rate,
}


class TestPairGrower:
    """The greedy's pricing state against log_jer of each jury it prices."""

    @pytest.mark.parametrize("draw", list(RATE_DRAWS), ids=list(RATE_DRAWS))
    def test_price_and_tail_match_log_jer(self, draw):
        # Juries of up to 119 jurors, across seven BLOCK boundaries, on
        # rows topped at or above the largest jury's threshold, as the
        # greedy's pool sets it.  Two trial pairs per admission, each
        # priced within 1e-14 of log_jer, relative past 1 in magnitude.
        rng = np.random.default_rng(113 + len(draw))
        checks = 0
        for _ in range(3):
            eps = [RATE_DRAWS[draw](rng) for _ in range(119)]
            grower = PairGrower(eps[0], 60 + int(rng.integers(0, 40)))
            assert grower.log_tail() == log_jer(Jury.from_epsilons(eps[:1]))
            for k in range(1, len(eps), 2):
                for _ in range(2):
                    a, b = RATE_DRAWS[draw](rng), RATE_DRAWS[draw](rng)
                    want = log_jer(Jury.from_epsilons(eps[:k] + [a, b]))
                    assert abs(grower.price(a, b) - want) <= 1e-14 * max(1.0, abs(want))
                    checks += 1
                grower.admit(eps[k], eps[k + 1])
                assert grower.log_tail() == log_jer(Jury.from_epsilons(eps[: k + 2]))
        assert checks == 3 * 59 * 2


class TestConvolve:
    def test_hand_expanded_product(self):
        out = convolve([0.7, 0.3], [0.4, 0.6])
        assert np.allclose(out.mass, [0.28, 0.54, 0.18], atol=1e-12)

    def test_identity_element(self):
        d = wrong_count_distribution(Jury.from_epsilons([0.2, 0.3, 0.3]))
        out = convolve([1.0], d)
        assert np.allclose(out.mass, d.mass, atol=1e-12)

    def test_two_fair_coins(self):
        out = convolve([0.5, 0.5], [0.5, 0.5])
        assert np.allclose(out.mass, [0.25, 0.5, 0.25], atol=1e-12)

    def test_direct_and_fft_paths_agree(self):
        rng = np.random.default_rng(3)
        for size in (DIRECT_CONVOLUTION_MAX + 1, 200):
            a = rng.random(size)
            a /= a.sum()
            b = rng.random(size)
            b /= b.sum()
            direct = np.convolve(a, b)
            fft = _convolve_mass(a, b)
            assert np.abs(direct - fft).max() <= 1e-9

    @given(epsilon_lists, epsilon_lists)
    @settings(max_examples=60, deadline=None)
    def test_commutative(self, eps_a, eps_b):
        a = wrong_count_distribution(Jury.from_epsilons(eps_a))
        b = wrong_count_distribution(Jury.from_epsilons(eps_b))
        assert np.abs(convolve(a, b).mass - convolve(b, a).mass).max() <= 1e-9

    @given(epsilon_lists, epsilon_lists, epsilon_lists)
    @settings(max_examples=60, deadline=None)
    def test_associative(self, eps_a, eps_b, eps_c):
        a = wrong_count_distribution(Jury.from_epsilons(eps_a))
        b = wrong_count_distribution(Jury.from_epsilons(eps_b))
        c = wrong_count_distribution(Jury.from_epsilons(eps_c))
        left = convolve(convolve(a, b), c)
        right = convolve(a, convolve(b, c))
        assert np.abs(left.mass - right.mass).max() <= 1e-9


class TestWrongCountDistribution:
    def test_single_juror_base_case(self):
        d = wrong_count_distribution([Juror("a", 0.3)])
        assert np.allclose(d.mass, [0.7, 0.3], atol=1e-15)

    def test_three_jurors_hand_expansion(self):
        d = wrong_count_distribution(Jury.from_epsilons([0.2, 0.3, 0.3]))
        assert np.allclose(d.mass, [0.392, 0.434, 0.156, 0.018], atol=1e-12)

    def test_iid_fair_case_is_binomial(self):
        d = wrong_count_distribution(Jury.from_epsilons([0.5] * 5))
        assert np.allclose(d.mass, np.array([1, 5, 10, 10, 5, 1]) / 32, atol=1e-12)

    def test_even_subgroup_accepted(self):
        d = wrong_count_distribution([Juror("a", 0.2), Juror("b", 0.4)])
        assert np.allclose(d.mass, [0.48, 0.44, 0.08], atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(InvalidJury):
            wrong_count_distribution([])

    def test_mass_sums_to_one_up_to_large_sizes(self):
        rng = np.random.default_rng(17)
        for n in (999, 10_001, 100_001):
            jury = Jury.from_epsilons(rng.uniform(0.01, 0.99, n))
            d = wrong_count_distribution(jury)
            assert abs(float(d.mass.sum()) - 1.0) <= 1e-6

    def test_negative_residue_clamped(self):
        d = WrongCountDistribution(np.array([0.5, -1e-10, 0.5 + 1e-10]))
        assert d.mass[1] == 0.0

    def test_negative_beyond_tolerance_rejected(self):
        with pytest.raises(InvalidDistribution):
            WrongCountDistribution(np.array([0.6, -1e-6, 0.4]))

    def test_bad_total_rejected(self):
        with pytest.raises(InvalidDistribution):
            WrongCountDistribution(np.array([0.5, 0.4]))

    @pytest.mark.parametrize(
        "mass, message",
        [
            ([], "non-empty 1-d"),
            ([[0.5, 0.5]], "non-empty 1-d"),
            ([0.5, np.nan, 0.5], "finite"),
            ([0.0, 1.0 + 1e-6], "above"),
        ],
        ids=["empty", "2-d", "nan", "above-one"],
    )
    def test_malformed_mass_rejected(self, mass, message):
        with pytest.raises(InvalidDistribution, match=message):
            WrongCountDistribution(np.array(mass))


class TestJerFromDistribution:
    def test_tail_of_three_juror_mass(self):
        d = WrongCountDistribution(np.array([0.392, 0.434, 0.156, 0.018]))
        assert jer_from_distribution(d) == pytest.approx(0.174, abs=1e-12)

    def test_single_juror_tail_is_epsilon(self):
        assert jer_from_distribution(WrongCountDistribution(np.array([0.7, 0.3]))) == pytest.approx(0.3)

    def test_seven_juror_misprinted_row(self):
        d = wrong_count_distribution(Jury.from_epsilons([0.1, 0.2, 0.2, 0.3, 0.3, 0.4, 0.4]))
        assert jer_from_distribution(d) == pytest.approx(0.085248, abs=1e-9)

    def test_even_size_rejected(self):
        with pytest.raises(EvenSize):
            jer_from_distribution(WrongCountDistribution(np.array([0.48, 0.44, 0.08])))


class TestJerLowerBound:
    def test_bound_inside_window(self):
        diag = jer_lower_bound(Jury.from_epsilons([0.8, 0.8, 0.8]))
        assert diag.mu == pytest.approx(2.4)
        assert diag.sigma_sq == pytest.approx(0.48)
        assert diag.gamma == pytest.approx(2 / 2.4)
        assert diag.bound == pytest.approx(0.25, abs=1e-9)
        assert jer_dp(Jury.from_epsilons([0.8, 0.8, 0.8])) == pytest.approx(0.896, abs=1e-9)

    def test_no_bound_outside_window(self):
        diag = jer_lower_bound(Jury.from_epsilons([0.3, 0.3, 0.3]))
        assert diag.gamma > 1.0
        assert diag.bound is None

    def test_iid_high_error_case(self):
        diag = jer_lower_bound(Jury.from_epsilons([0.9] * 5))
        assert diag.gamma == pytest.approx(2 / 3)
        assert diag.bound == pytest.approx(5 / 6, abs=1e-9)
        assert jer_dp(Jury.from_epsilons([0.9] * 5)) == pytest.approx(0.99144, abs=1e-9)

    def test_returns_diagnostics_type(self):
        assert isinstance(jer_lower_bound(Jury.from_epsilons([0.7])), BoundDiagnostics)


class TestCrossAlgorithmInvariants:
    def test_equivalence_on_random_juries(self):
        rng = np.random.default_rng(23)
        for _ in range(150):
            jury = Jury.from_epsilons(random_jury_epsilons(rng))
            naive = jer_naive(jury)
            assert abs(naive - jer_dp(jury)) <= 1e-9
            assert abs(naive - jer_cba(jury)) <= 1e-6
            assert 0.0 <= naive <= 1.0

    def test_bound_below_jer_when_present(self):
        rng = np.random.default_rng(29)
        checked = 0
        while checked < 300:
            n = int(rng.integers(1, 8)) * 2 + 1
            jury = Jury.from_epsilons(rng.uniform(0.5, 0.99, n))
            diag = jer_lower_bound(jury)
            if diag.bound is None:
                continue
            assert diag.bound <= jer_dp(jury) + 1e-9
            checked += 1

    @given(epsilon_lists, st.integers(0, 8), st.floats(0.01, 0.99))
    @settings(max_examples=100, deadline=None)
    def test_lowering_a_member_epsilon_never_raises_jer(self, eps, pick, factor):
        jury = Jury.from_epsilons(eps)
        index = pick % len(eps)
        lowered = list(eps)
        lowered[index] = lowered[index] * factor
        assert jer_dp(Jury.from_epsilons(lowered)) <= jer_dp(jury) + 1e-12
