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
from juryselect.jer import DIRECT_CONVOLUTION_MAX, _advance, _cba, _convolve_mass, _empty_row

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


def one_juror_step(row, e):
    """The earlier kernel, kept as an independent reference: absorb one
    juror into every tail, P(W >= l) from P(W >= l) and P(W >= l - 1)."""
    row[2:] = np.logaddexp(row[2:] + math.log1p(-e), row[1:-1] + math.log(e))


def random_rate(rng):
    """An error rate, often at a clamp."""
    return float(rng.choice([1e-6, 1 - 1e-6, rng.uniform(1e-6, 1 - 1e-6)], p=[0.2, 0.2, 0.6]))


def random_row(rng):
    """A random jury's log tail row, built by the reference, and its size.
    Rows longer than the size plus four keep -inf tops."""
    size = int(rng.integers(0, 40))
    row = _empty_row(int(rng.integers(4, 50)))
    for _ in range(size):
        one_juror_step(row, random_rate(rng))
    return row, size


def assert_rows_close(got, want):
    assert np.array_equal(np.isneginf(got), np.isneginf(want))
    finite = ~np.isneginf(want)
    assert np.all(np.abs(got[finite] - want[finite]) <= 1e-14 * np.maximum(1.0, np.abs(want[finite])))


class TestAdvance:
    """The pair step against two one-juror steps of the earlier kernel."""

    def test_pair_step_matches_two_one_juror_steps(self):
        rng = np.random.default_rng(83)
        for _ in range(500):
            row, size = random_row(rng)
            a, b = random_rate(rng), random_rate(rng)
            want = row.copy()
            one_juror_step(want, a)
            one_juror_step(want, b)
            _advance(row, a, b, 2, min(size + 4, row.size), np.empty((3, row.size)))
            assert_rows_close(row, want)

    def test_pair_with_zero_absorbs_one_juror(self):
        rng = np.random.default_rng(89)
        for a in [1e-6, 1 - 1e-6, 0.5] + [random_rate(rng) for _ in range(200)]:
            row, want = _empty_row(4), _empty_row(4)
            _advance(row, a, 0.0, 2, 3, np.empty((3, 4)))
            one_juror_step(want, a)
            assert np.array_equal(row, want)
        for _ in range(300):
            row, size = random_row(rng)
            a = random_rate(rng)
            want = row.copy()
            one_juror_step(want, a)
            _advance(row, a, 0.0, 2, min(size + 3, row.size), np.empty((3, row.size)))
            assert_rows_close(row, want)

    def test_band_leaves_the_rest_of_the_row(self):
        rng = np.random.default_rng(97)
        row, size = random_row(rng)
        while size < 20 or row.size < size + 4:
            row, size = random_row(rng)
        before = row.copy()
        _advance(row, 0.3, 0.4, 7, 12, np.empty((3, row.size)))
        assert np.array_equal(row[:7], before[:7])
        assert np.array_equal(row[12:], before[12:])
        assert not np.array_equal(row[7:12], before[7:12])

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
