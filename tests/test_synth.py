"""Synthetic pools and the Monte-Carlo cross-check of the analytic error rate."""

import numpy as np
import pytest

from juryselect import (
    Jury,
    SynthConfig,
    gen_pool,
    jer_dp,
    monte_carlo_jer,
    simulate_vote,
)


class TestSynthConfig:
    def test_bad_pool_size(self):
        with pytest.raises(ValueError):
            SynthConfig(0, 0.2, 0.1)

    def test_bad_stddev(self):
        with pytest.raises(ValueError):
            SynthConfig(5, 0.2, -0.1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "field", ["epsilon_mean", "epsilon_stddev", "requirement_mean", "requirement_stddev"]
    )
    def test_non_finite_field_named(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            SynthConfig(5, **{"epsilon_mean": 0.2, "epsilon_stddev": 0.1, field: value})


class TestGenPool:
    def test_same_seed_same_pool(self):
        config = SynthConfig(50, 0.3, 0.1, 0.4, 0.2, seed=99)
        first = gen_pool(config)
        second = gen_pool(config)
        assert first == second

    def test_different_seed_different_pool(self):
        base = SynthConfig(50, 0.3, 0.1, seed=1)
        other = SynthConfig(50, 0.3, 0.1, seed=2)
        assert gen_pool(base) != gen_pool(other)

    def test_zero_stddev_degenerates(self):
        pool = gen_pool(SynthConfig(10, 0.3, 0.0, seed=5))
        assert all(j.epsilon == 0.3 for j in pool)

    def test_ids_are_zero_padded_sequence(self):
        pool = gen_pool(SynthConfig(3, 0.3, 0.1, seed=5))
        assert [j.id for j in pool] == ["j000000", "j000001", "j000002"]

    def test_clamping_keeps_values_legal(self):
        pool = gen_pool(SynthConfig(2000, 0.05, 0.4, requirement_mean=0.0, requirement_stddev=0.5, seed=7))
        for juror in pool:
            assert 1e-6 <= juror.epsilon <= 1 - 1e-6
            assert juror.requirement >= 0.0
        # Each epsilon is its own draw, clamped once rather than resampled.
        draws = np.random.default_rng(7).normal(0.05, 0.4, 2000)
        assert [j.epsilon for j in pool] == [min(max(d, 1e-6), 1 - 1e-6) for d in draws.tolist()]

    def test_sample_mean_near_target(self):
        pool = gen_pool(SynthConfig(1000, 0.2, 0.05, seed=13))
        eps = np.array([j.epsilon for j in pool])
        # 4 standard errors of the mean: 4 * 0.05 / sqrt(1000) < 0.01
        assert abs(eps.mean() - 0.2) <= 0.01


class TestSimulateVote:
    def test_single_juror_decision_is_their_vote(self):
        jury = Jury.from_epsilons([0.4])
        for seed in range(20):
            outcome = simulate_vote(jury, 1, seed)
            assert outcome.decision == outcome.votes[0]

    def test_floor_epsilon_jury_is_nearly_deterministic(self):
        jury = Jury.from_epsilons([0.0, 0.0, 0.0])  # clamped to 1e-6 each
        assert all(simulate_vote(jury, 1, seed).decision == 1 for seed in range(50))

    def test_decision_flips_exactly_at_majority_wrong(self):
        jury = Jury.from_epsilons([0.3, 0.5, 0.7, 0.6, 0.2])
        threshold = (jury.size + 1) // 2
        for seed in range(200):
            for truth in (0, 1):
                outcome = simulate_vote(jury, truth, seed)
                assert (outcome.decision != truth) == (outcome.wrong_count >= threshold)
                assert outcome.wrong_count == sum(v != truth for v in outcome.votes)

    def test_bad_ground_truth(self):
        with pytest.raises(ValueError):
            simulate_vote(Jury.from_epsilons([0.3]), 2, 0)


class TestMonteCarloJer:
    def test_tracks_analytic_value(self):
        jury = Jury.from_epsilons([0.2, 0.3, 0.3])
        estimate, _ = monte_carlo_jer(jury, 10**6, seed=123)
        sigma = np.sqrt(0.174 * (1 - 0.174) / 10**6)
        assert abs(estimate - 0.174) <= 4 * sigma

    def test_symmetric_case(self):
        estimate, _ = monte_carlo_jer(Jury.from_epsilons([0.5, 0.5, 0.5]), 10**5, seed=7)
        sigma = np.sqrt(0.25 / 10**5)
        assert abs(estimate - 0.5) <= 4 * sigma

    def test_single_trial_is_binary(self):
        estimate, std_error = monte_carlo_jer(Jury.from_epsilons([0.5, 0.5, 0.5]), 1, seed=3)
        assert estimate in (0.0, 1.0)
        assert std_error == 0.0

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            monte_carlo_jer(Jury.from_epsilons([0.2, 0.3, 0.3]), 0, seed=1)

    def test_deterministic_per_seed(self):
        jury = Jury.from_epsilons([0.2, 0.4, 0.6])
        assert monte_carlo_jer(jury, 5000, 42) == monte_carlo_jer(jury, 5000, 42)

    def test_chunking_invisible_to_results(self):
        # A jury wide enough to force several internal chunks.
        jury = Jury.from_epsilons(np.linspace(0.1, 0.9, 4097))
        small, _ = monte_carlo_jer(jury, 3000, 11)
        assert 0.0 <= small <= 1.0

    def test_agrees_with_dp_across_seeds(self):
        rng = np.random.default_rng(77)
        misses = 0
        for trial_seed in range(10):
            eps = rng.uniform(0.05, 0.95, 5)
            jury = Jury.from_epsilons(eps)
            analytic = jer_dp(jury)
            estimate, _ = monte_carlo_jer(jury, 10**4, seed=trial_seed)
            sigma = np.sqrt(analytic * (1 - analytic) / 10**4)
            if abs(estimate - analytic) > 4 * sigma:
                misses += 1
        assert misses <= 1

    def test_fifty_seed_sweep_stays_within_four_sigma(self):
        # 4 sigma two-sided is ~6e-5 per seed, so all 50 fixed seeds land
        # inside; a regression in the simulator or the tail math shows up
        # as a burst of misses, not one unlucky draw.
        jury = Jury.from_epsilons([0.15, 0.3, 0.45, 0.3, 0.2])
        analytic = jer_dp(jury)
        sigma = np.sqrt(analytic * (1 - analytic) / 10**5)
        for seed in range(50):
            estimate, _ = monte_carlo_jer(jury, 10**5, seed=seed)
            assert abs(estimate - analytic) <= 4 * sigma
