"""Synthetic candidate pools and a Monte-Carlo check of the analytic error rate."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .jer import Juror, JuryLike, jury_epsilons
from .solver import CandidatePool


@dataclass(frozen=True)
class SynthConfig:
    """Normal-distribution recipe for one synthetic pool.

    Means and standard deviations (not variances) must be finite.  Draws
    are clamped afterwards (error rates into [1e-6, 1 - 1e-6] by ``Juror``,
    payment requirements at 0) rather than resampled.
    """

    pool_size: int
    epsilon_mean: float
    epsilon_stddev: float
    requirement_mean: float = 0.0
    requirement_stddev: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        for name in ("epsilon_mean", "epsilon_stddev", "requirement_mean", "requirement_stddev"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.epsilon_stddev < 0 or self.requirement_stddev < 0:
            raise ValueError("standard deviations must be >= 0")


@dataclass(frozen=True)
class VoteOutcome:
    """One sampled voting: per-juror ballots, the majority decision, and
    how many jurors contradicted the ground truth."""

    votes: tuple[int, ...]
    decision: int
    wrong_count: int


def gen_pool(config: SynthConfig) -> CandidatePool:
    """Draw a candidate pool; identical (config, seed) gives identical pools."""
    rng = np.random.default_rng(config.seed)
    eps = rng.normal(config.epsilon_mean, config.epsilon_stddev, config.pool_size)
    req = rng.normal(config.requirement_mean, config.requirement_stddev, config.pool_size)
    req = np.clip(req, 0.0, None)
    jurors = tuple(
        Juror(f"j{i:06d}", float(e), float(r)) for i, (e, r) in enumerate(zip(eps, req))
    )
    return CandidatePool(jurors)


def simulate_vote(jury: JuryLike, ground_truth: int, seed: int) -> VoteOutcome:
    """Sample one voting: each juror flips the truth with their own error rate."""
    if ground_truth not in (0, 1):
        raise ValueError("ground_truth must be 0 or 1")
    eps = jury_epsilons(jury)
    rng = np.random.default_rng(seed)
    flipped = rng.random(eps.size) < eps
    votes = np.where(flipped, 1 - ground_truth, ground_truth)
    decision = 1 if int(votes.sum()) >= (eps.size + 1) // 2 else 0
    return VoteOutcome(
        votes=tuple(int(v) for v in votes),
        decision=decision,
        wrong_count=int(flipped.sum()),
    )


def monte_carlo_jer(jury: JuryLike, trials: int, seed: int) -> tuple[float, float]:
    """Empirical jury error rate over independent simulated votings.

    Returns (estimate, standard error) with the usual binomial standard
    error sqrt(p(1-p)/trials).  Which ground truth is voted on does not
    matter: a juror errs with the same probability either way.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    eps = jury_epsilons(jury)
    n = eps.size
    threshold = (n + 1) // 2
    rng = np.random.default_rng(seed)
    failures = 0
    chunk_rows = max(1, (1 << 22) // n)
    done = 0
    while done < trials:
        rows = min(chunk_rows, trials - done)
        wrong = (rng.random((rows, n)) < eps).sum(axis=1)
        failures += int((wrong >= threshold).sum())
        done += rows
    estimate = failures / trials
    std_error = math.sqrt(estimate * (1.0 - estimate) / trials)
    return estimate, std_error
