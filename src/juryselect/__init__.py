"""Jury selection for majority-voted decision tasks.

Pick the subset of unreliable voters whose majority vote is least likely
to be wrong, with or without a payment budget, and estimate voter quality
from a micro-blog retweet corpus.
"""

from .errors import (
    CorpusError,
    DegenerateScores,
    EmptyGraph,
    EmptyPool,
    EvenSize,
    InputFormatError,
    InvalidDistribution,
    InvalidJury,
    JurySelectError,
    NoAffordableJuror,
    SizeLimitExceeded,
)
from .estimate import (
    RankConfig,
    ScoreMap,
    UserGraph,
    ages_to_requirements,
    build_graph,
    hits,
    pagerank,
    rank_candidates,
    scores_to_error_rates,
)
from .experiments import ExperimentSpec, run_experiment
from .io import TweetRecord
from .jer import (
    BoundDiagnostics,
    Juror,
    Jury,
    WrongCountDistribution,
    clamp_epsilon,
    convolve,
    jer_cba,
    jer_dp,
    jer_from_distribution,
    jer_lower_bound,
    jer_naive,
    log_jer,
    wrong_count_distribution,
)
from .solver import (
    Budget,
    CandidatePool,
    ResultComparison,
    SolveResult,
    compare_results,
    solve_altrm,
    solve_oracle,
    solve_paym_greedy,
)
from .synth import SynthConfig, VoteOutcome, gen_pool, monte_carlo_jer, simulate_vote

__version__ = "0.1.0"

__all__ = [
    "BoundDiagnostics",
    "Budget",
    "CandidatePool",
    "CorpusError",
    "DegenerateScores",
    "EmptyGraph",
    "EmptyPool",
    "EvenSize",
    "ExperimentSpec",
    "InputFormatError",
    "InvalidDistribution",
    "InvalidJury",
    "Juror",
    "Jury",
    "JurySelectError",
    "NoAffordableJuror",
    "RankConfig",
    "ResultComparison",
    "ScoreMap",
    "SizeLimitExceeded",
    "SolveResult",
    "SynthConfig",
    "TweetRecord",
    "UserGraph",
    "VoteOutcome",
    "WrongCountDistribution",
    "ages_to_requirements",
    "build_graph",
    "clamp_epsilon",
    "compare_results",
    "convolve",
    "gen_pool",
    "hits",
    "jer_cba",
    "jer_dp",
    "jer_from_distribution",
    "jer_lower_bound",
    "jer_naive",
    "log_jer",
    "monte_carlo_jer",
    "pagerank",
    "rank_candidates",
    "run_experiment",
    "scores_to_error_rates",
    "simulate_vote",
    "solve_altrm",
    "solve_oracle",
    "solve_paym_greedy",
    "wrong_count_distribution",
]
