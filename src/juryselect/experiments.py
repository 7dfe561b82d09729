"""Declarative experiment suites over the selection algorithms.

A spec file (JSON) names one experiment kind plus its parameter grid;
running it produces one CSV whose columns are the axes of the matching
figure-style plot.  Grid points are independent solver calls; results are
always written in grid order.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InputFormatError
from .estimate import RankConfig, build_graph, hits, pagerank, scores_to_error_rates, ages_to_requirements
from .io import read_corpus
from .jer import Juror
from .solver import compare_results, solve_altrm, solve_oracle, solve_paym_greedy
from .synth import SynthConfig, gen_pool

EXPERIMENT_KINDS = (
    "altrm-traits",
    "altrm-timing",
    "paym-traits",
    "paym-effectiveness",
    "rank-and-select",
)

_REQUIRED_PARAMS = {
    "altrm-traits": ("pool_size", "epsilon_means", "epsilon_stddevs"),
    "altrm-timing": ("pool_sizes", "epsilon_mean", "epsilon_stddevs"),
    "paym-traits": (
        "pool_size",
        "epsilon_mean",
        "epsilon_stddev",
        "requirement_means",
        "requirement_stddev",
        "budgets",
    ),
    "paym-effectiveness": (
        "pool_size",
        "epsilon_mean",
        "epsilon_stddevs",
        "requirement_mean",
        "requirement_stddev",
        "budgets",
    ),
    "rank-and-select": ("corpus", "methods", "budget_fractions"),
}
_OPTIONAL_PARAMS = {"rank-and-select": ("top_k", "damping", "alpha", "beta")}

# Grid axes are lists of numbers and the other numeric parameters are
# scalars; the counts among them must be integers.
_GRID_AXES = (
    "epsilon_means",
    "epsilon_stddevs",
    "pool_sizes",
    "requirement_means",
    "budgets",
    "budget_fractions",
)
_SCALARS = (
    "pool_size",
    "epsilon_mean",
    "epsilon_stddev",
    "requirement_mean",
    "requirement_stddev",
    "top_k",
    "damping",
    "alpha",
    "beta",
)
_COUNTS = ("pool_size", "pool_sizes", "top_k")


def _fits(key: str, value) -> bool:
    """Whether ``value`` is a finite number, and an integer where ``key`` is a count."""
    kinds = int if key in _COUNTS else (int, float)
    return isinstance(value, kinds) and not isinstance(value, bool) and math.isfinite(value)


_NEEDS_SEEDS = ("altrm-traits", "altrm-timing", "paym-traits", "paym-effectiveness")


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment kind, its parameter grid, seeds and output path."""

    kind: str
    params: dict
    seeds: tuple[int, ...] = ()
    out: str = "experiment.csv"

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise InputFormatError(
                f"unknown experiment kind {self.kind!r}; expected one of {', '.join(EXPERIMENT_KINDS)}"
            )
        missing = [key for key in _REQUIRED_PARAMS[self.kind] if key not in self.params]
        if missing:
            raise InputFormatError(f"{self.kind}: missing parameters {', '.join(missing)}")
        known = _REQUIRED_PARAMS[self.kind] + _OPTIONAL_PARAMS.get(self.kind, ())
        unknown = sorted(key for key in self.params if key not in known)
        if unknown:
            raise InputFormatError(f"{self.kind}: unknown parameters {', '.join(unknown)}")
        for key, value in self.params.items():
            if isinstance(value, list) and not value:
                raise InputFormatError(f"{self.kind}: parameter {key} must be non-empty")
            number = "integer" if key in _COUNTS else "finite number"
            if key in _GRID_AXES and not (isinstance(value, list) and all(_fits(key, v) for v in value)):
                raise InputFormatError(f"{self.kind}: parameter {key} must be a list of {number}s")
            if key in _SCALARS and not _fits(key, value):
                raise InputFormatError(f"{self.kind}: parameter {key} must be a single {number}")
        if self.params.get("top_k", 1) < 1:
            raise InputFormatError(f"{self.kind}: parameter top_k must be at least 1")
        methods = self.params.get("methods", [])
        if not isinstance(methods, list) or not all(isinstance(m, str) for m in methods):
            raise InputFormatError(f"{self.kind}: parameter methods must be a list of strings")
        if not isinstance(self.params.get("corpus", ""), str):
            raise InputFormatError(f"{self.kind}: parameter corpus must be a string")
        if self.kind in _NEEDS_SEEDS and not self.seeds:
            raise InputFormatError(f"{self.kind}: at least one seed required")

    @classmethod
    def from_dict(cls, obj: dict, base_dir: Path | None = None) -> "ExperimentSpec":
        if not isinstance(obj, dict):
            raise InputFormatError("experiment spec must be a JSON object")
        obj = dict(obj)
        kind = obj.pop("kind", None)
        if not isinstance(kind, str):
            raise InputFormatError("experiment spec needs a string 'kind'")
        out = obj.pop("out", "experiment.csv")
        seeds = obj.pop("seeds", [])
        if not isinstance(seeds, list) or not all(isinstance(s, int) for s in seeds):
            raise InputFormatError("'seeds' must be a list of integers")
        if base_dir is not None:
            corpus = obj.get("corpus")
            if isinstance(corpus, str) and not Path(corpus).is_absolute():
                obj["corpus"] = str(base_dir / corpus)
        return cls(kind=kind, params=obj, seeds=tuple(seeds), out=str(out))

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentSpec":
        path = Path(path)
        try:
            obj = json.loads(path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise InputFormatError(f"cannot read {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InputFormatError(f"{path}: invalid JSON: {exc}") from exc
        return cls.from_dict(obj, base_dir=path.parent)


def _run_altrm_traits(spec: ExperimentSpec):
    p = spec.params
    grid = [
        (mean, stddev, seed)
        for mean in p["epsilon_means"]
        for stddev in p["epsilon_stddevs"]
        for seed in spec.seeds
    ]

    def point(args):
        mean, stddev, seed = args
        pool = gen_pool(SynthConfig(p["pool_size"], mean, stddev, seed=seed))
        result = solve_altrm(pool)
        return {
            "epsilon_mean": mean,
            "epsilon_stddev": stddev,
            "seed": seed,
            "optimal_jury_size": result.jury.size,
            "jer": result.jer,
            "log10_jer": result.log10_jer,
        }

    fields = ["epsilon_mean", "epsilon_stddev", "seed", "optimal_jury_size", "jer", "log10_jer"]
    return fields, [point(args) for args in grid]


def _run_altrm_timing(spec: ExperimentSpec):
    p = spec.params
    grid = [
        (size, stddev, pruning, seed)
        for size in p["pool_sizes"]
        for stddev in p["epsilon_stddevs"]
        for pruning in (0, 1)
        for seed in spec.seeds
    ]

    def point(args):
        size, stddev, pruning, seed = args
        pool = gen_pool(SynthConfig(size, p["epsilon_mean"], stddev, seed=seed))
        started = time.perf_counter()
        result = solve_altrm(pool, use_pruning=bool(pruning))
        elapsed = time.perf_counter() - started
        return {
            "pool_size": size,
            "epsilon_stddev": stddev,
            "pruning": pruning,
            "seed": seed,
            "seconds": elapsed,
            "optimal_jury_size": result.jury.size,
        }

    fields = ["pool_size", "epsilon_stddev", "pruning", "seed", "seconds", "optimal_jury_size"]
    return fields, [point(args) for args in grid]


def _run_paym_traits(spec: ExperimentSpec):
    p = spec.params
    grid = [
        (req_mean, budget, seed)
        for req_mean in p["requirement_means"]
        for budget in p["budgets"]
        for seed in spec.seeds
    ]

    def point(args):
        req_mean, budget, seed = args
        pool = gen_pool(
            SynthConfig(
                p["pool_size"],
                p["epsilon_mean"],
                p["epsilon_stddev"],
                requirement_mean=req_mean,
                requirement_stddev=p["requirement_stddev"],
                seed=seed,
            )
        )
        result = solve_paym_greedy(pool, budget)
        return {
            "requirement_mean": req_mean,
            "budget": budget,
            "seed": seed,
            "jer": result.jer,
            "total_cost": result.total_cost,
            "jury_size": result.jury.size,
        }

    fields = ["requirement_mean", "budget", "seed", "jer", "total_cost", "jury_size"]
    return fields, [point(args) for args in grid]


def _run_paym_effectiveness(spec: ExperimentSpec):
    p = spec.params
    if p["pool_size"] > 22:
        raise InputFormatError("paym-effectiveness needs pool_size <= 22 for the enumeration baseline")
    grid = [
        (stddev, budget, seed)
        for stddev in p["epsilon_stddevs"]
        for budget in p["budgets"]
        for seed in spec.seeds
    ]

    def point(args):
        stddev, budget, seed = args
        pool = gen_pool(
            SynthConfig(
                p["pool_size"],
                p["epsilon_mean"],
                stddev,
                requirement_mean=p["requirement_mean"],
                requirement_stddev=p["requirement_stddev"],
                seed=seed,
            )
        )
        greedy = solve_paym_greedy(pool, budget)
        truth = solve_oracle(pool, budget)
        comparison = compare_results(greedy, truth)
        return {
            "epsilon_stddev": stddev,
            "budget": budget,
            "seed": seed,
            "jer_greedy": greedy.jer,
            "jer_oracle": truth.jer,
            "cost_greedy": greedy.total_cost,
            "cost_oracle": truth.total_cost,
            "precision": comparison.precision,
            "recall": comparison.recall,
        }

    fields = [
        "epsilon_stddev",
        "budget",
        "seed",
        "jer_greedy",
        "jer_oracle",
        "cost_greedy",
        "cost_oracle",
        "precision",
        "recall",
    ]
    return fields, [point(args) for args in grid]


def rank_candidates(
    corpus_path: str | Path,
    method: str,
    config: RankConfig = RankConfig(),
) -> list[dict]:
    """Rank a corpus and return per-user rows sorted by descending score.

    Each row carries username, score, hub_score (None without a hub side),
    the squashed error rate and the age-derived payment requirement (0 for
    users whose registration date never appears in the corpus).
    """
    if method not in ("hits", "pagerank"):
        raise InputFormatError(f"unknown ranking method {method!r}")
    created: dict[str, float] = {}

    def records_noting_registration():
        # Folds the earliest registration time per author into the one
        # pass that builds the graph.
        for record in read_corpus(corpus_path):
            stamp = record.author_created_at
            if stamp is not None and stamp < created.get(record.author, math.inf):
                created[record.author] = stamp
            yield record

    graph = build_graph(records_noting_registration())
    ranked = hits(graph, config) if method == "hits" else pagerank(graph, config)
    epsilons = scores_to_error_rates(ranked, config)
    requirements: dict[str, float] = {}
    if created:
        newest = max(created.values())
        requirements = ages_to_requirements(
            {user: newest - stamp for user, stamp in created.items()}
        )

    # Scores are keyed in sorted-name order, so a stable sort on the
    # negated score breaks ties by name.
    users = list(ranked.scores)
    order = np.argsort(-np.fromiter(ranked.scores.values(), float, len(users)), kind="stable")
    return [
        {
            "username": user,
            "score": ranked.scores[user],
            "hub_score": None if ranked.hubs is None else ranked.hubs[user],
            "epsilon": epsilons[user],
            "requirement": requirements.get(user, 0.0),
        }
        for user in map(users.__getitem__, order.tolist())
    ]


def _run_rank_and_select(spec: ExperimentSpec):
    p = spec.params
    top_k = int(p.get("top_k", 20))
    if top_k > 22:
        raise InputFormatError("rank-and-select needs top_k <= 22 for the enumeration baseline")
    config = RankConfig(
        damping=p.get("damping", 0.85),
        alpha=p.get("alpha", 10.0),
        beta=p.get("beta", 10.0),
    )
    pools = {}
    for method in p["methods"]:
        rows = rank_candidates(p["corpus"], method, config)[:top_k]
        pools[method] = tuple(
            Juror(row["username"], row["epsilon"], row["requirement"]) for row in rows
        )

    grid = [(method, fraction) for method in p["methods"] for fraction in p["budget_fractions"]]

    def point(args):
        method, fraction = args
        pool = pools[method]
        budget = fraction * sum(j.requirement for j in pool)
        greedy = solve_paym_greedy(pool, budget)
        truth = solve_oracle(pool, budget)
        comparison = compare_results(greedy, truth)
        return {
            "method": method,
            "budget_fraction": fraction,
            "budget": budget,
            "jer_greedy": greedy.jer,
            "jer_oracle": truth.jer,
            "precision": comparison.precision,
            "recall": comparison.recall,
            "size_greedy": greedy.jury.size,
            "size_oracle": truth.jury.size,
        }

    fields = [
        "method",
        "budget_fraction",
        "budget",
        "jer_greedy",
        "jer_oracle",
        "precision",
        "recall",
        "size_greedy",
        "size_oracle",
    ]
    return fields, [point(args) for args in grid]


_RUNNERS = {
    "altrm-traits": _run_altrm_traits,
    "altrm-timing": _run_altrm_timing,
    "paym-traits": _run_paym_traits,
    "paym-effectiveness": _run_paym_effectiveness,
    "rank-and-select": _run_rank_and_select,
}


def run_experiment(spec: ExperimentSpec, out: str | Path | None = None) -> Path:
    """Run one experiment and write its CSV; returns the written path."""
    fields, rows = _RUNNERS[spec.kind](spec)
    target = Path(out) if out is not None else Path(spec.out)
    target.parent.mkdir(parents=True, exist_ok=True)
    with open(target, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
    return target
