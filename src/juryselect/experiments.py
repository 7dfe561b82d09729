"""Declarative experiment suites over the selection algorithms.

A spec file (JSON) names one experiment kind plus its parameter grid;
running it produces one CSV whose columns are the axes of the matching
figure-style plot.  Grid points are independent solver calls, written in
grid order; ``rank-and-select`` takes its candidates from the corpus
pipeline's entry point, ``estimate.rank_candidates``.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

from .errors import InputFormatError
from .estimate import RANK_METHODS, RankConfig, rank_candidates
from .jer import Juror
from .solver import ORACLE_SIZE_MAX, compare_results, solve_altrm, solve_oracle, solve_paym_greedy
from .synth import SynthConfig, gen_pool


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_count(value) -> bool:
    return _is_integer(value) and value >= 1


def _list_of(check):
    return lambda value: isinstance(value, list) and bool(value) and all(map(check, value))


# A parameter type: what it accepts, in words, and the check for it.
_NUMBER = ("a finite number", _is_number)
_COUNT = ("an integer >= 1", _is_count)
_NUMBERS = ("a non-empty list of finite numbers", _list_of(_is_number))
_COUNTS = ("a non-empty list of integers >= 1", _list_of(_is_count))
_STRING = ("a string", lambda value: isinstance(value, str))
_METHODS = (f"a non-empty list out of {', '.join(RANK_METHODS)}", _list_of(RANK_METHODS.__contains__))


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment kind, its parameter grid, seeds and output path.

    Construction checks every parameter against the kind's schema and
    stores ``params`` with each omitted optional parameter at its default.
    """

    kind: str
    params: dict
    seeds: tuple[int, ...] = ()
    out: str = "experiment.csv"

    def __post_init__(self):
        schema = _KINDS.get(self.kind)
        if schema is None:
            raise InputFormatError(
                f"unknown experiment kind {self.kind!r}; expected one of {', '.join(EXPERIMENT_KINDS)}"
            )
        unknown = sorted(key for key in self.params if key not in schema.types)
        if unknown:
            raise InputFormatError(f"{self.kind}: unknown parameters {', '.join(unknown)}")
        params = {**schema.defaults, **self.params}
        missing = [key for key in schema.types if key not in params]
        if missing:
            raise InputFormatError(f"{self.kind}: missing parameters {', '.join(missing)}")
        for key, (expected, check) in schema.types.items():
            if not check(params[key]):
                raise InputFormatError(f"{self.kind}: parameter {key} must be {expected}")
        object.__setattr__(self, "params", params)
        if not isinstance(self.seeds, (list, tuple)) or not all(map(_is_integer, self.seeds)):
            raise InputFormatError("'seeds' must be a list of integers")
        object.__setattr__(self, "seeds", tuple(self.seeds))
        if schema.needs_seeds and not self.seeds:
            raise InputFormatError(f"{self.kind}: at least one seed required")
        if not isinstance(self.out, str):
            raise InputFormatError("'out' must be a string")

    @classmethod
    def from_dict(cls, obj: dict, base_dir: Path | None = None) -> "ExperimentSpec":
        if not isinstance(obj, dict):
            raise InputFormatError("experiment spec must be a JSON object")
        obj = dict(obj)
        kind = obj.pop("kind", None)
        if not isinstance(kind, str):
            raise InputFormatError("experiment spec needs a string 'kind'")
        fields = {key: obj.pop(key) for key in ("seeds", "out") if key in obj}
        if base_dir is not None:
            corpus = obj.get("corpus")
            if isinstance(corpus, str) and not Path(corpus).is_absolute():
                obj["corpus"] = str(base_dir / corpus)
        return cls(kind=kind, params=obj, **fields)

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentSpec":
        """Load a spec file.  A relative ``corpus`` resolves against the
        spec's directory; a relative ``out`` stays relative to the working
        directory, where ``run_experiment`` writes it."""
        path = Path(path)
        try:
            obj = json.loads(path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise InputFormatError(f"cannot read {path}: {exc}") from exc
        # As in io.read_corpus: integers past the digit limit, deep nesting.
        except (ValueError, RecursionError) as exc:
            raise InputFormatError(f"{path}: invalid JSON: {exc}") from exc
        return cls.from_dict(obj, base_dir=path.parent)


def _run_altrm_traits(spec: ExperimentSpec):
    p = spec.params
    for mean, stddev, seed in product(p["epsilon_means"], p["epsilon_stddevs"], spec.seeds):
        result = solve_altrm(gen_pool(SynthConfig(p["pool_size"], mean, stddev, seed=seed)))
        yield {
            "epsilon_mean": mean,
            "epsilon_stddev": stddev,
            "seed": seed,
            "optimal_jury_size": result.jury.size,
            "jer": result.jer,
            "log10_jer": result.log10_jer,
        }


def _run_altrm_timing(spec: ExperimentSpec):
    p = spec.params
    for size, stddev, pruning, seed in product(p["pool_sizes"], p["epsilon_stddevs"], (0, 1), spec.seeds):
        pool = gen_pool(SynthConfig(size, p["epsilon_mean"], stddev, seed=seed))
        started = time.perf_counter()
        result = solve_altrm(pool, use_pruning=bool(pruning))
        elapsed = time.perf_counter() - started
        yield {
            "pool_size": size,
            "epsilon_stddev": stddev,
            "pruning": pruning,
            "seed": seed,
            "seconds": elapsed,
            "optimal_jury_size": result.jury.size,
            "juries_evaluated": result.juries_evaluated,
            "juries_pruned": result.juries_pruned,
        }


def _run_paym_traits(spec: ExperimentSpec):
    p = spec.params
    for req_mean, budget, seed in product(p["requirement_means"], p["budgets"], spec.seeds):
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
        yield {
            "requirement_mean": req_mean,
            "budget": budget,
            "seed": seed,
            "jer": result.jer,
            "log10_jer": result.log10_jer,
            "total_cost": result.total_cost,
            "jury_size": result.jury.size,
        }


def _run_paym_effectiveness(spec: ExperimentSpec):
    p = spec.params
    if p["pool_size"] > ORACLE_SIZE_MAX:
        raise InputFormatError(
            f"paym-effectiveness needs pool_size <= {ORACLE_SIZE_MAX} for the enumeration baseline"
        )
    for stddev, budget, seed in product(p["epsilon_stddevs"], p["budgets"], spec.seeds):
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
        yield {
            "epsilon_stddev": stddev,
            "budget": budget,
            "seed": seed,
            "jer_greedy": greedy.jer,
            "jer_oracle": truth.jer,
            "log10_jer_greedy": greedy.log10_jer,
            "log10_jer_oracle": truth.log10_jer,
            "cost_greedy": greedy.total_cost,
            "cost_oracle": truth.total_cost,
            "precision": comparison.precision,
            "recall": comparison.recall,
        }


def _run_rank_and_select(spec: ExperimentSpec):
    p = spec.params
    if p["top_k"] > ORACLE_SIZE_MAX:
        raise InputFormatError(
            f"rank-and-select needs top_k <= {ORACLE_SIZE_MAX} for the enumeration baseline"
        )
    config = RankConfig(damping=p["damping"], alpha=p["alpha"], beta=p["beta"])
    pools = {}
    for method in p["methods"]:
        rows = rank_candidates(p["corpus"], method, config, p["top_k"])
        pools[method] = tuple(
            Juror(row["username"], row["epsilon"], row["requirement"]) for row in rows
        )

    for method, fraction in product(p["methods"], p["budget_fractions"]):
        pool = pools[method]
        budget = fraction * sum(j.requirement for j in pool)
        greedy = solve_paym_greedy(pool, budget)
        truth = solve_oracle(pool, budget)
        comparison = compare_results(greedy, truth)
        yield {
            "method": method,
            "budget_fraction": fraction,
            "budget": budget,
            "jer_greedy": greedy.jer,
            "jer_oracle": truth.jer,
            "log10_jer_greedy": greedy.log10_jer,
            "log10_jer_oracle": truth.log10_jer,
            "precision": comparison.precision,
            "recall": comparison.recall,
            "size_greedy": greedy.jury.size,
            "size_oracle": truth.jury.size,
        }


class _Kind(NamedTuple):
    """A kind's row generator and each parameter's type; a parameter
    without a default is required."""

    run: Callable[[ExperimentSpec], Iterator[dict]]
    types: dict
    defaults: dict = {}
    needs_seeds: bool = True


_KINDS = {
    "altrm-traits": _Kind(
        _run_altrm_traits,
        {"pool_size": _COUNT, "epsilon_means": _NUMBERS, "epsilon_stddevs": _NUMBERS},
    ),
    "altrm-timing": _Kind(
        _run_altrm_timing,
        {"pool_sizes": _COUNTS, "epsilon_mean": _NUMBER, "epsilon_stddevs": _NUMBERS},
    ),
    "paym-traits": _Kind(
        _run_paym_traits,
        {
            "pool_size": _COUNT,
            "epsilon_mean": _NUMBER,
            "epsilon_stddev": _NUMBER,
            "requirement_means": _NUMBERS,
            "requirement_stddev": _NUMBER,
            "budgets": _NUMBERS,
        },
    ),
    "paym-effectiveness": _Kind(
        _run_paym_effectiveness,
        {
            "pool_size": _COUNT,
            "epsilon_mean": _NUMBER,
            "epsilon_stddevs": _NUMBERS,
            "requirement_mean": _NUMBER,
            "requirement_stddev": _NUMBER,
            "budgets": _NUMBERS,
        },
    ),
    "rank-and-select": _Kind(
        _run_rank_and_select,
        {
            "corpus": _STRING,
            "methods": _METHODS,
            "budget_fractions": _NUMBERS,
            "top_k": _COUNT,
            "damping": _NUMBER,
            "alpha": _NUMBER,
            "beta": _NUMBER,
        },
        defaults={
            "top_k": 20,
            "damping": RankConfig.damping,
            "alpha": RankConfig.alpha,
            "beta": RankConfig.beta,
        },
        needs_seeds=False,
    ),
}
EXPERIMENT_KINDS = tuple(_KINDS)


def run_experiment(spec: ExperimentSpec, out: str | Path | None = None) -> Path:
    """Run one experiment and write its CSV; returns the written path.

    The columns are the first row's keys; a valid spec has at least one
    grid point, and every row lists the same keys in the same order.
    """
    rows = list(_KINDS[spec.kind].run(spec))
    target = Path(out) if out is not None else Path(spec.out)
    target.parent.mkdir(parents=True, exist_ok=True)
    with open(target, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return target
