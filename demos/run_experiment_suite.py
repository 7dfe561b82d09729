#!/usr/bin/env python3
"""Run scaled-down versions of every experiment kind into ./demo_results.

The JSON specs next to this script hold the full-size grids for use with
the CLI (`juryselect experiment demos/experiment_specs/altrm_traits.json`);
this script shrinks them so the whole sweep finishes in about a minute,
then prints a few headline numbers from each CSV.
"""

import csv
from pathlib import Path

from juryselect import ExperimentSpec, run_experiment

out_dir = Path("demo_results")
out_dir.mkdir(exist_ok=True)


def show(path, label):
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    print(f"{label}: {len(rows)} rows -> {path}")
    return rows


spec = ExperimentSpec(
    "altrm-traits",
    {"pool_size": 500, "epsilon_means": [0.2, 0.5, 0.7], "epsilon_stddevs": [0.1]},
    seeds=(1, 2),
    out=str(out_dir / "altrm_traits.csv"),
)
rows = show(run_experiment(spec), "free-model traits")
for mean in ("0.2", "0.5", "0.7"):
    sizes = [int(r["optimal_jury_size"]) for r in rows if r["epsilon_mean"] == mean]
    print(f"  mean {mean}: optimal sizes {sizes}")

spec = ExperimentSpec(
    "altrm-timing",
    {"pool_sizes": [200, 400, 800], "epsilon_mean": 0.6, "epsilon_stddevs": [0.1]},
    seeds=(1,),
    out=str(out_dir / "altrm_timing.csv"),
)
rows = show(run_experiment(spec), "free-model timing")
for row in rows:
    print(
        f"  N={row['pool_size']:>4s} pruning={row['pruning']}: {float(row['seconds']):.3f}s"
    )

spec = ExperimentSpec(
    "paym-traits",
    {
        "pool_size": 300,
        "epsilon_mean": 0.2,
        "epsilon_stddev": 0.05,
        "requirement_means": [0.4, 0.6],
        "requirement_stddev": 0.2,
        "budgets": [0.1, 0.3, 0.5],
    },
    seeds=(1,),
    out=str(out_dir / "paym_traits.csv"),
)
rows = show(run_experiment(spec), "budget traits")
for row in rows:
    print(
        f"  fee mean {row['requirement_mean']}, budget {row['budget']}: "
        f"jer {float(row['jer']):.4f}, size {row['jury_size']}"
    )

spec = ExperimentSpec(
    "paym-effectiveness",
    {
        "pool_size": 22,
        "epsilon_mean": 0.2,
        "epsilon_stddevs": [0.05],
        "requirement_mean": 0.05,
        "requirement_stddev": 0.2,
        "budgets": [1.0, 1.4, 1.8, 2.2, 2.6, 3.0],
    },
    seeds=(1,),
    out=str(out_dir / "paym_effectiveness.csv"),
)
rows = show(run_experiment(spec), "greedy vs enumeration")
matches = sum(float(r["jer_greedy"]) - float(r["jer_oracle"]) <= 1e-9 for r in rows)
print(f"  greedy matched the optimum on {matches}/{len(rows)} budgets")

# rank-and-select ranks the 30-user corpus shipped beside the full-size specs.
corpus = Path(__file__).resolve().parent / "experiment_specs" / "corpus.ndjson"

spec = ExperimentSpec(
    "rank-and-select",
    {
        "corpus": str(corpus),
        "methods": ["hits", "pagerank"],
        "top_k": 15,
        "budget_fractions": [0.01, 0.1, 0.2],
    },
    out=str(out_dir / "rank_and_select.csv"),
)
rows = show(run_experiment(spec), "corpus rank-and-select")
for row in rows:
    print(
        f"  {row['method']:8s} budget {float(row['budget']):.3f}: "
        f"precision {float(row['precision']):.2f} recall {float(row['recall']):.2f}"
    )
