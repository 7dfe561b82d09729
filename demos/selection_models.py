#!/usr/bin/env python3
"""Selecting juries: free enrollment vs a payment budget.

Free model: sort by error rate, scan odd prefixes, provably optimal.
Paid model: requirements make the problem intractable, so a greedy pair
heuristic runs against exhaustive enumeration to show how close it lands.
"""

import numpy as np

from juryselect import (
    Juror,
    SynthConfig,
    compare_results,
    gen_pool,
    solve_altrm,
    solve_oracle,
    solve_paym_greedy,
)

print("=== free enrollment: the crowd quality decides the jury size ===")
for mean in (0.2, 0.35, 0.5, 0.7):
    pool = gen_pool(SynthConfig(pool_size=301, epsilon_mean=mean, epsilon_stddev=0.1, seed=42))
    result = solve_altrm(pool)
    print(
        f"  mean error {mean:.2f}: best jury size {result.jury.size:3d}, "
        f"error rate {result.jer:.3e}, "
        f"{result.juries_pruned} prefixes skipped by the stop rule"
    )
print()
print("Reliable crowds want big juries; error-prone crowds shrink to the")
print("hands of the few.")
print()

print("=== paid enrollment: greedy vs exhaustive ground truth ===")
rows = [
    ("A", 0.10, 0.80),
    ("B", 0.20, 0.10),
    ("C", 0.20, 0.10),
    ("D", 0.30, 0.10),
    ("E", 0.30, 0.10),
]
pool = [Juror(i, e, r) for i, e, r in rows]
print("  candidates (id, error rate, fee):", rows)
for budget in (0.15, 0.3, 0.5, 1.2):
    greedy = solve_paym_greedy(pool, budget)
    truth = solve_oracle(pool, budget)
    comparison = compare_results(greedy, truth)
    print(
        f"  budget {budget:.2f}: greedy {sorted(greedy.member_ids)} "
        f"jer {greedy.jer:.4f} cost {greedy.total_cost:.2f} | "
        f"optimal {sorted(truth.member_ids)} jer {truth.jer:.4f} | "
        f"precision {comparison.precision:.2f} recall {comparison.recall:.2f}"
    )
print()

print("=== greedy optimality gap across random instances ===")
rng = np.random.default_rng(7)
gaps = []
for _ in range(200):
    n = int(rng.integers(3, 15))
    jurors = [
        Juror(f"j{i}", float(e), float(r))
        for i, (e, r) in enumerate(zip(rng.uniform(0.05, 0.95, n), rng.uniform(0, 1, n)))
    ]
    fees = np.array([j.requirement for j in jurors])
    budget = float(fees.min() + rng.uniform(0, fees.sum()))
    gaps.append(solve_paym_greedy(jurors, budget).jer - solve_oracle(jurors, budget).jer)
gaps = np.array(gaps)
print(f"  200 instances: exact match {np.mean(gaps <= 1e-9):.0%}, "
      f"median gap {np.median(gaps):.4f}, worst gap {gaps.max():.4f}")
