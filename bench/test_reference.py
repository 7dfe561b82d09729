"""Self-tests of the benchmark's reference computations.

    python3 -m unittest discover -s bench -p 'test_*.py'

Numpy and the standard library only: exact ``fractions`` arithmetic,
brute-force subset enumeration and dense linear algebra.
"""

from __future__ import annotations

import itertools
import math
import unittest
from fractions import Fraction

import numpy as np

import reference as ref


def exact_tail(eps) -> Fraction:
    """Pr(at least (n+1)/2 wrong) by the recurrence over exact fractions."""
    eps = [Fraction(float(e)) for e in eps]
    threshold = (len(eps) + 1) // 2
    row = [Fraction(1)] + [Fraction(0)] * threshold
    for e in eps:
        row = [row[0]] + [row[l] * (1 - e) + row[l - 1] * e for l in range(1, threshold + 1)]
    return row[threshold]


def rel_err(log_value: float, exact: Fraction) -> float:
    log_exact = math.log(exact.numerator) - math.log(exact.denominator)
    return abs(math.expm1(log_value - log_exact))


class PrefixScan(unittest.TestCase):
    def test_verified_optimal_sizes(self):
        # Seed-11, N = 1,000 pools; sizes frozen from a 60-digit scan.
        for mean, size in [(0.2, 839), (0.5, 263), (0.7, 11)]:
            ids, eps, _ = ref.synth_pool(1000, mean, 0.1, seed=11)
            order = ref.prefix_order(ids, eps)
            tails = ref.log_prefix_tails(eps[order])
            self.assertEqual(2 * int(tails.argmin()) + 1, size, mean)

    def test_tails_match_exact_fractions(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 7, 14, 25):
            eps = np.sort(rng.uniform(0.01, 0.99, n))
            tails = ref.log_prefix_tails(eps)
            for i, value in enumerate(tails):
                self.assertLess(rel_err(value, exact_tail(eps[: 2 * i + 1])), 1e-12)

    def test_deep_tail_below_float_floor(self):
        eps = np.full(151, 1e-5)
        exact = exact_tail(eps)
        self.assertLess(float(exact), 1e-300)
        self.assertLess(rel_err(ref.log_jer(eps), exact), 1e-11)


class Ranking(unittest.TestCase):
    def graph(self):
        rng = np.random.default_rng(3)
        n = 30
        pairs = {(int(u), int(v)) for u, v in rng.integers(0, n, (90, 2)) if u != v and u < 25}
        src, dst = (np.array(x) for x in zip(*sorted(pairs)))
        return n, src, dst

    def test_pagerank_matches_dense_solve(self):
        n, src, dst = self.graph()
        d = 0.85
        out = np.bincount(src, minlength=n).astype(float)
        m = np.zeros((n, n))
        m[dst, src] = 1.0 / out[src]
        m[:, out == 0] = 1.0 / n
        exact = np.linalg.solve(np.eye(n) - d * m, np.full(n, (1 - d) / n))
        got, _ = ref.pagerank_scores(n, src, dst, d, tolerance=1e-15, max_iterations=10_000)
        np.testing.assert_allclose(got, exact, rtol=0, atol=1e-12)
        self.assertAlmostEqual(got.sum(), 1.0, places=12)

    def test_hits_matches_principal_eigenvectors(self):
        n, src, dst = self.graph()
        a = np.zeros((n, n))
        a[src, dst] = 1.0
        _, vectors = np.linalg.eigh(a.T @ a)
        authority = np.abs(vectors[:, -1])
        _, vectors = np.linalg.eigh(a @ a.T)
        hub = np.abs(vectors[:, -1])
        got_a, got_h, _ = ref.hits_scores(n, src, dst, tolerance=1e-14, max_iterations=10_000)
        np.testing.assert_allclose(got_a, authority, atol=1e-9)
        np.testing.assert_allclose(got_h, hub, atol=1e-9)

    def test_error_rate_squash(self):
        self.assertEqual(ref.error_rate(2.0, 2.0, 1.0), ref.EPSILON_CEIL)
        self.assertEqual(ref.error_rate(3.0, 2.0, 1.0), ref.EPSILON_FLOOR)
        self.assertAlmostEqual(ref.error_rate(2.5, 2.0, 1.0), 10.0**-5, delta=1e-18)
        self.assertEqual(ref.age_requirements({"a": 10.0, "b": 30.0, "c": 20.0}), {"a": 1.0, "b": 0.0, "c": 0.5})


class BudgetedSelection(unittest.TestCase):
    def test_enumeration_matches_fraction_brute_force(self):
        rng = np.random.default_rng(8)
        for n in (3, 6, 9, 10):
            eps = rng.uniform(0.05, 0.6, n)
            req = np.clip(rng.normal(0.2, 0.3, n), 0.0, None)
            for budget in (0.0, 0.3, 1.0, 5.0):
                best = None
                for k in range(1, n + 1, 2):
                    for combo in itertools.combinations(range(n), k):
                        if sum(req[list(combo)]) <= budget:
                            tail = exact_tail(eps[list(combo)])
                            best = tail if best is None else min(best, tail)
                got = ref.enumerate_best_jer(eps, req, budget)
                if best is None:
                    self.assertEqual(got, math.inf)
                else:
                    self.assertLess(abs(got - float(best)), 1e-12 * float(best))

    def test_greedy_follows_the_documented_example(self):
        # README: b, c, d are hired at cost 0.3 under budget 0.5.
        ids = ["a", "b", "c", "d", "e"]
        eps = [0.1, 0.2, 0.2, 0.3, 0.3]
        req = [0.8, 0.1, 0.1, 0.1, 0.1]
        members, near_ties = ref.greedy_members(ids, eps, req, 0.5)
        self.assertEqual(members, ["b", "c", "d"])
        self.assertEqual(near_ties, 0)

    def test_greedy_rejects_a_pair_that_raises_the_error_rate(self):
        members, _ = ref.greedy_members(["a", "b", "c"], [0.01, 0.4, 0.4], [0.0, 0.1, 0.1], 1.0)
        self.assertEqual(members, ["a"])


if __name__ == "__main__":
    unittest.main()
