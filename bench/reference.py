"""Reference computations the benchmark checks the program's answers against.

Everything here is written from the definitions in the paper and in the
library's docstrings, with numpy and the standard library only; nothing
is imported from ``juryselect``.  Tails are kept in the log domain, so
they stay exact to float precision far below the float floor.
"""

from __future__ import annotations

import math

import numpy as np

EPSILON_FLOOR = 1e-6
EPSILON_CEIL = 1.0 - 1e-6


def synth_pool(size, eps_mean, eps_sd, req_mean=0.0, req_sd=0.0, seed=0):
    """The documented synthetic-pool recipe: normal draws, error rates
    clamped into [1e-6, 1 - 1e-6], requirements clamped at 0."""
    rng = np.random.default_rng(seed)
    eps = np.clip(rng.normal(eps_mean, eps_sd, size), EPSILON_FLOOR, EPSILON_CEIL)
    req = np.clip(rng.normal(req_mean, req_sd, size), 0.0, None)
    ids = [f"j{i:06d}" for i in range(size)]
    return ids, eps, req


def _advance(row: np.ndarray, e: float) -> np.ndarray:
    """Absorb one juror into a log tail row, row[l] = log Pr(wrong >= l)."""
    out = row.copy()
    out[1:] = np.logaddexp(row[1:] + math.log1p(-e), row[:-1] + math.log(e))
    return out


def _empty_row(length: int) -> np.ndarray:
    row = np.full(length, -np.inf)
    row[0] = 0.0
    return row


def log_jer(eps) -> float:
    """Natural log of the majority-error probability of one odd jury."""
    eps = np.asarray(eps, dtype=float)
    threshold = (eps.size + 1) // 2
    row = _empty_row(threshold + 1)
    for e in eps:
        row = _advance(row, float(e))
    return float(row[threshold])


def prefix_order(ids, eps) -> list[int]:
    """Candidate indices sorted by error rate, then id."""
    return sorted(range(len(ids)), key=lambda i: (float(eps[i]), ids[i]))


def log_prefix_tails(eps_sorted) -> np.ndarray:
    """Log JER of every odd prefix of an already sorted pool.

    Entry i is the prefix of size 2i + 1.  One rolling row serves every
    prefix, since prefixes nest.
    """
    eps_sorted = np.asarray(eps_sorted, dtype=float)
    n_max = eps_sorted.size if eps_sorted.size % 2 else eps_sorted.size - 1
    row = _empty_row((n_max + 1) // 2 + 1)
    log_e = np.log(eps_sorted)
    log_keep = np.log1p(-eps_sorted)
    tails = np.empty((n_max + 1) // 2)
    for n in range(1, n_max + 1):
        # Only entries up to n can be finite after n jurors.
        top = min(n, row.size - 1)
        row[1 : top + 1] = np.logaddexp(row[1 : top + 1] + log_keep[n - 1], row[:top] + log_e[n - 1])
        if n % 2:
            tails[n // 2] = row[(n + 1) // 2]
    return tails


def rel_close(value: float, log_ref: float, rel: float) -> bool:
    """True when ``value`` lies within relative ``rel`` of exp(log_ref)."""
    if not value > 0.0 or not math.isfinite(value):
        return False
    return abs(math.expm1(math.log(value) - log_ref)) <= rel


def greedy_members(ids, eps, req, budget, program_ids=None):
    """The pair greedy of the solver's docstring, re-implemented.

    Candidates are ranked by epsilon * requirement, then epsilon, then id;
    the first affordable one seeds the jury; a one-slot buffer holds a
    pending candidate, and a buffered pair is admitted when it fits the
    budget and does not raise the jury error rate.

    The program compares floats that carry round-off (documented as
    about 1e-14 absolute on the convolution route, relative 1e-15 below
    1e-12).  A decision whose two error rates are that close is a
    near-tie; there the reference follows the program's choice, read
    off ``program_ids``.  Returns (member ids in order, number of
    near-ties).
    """
    order = sorted(range(len(ids)), key=lambda i: (eps[i] * req[i], eps[i], ids[i]))
    start = next((k for k, i in enumerate(order) if req[i] <= budget), None)
    if start is None:
        return None, 0
    program_set = set(program_ids or ())
    first = order[start]
    selected = [first]
    spent = req[first]
    row = _advance(_empty_row(len(ids) // 2 + 2), eps[first])
    current = float(row[1])
    near_ties = 0
    pending = None
    for i in order[start + 1 :]:
        if pending is None:
            if spent + req[i] <= budget:
                pending = i
            continue
        if spent + req[pending] + req[i] <= budget:
            trial_row = _advance(_advance(row, eps[pending]), eps[i])
            trial = float(trial_row[(len(selected) + 3) // 2])
            if _near_tie(trial, current):
                near_ties += 1
                accept = ids[pending] in program_set and ids[i] in program_set
            else:
                accept = trial < current
            if accept:
                selected += [pending, i]
                row = trial_row
                current = trial
                spent += req[pending] + req[i]
                pending = None
    return [ids[i] for i in selected], near_ties


def _near_tie(log_a: float, log_b: float) -> bool:
    if abs(math.expm1(log_a - log_b)) <= 1e-9:
        return True
    high = max(log_a, log_b)
    return high > math.log(1e-12) and abs(math.exp(log_a) - math.exp(log_b)) <= 1e-13


def enumerate_best_jer(eps, req, budget) -> float:
    """Lowest JER over every odd subset whose summed requirement fits.

    Exhaustive: the wrong-count mass of every subset of the first
    ``n - 6`` candidates is built by doubling, then each of the 2**6
    subsets of the rest is convolved onto that table in turn.  Returns
    +inf when no odd subset is affordable.
    """
    eps = np.asarray(eps, dtype=float)
    req = np.asarray(req, dtype=float)
    n = eps.size
    h = max(n - 6, 0)
    mass = np.ones((1, 1))
    cost = np.zeros(1)
    size = np.zeros(1, dtype=np.int64)
    for i in range(h):
        e = eps[i]
        grown = np.zeros((mass.shape[0], mass.shape[1] + 1))
        grown[:, 1:] = mass * e
        grown[:, :-1] += mass * (1.0 - e)
        kept = np.zeros_like(grown)
        kept[:, :-1] = mass
        mass = np.concatenate([kept, grown])
        cost = np.concatenate([cost, cost + req[i]])
        size = np.concatenate([size, size + 1])
    best = math.inf
    for mask in range(1 << (n - h)):
        members = [h + j for j in range(n - h) if mask >> j & 1]
        poly = np.ones(1)
        for m in members:
            poly = np.convolve(poly, [1.0 - eps[m], eps[m]])
        total_size = size + len(members)
        total_cost = cost + req[members].sum()
        feasible = (total_size % 2 == 1) & (total_cost <= budget)
        picked = np.flatnonzero(feasible)
        if picked.size == 0:
            continue
        part = mass[picked]
        combined = np.zeros((picked.size, mass.shape[1] + poly.size - 1))
        for shift, p in enumerate(poly):
            combined[:, shift : shift + mass.shape[1]] += part * p
        tail = np.cumsum(combined[:, ::-1], axis=1)[:, ::-1]
        threshold = (total_size[picked] + 1) // 2
        best = min(best, float(tail[np.arange(picked.size), threshold].min()))
    return best


def hits_scores(n, src, dst, tolerance=1e-8, max_iterations=100):
    """HITS authority and hub by bincount power iteration from all ones.

    Same update and stopping rule as the paper's method: authority from
    in-neighbours' hubs, hub from out-neighbours' fresh authority, both
    L2-normalised; stop once both move less than ``tolerance`` in L1.
    Returns (authority, hub, iterations).
    """
    authority = np.ones(n)
    hub = np.ones(n)
    for iteration in range(1, max_iterations + 1):
        new_a = np.bincount(dst, weights=hub[src], minlength=n)
        norm = np.linalg.norm(new_a)
        if norm > 0.0:
            new_a /= norm
        new_h = np.bincount(src, weights=new_a[dst], minlength=n)
        norm = np.linalg.norm(new_h)
        if norm > 0.0:
            new_h /= norm
        moved = np.abs(new_a - authority).sum() + np.abs(new_h - hub).sum()
        authority, hub = new_a, new_h
        if moved <= tolerance:
            break
    return authority, hub, iteration


def pagerank_scores(n, src, dst, damping=0.85, tolerance=1e-8, max_iterations=100):
    """PageRank with dangling mass spread uniformly, by bincount power
    iteration from 1/n; stops once the vector moves less than
    ``tolerance`` in L1.  Returns (scores, iterations)."""
    out_degree = np.bincount(src, minlength=n).astype(float)
    dangling = out_degree == 0.0
    score = np.full(n, 1.0 / n)
    for iteration in range(1, max_iterations + 1):
        inbound = np.bincount(dst, weights=score[src] / out_degree[src], minlength=n)
        new = (1.0 - damping) / n + damping * (inbound + score[dangling].sum() / n)
        moved = np.abs(new - score).sum()
        score = new
        if moved <= tolerance:
            break
    return score, iteration


def error_rate(score: float, low: float, span: float, alpha=10.0, beta=10.0) -> float:
    """beta ** (-alpha * (score - low) / span), clamped into [1e-6, 1 - 1e-6]."""
    return min(max(beta ** (-alpha * (score - low) / span), EPSILON_FLOOR), EPSILON_CEIL)


def age_requirements(created: dict[str, float]) -> dict[str, float]:
    """Payment requirement per user: account age, min-max normalised."""
    if not created:
        return {}
    newest = max(created.values())
    ages = {u: newest - t for u, t in created.items()}
    low, high = min(ages.values()), max(ages.values())
    if high == low:
        return {u: 0.0 for u in ages}
    return {u: (a - low) / (high - low) for u, a in ages.items()}
