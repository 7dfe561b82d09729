"""Jury selection from a candidate pool.

Two cost models:

* free enrollment -- every subset is allowed; sorting candidates by error
  rate makes the best jury of each size a prefix, so ``solve_altrm`` scans
  odd prefixes and is exactly optimal, optionally skipping prefixes whose
  tail lower bound already exceeds the best error rate seen;
* paid enrollment -- a jury is feasible only if its summed requirements
  fit a budget.  Exact selection is intractable, so ``solve_paym_greedy``
  grows a jury in cheap pairs, and ``solve_oracle`` provides exact
  ground truth for pools of up to 22 candidates by meeting in the middle:
  per-half subset tables, joined one pair of subset sizes at a time.

``solve_altrm`` and ``solve_paym_greedy`` only grow a jury, so each keeps
one rolling log tail row, ``row[l] = log P(W >= l)`` for the wrong-vote
count ``W``: O(n) to add a juror, O(1) to read, and exact to relative
float precision far below the float floor, where very reliable juries'
error rates live.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence, Union

import numpy as np

from .errors import EmptyPool, NoAffordableJuror, SizeLimitExceeded
from .jer import Juror, Jury, _moment_bound

# The oracle prices every one of the 2**(n-1) odd subsets, so its time
# and memory double with each candidate; the published effectiveness
# experiments stop at 22 candidates too.
ORACLE_SIZE_MAX = 22

# Relative width of the oracle's tie window: about 450 ulps, far above the
# rounding noise between summation orders of one error rate and far below
# any tolerance the error rates are compared at.
_TIE_RTOL = 1e-13


def _empty_row(length: int) -> np.ndarray:
    """The log tail row of an empty jury: P(W >= 0) = 1, every other tail 0."""
    row = np.full(length, -np.inf)
    row[0] = 0.0
    return row


def _advance(row: np.ndarray, e: float) -> None:
    """Absorb one juror with error rate ``e`` into a log tail row, in place."""
    row[1:] = np.logaddexp(row[1:] + math.log1p(-e), row[:-1] + math.log(e))


@dataclass(frozen=True)
class CandidatePool:
    """The candidate jurors a jury may be drawn from."""

    candidates: tuple[Juror, ...]

    def __post_init__(self):
        candidates = tuple(self.candidates)
        object.__setattr__(self, "candidates", candidates)
        if not candidates:
            raise EmptyPool("candidate pool must contain at least one juror")
        if len({j.id for j in candidates}) != len(candidates):
            raise ValueError("candidate ids must be distinct")

    @property
    def size(self) -> int:
        return len(self.candidates)

    def __len__(self) -> int:
        return len(self.candidates)

    def __iter__(self):
        return iter(self.candidates)


@dataclass(frozen=True)
class Budget:
    """Total payment allowed for one jury."""

    amount: float

    def __post_init__(self):
        object.__setattr__(self, "amount", float(self.amount))
        if math.isnan(self.amount):
            raise ValueError("budget must be a number")
        if self.amount < 0.0:
            raise ValueError("budget must be >= 0")


@dataclass(frozen=True)
class SolveResult:
    """A chosen jury plus its error rate, cost and search diagnostics.

    ``jer`` is a float and reads 0.0 once the error rate falls below the
    float floor (about 1e-308); ``log10_jer`` carries it at any depth.
    """

    jury: Jury
    jer: float
    log10_jer: float
    total_cost: float
    juries_evaluated: int
    juries_pruned: int

    @property
    def member_ids(self) -> frozenset[str]:
        return frozenset(j.id for j in self.jury.members)


class ResultComparison(NamedTuple):
    precision: float
    recall: float
    jer_gap: float
    cost_gap: float


PoolLike = Union[CandidatePool, Sequence[Juror]]
BudgetLike = Union[Budget, float]


def _candidates(pool: PoolLike) -> tuple[Juror, ...]:
    if isinstance(pool, CandidatePool):
        return pool.candidates
    return CandidatePool(tuple(pool)).candidates


def _amount(budget: BudgetLike) -> float:
    if isinstance(budget, Budget):
        return budget.amount
    return Budget(float(budget)).amount


def solve_altrm(pool: PoolLike, use_pruning: bool = True) -> SolveResult:
    """Pick the error-rate-minimal jury when enrollment is free.

    Candidates are sorted by ascending error rate (ties by id) and every
    odd prefix is a candidate jury; monotonicity of the majority tail in
    each member's error rate makes the best prefix globally optimal.
    Prefixes nest, so one log tail row, advanced juror by juror, gives
    every prefix's error rate.  With ``use_pruning`` the moment lower
    bound, when it applies, skips reading the tail of prefixes that
    provably cannot beat the best jury found so far; pruning never changes
    the returned jury.
    """
    order = sorted(_candidates(pool), key=lambda j: (j.epsilon, j.id))
    eps = np.array([j.epsilon for j in order])
    n_max = eps.size if eps.size % 2 == 1 else eps.size - 1

    row = _empty_row((n_max + 1) // 2 + 1)
    best_n = 0
    best_log = math.inf
    evaluated = 0
    pruned = 0
    mu = 0.0
    sigma_sq = 0.0
    for n in range(1, n_max + 1, 2):
        new = eps[max(n - 2, 0) : n]
        for e in new:
            _advance(row, e)
        mu += float(new.sum())
        sigma_sq += float((new * (1.0 - new)).sum())
        if use_pruning:
            bound = _moment_bound(n, mu, sigma_sq)
            # Compared in logs: best_log may lie below the float floor.
            if bound is not None and math.log(bound) > best_log:
                pruned += 1
                continue
        evaluated += 1
        tail = float(row[(n + 1) // 2])
        if tail < best_log:
            best_log = tail
            best_n = n

    jury = Jury(tuple(order[:best_n]))
    cost = sum(j.requirement for j in jury.members)
    return SolveResult(jury, math.exp(best_log), best_log / math.log(10), cost, evaluated, pruned)


def solve_paym_greedy(pool: PoolLike, budget: BudgetLike) -> SolveResult:
    """Grow a budget-feasible jury greedily, two jurors at a time.

    Candidates are ranked by ascending epsilon * requirement (ties by
    epsilon then id).  The first affordable candidate seeds the jury; the
    remainder is scanned with a one-slot pair buffer so the jury only ever
    grows by two, keeping its size odd.  A buffered pair is admitted only
    when it still fits the budget and does not worsen the jury error rate;
    a pair still buffered when the scan ends is discarded.

    The accepted jury's log tail row prices each trial pair in O(1): with
    t the current majority threshold, the enlarged jury errs when the
    pair's wrong votes (0, 1 or 2) lift the count to t + 1.
    """
    budget_amount = _amount(budget)
    order = sorted(
        _candidates(pool), key=lambda j: (j.epsilon * j.requirement, j.epsilon, j.id)
    )
    start = next((i for i, j in enumerate(order) if j.requirement <= budget_amount), None)
    if start is None:
        raise NoAffordableJuror(
            f"no candidate requirement fits the budget {budget_amount}"
        )

    selected = [order[start]]
    spent = order[start].requirement
    row = _empty_row(len(order) // 2 + 2)
    _advance(row, order[start].epsilon)
    current = float(row[1])
    evaluated = 1
    pending: Juror | None = None
    for candidate in order[start + 1 :]:
        if pending is None:
            if spent + candidate.requirement <= budget_amount:
                pending = candidate
            continue
        if spent + pending.requirement + candidate.requirement <= budget_amount:
            a, b = pending.epsilon, candidate.epsilon
            t = (len(selected) + 1) // 2
            pair = np.log([a * b, a * (1.0 - b) + (1.0 - a) * b, (1.0 - a) * (1.0 - b)])
            trial = float(np.logaddexp.reduce(pair + row[t - 1 : t + 2]))
            evaluated += 1
            if trial <= current:
                selected += [pending, candidate]
                current = trial
                spent += pending.requirement + candidate.requirement
                _advance(row, a)
                _advance(row, b)
                pending = None

    jury = Jury(tuple(selected))
    return SolveResult(jury, math.exp(current), current / math.log(10), spent, evaluated, 0)


def _half_tables(half: tuple[Juror, ...]) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per subset size s = 0..len(half): index combos, wrong-count pmf rows, costs.

    Combos come in lexicographic row order; pmf rows have s + 1 columns.
    """
    eps = np.array([j.epsilon for j in half])
    req = np.array([j.requirement for j in half])
    tables = []
    for s in range(len(half) + 1):
        combos = np.array(list(itertools.combinations(range(len(half)), s)), dtype=np.intp)
        combos = combos.reshape(math.comb(len(half), s), s)
        pmf = np.zeros((len(combos), s + 1))
        pmf[:, 0] = 1.0
        for col in combos.T:
            e = eps[col][:, None]
            pmf[:, 1:] = pmf[:, 1:] * (1.0 - e) + pmf[:, :-1] * e
            pmf[:, :1] *= 1.0 - e
        tables.append((combos, pmf, req[combos].sum(axis=1)))
    return tables


def solve_oracle(pool: PoolLike, budget: BudgetLike) -> SolveResult:
    """Exact ground truth: the best odd, budget-feasible jury.

    Meets in the middle (Horowitz & Sahni): the id-sorted pool splits into
    halves A and B, and every subset of each half gets its wrong-count
    pmf and cost.  The unions of a size-a subset of A with a size-b subset
    of B, a + b = 2t - 1, form one block; the union errs when
    W_A + W_B >= t, so the block's error rates are one matmul of A's pmf
    rows against B's tail rows P(W_B >= t - w).  ``juries_evaluated``
    counts the feasible odd subsets.

    Every feasible jury whose float error rate is at most
    ``low * (1 + 1e-13)``, with ``low`` the least one, counts as tied with
    the minimum: equal error rates summed in different orders can differ
    in the last ulps.  Among tied juries the lowest cost wins, then the
    smallest size, then the lexicographically smallest member ids.
    Exponential in the pool size, hence capped at 22 candidates.  With all
    requirements zero and an unbounded budget this is the ground truth for
    ``solve_altrm`` as well.
    """
    candidates = _candidates(pool)
    n = len(candidates)
    if n > ORACLE_SIZE_MAX:
        raise SizeLimitExceeded(f"oracle enumeration capped at {ORACLE_SIZE_MAX}, got {n}")
    budget_amount = _amount(budget)

    # Every index in A is below every index in B, so an (A part, B part)
    # index tuple lists its members in id order.
    order = tuple(sorted(candidates, key=lambda j: j.id))
    split = n // 2
    combos_a, pmf_a, cost_a = zip(*_half_tables(order[:split]))
    combos_b, pmf_b, cost_b = zip(*_half_tables(order[split:]))
    # tails_b[b][r, j] = P(W_B >= j) for j = 0..b + 1, summed from the top.
    tails_b = [
        np.hstack([np.cumsum(pmf[:, ::-1], axis=1)[:, ::-1], np.zeros((len(pmf), 1))])
        for pmf in pmf_b
    ]

    def block(a, b):
        t = (a + b + 1) // 2
        jer = pmf_a[a] @ tails_b[b][:, np.clip(t - np.arange(a + 1), 0, b + 1)].T
        cost = cost_a[a][:, None] + cost_b[b][None, :]
        return jer, cost, cost <= budget_amount

    evaluated = 0
    lows = {}
    for a in range(split + 1):
        for b in range(1 - a % 2, n - split + 1, 2):  # a + b odd
            jer, _, feasible = block(a, b)
            count = int(np.count_nonzero(feasible))
            if count:
                evaluated += count
                lows[a, b] = float(np.min(jer, where=feasible, initial=math.inf))
    if not lows:
        raise NoAffordableJuror(f"no odd subset fits the budget {budget_amount}")

    tied = min(lows.values()) * (1.0 + _TIE_RTOL)
    best = None  # (cost, size, member indices, jer)
    for (a, b), low in lows.items():
        if low > tied:
            continue
        jer, cost, feasible = block(a, b)
        # Row-major order within a block is id order, so argmin's first
        # hit is the tie winner among equal costs.
        pick = np.argmin(np.where(feasible & (jer <= tied), cost, np.inf))
        i, j = np.unravel_index(pick, cost.shape)
        indices = (*combos_a[a][i], *(split + combos_b[b][j]))
        key = (float(cost[i, j]), a + b, indices, float(jer[i, j]))
        if best is None or key < best:
            best = key

    total_cost, _, indices, jer = best
    members = tuple(order[i] for i in indices)
    return SolveResult(Jury(members), jer, math.log10(jer), total_cost, evaluated, 0)


def compare_results(test: SolveResult, truth: SolveResult) -> ResultComparison:
    """Member-set precision/recall plus error-rate and cost gaps of test vs truth."""
    test_ids = test.member_ids
    truth_ids = truth.member_ids
    overlap = len(test_ids & truth_ids)
    return ResultComparison(
        precision=overlap / len(test_ids),
        recall=overlap / len(truth_ids),
        jer_gap=test.jer - truth.jer,
        cost_gap=test.total_cost - truth.total_cost,
    )
