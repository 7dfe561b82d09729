"""Jury selection from a candidate pool.

Two cost models:

* free enrollment -- every subset is allowed; sorting candidates by error
  rate makes the best jury of each size a prefix, so ``solve_altrm`` scans
  odd prefixes and is exactly optimal, optionally stopping once no longer
  prefix can win;
* paid enrollment -- a jury is feasible only if its summed requirements
  fit a budget.  Exact selection is intractable, so ``solve_paym_greedy``
  grows a jury in cheap pairs, and ``solve_oracle`` provides exact
  ground truth for pools of up to 22 candidates by meeting in the middle:
  per-half subset tables, joined one pair of subset sizes at a time.

``solve_altrm`` and ``solve_paym_greedy`` only grow a jury, so both run
the log tail row of :mod:`juryselect.jer`, advanced BLOCK jurors at a
time, and read the juries in between off its block-start row:
``solve_altrm`` through the odd-prefix scan that ``log_jer`` also runs,
``solve_paym_greedy`` by the same read, priced in O(1) per trial pair.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence, Union

import numpy as np

from .errors import EmptyPool, NoAffordableJuror, SizeLimitExceeded
from .jer import (
    BLOCK,
    _PAIRS,
    Juror,
    Jury,
    _absorb_pair,
    _advance,
    _empty_row,
    _odd_prefix_tails,
    _pair_weights,
    _pmf_table,
    _read,
    _read_terms,
)

# The oracle prices every one of the 2**(n-1) odd subsets, so its time
# and memory double with each candidate; the published effectiveness
# experiments stop at 22 candidates too.
ORACLE_SIZE_MAX = 22

# Relative width of the tie window: about 450 ulps, far above the rounding
# noise between summation orders of one error rate and far below any
# tolerance the error rates are compared at.  The free scan applies it to
# log error rates, where a relative 1e-13 is an absolute one.
_TIE_RTOL = 1e-13

# Relative slack on the oracle's block lower bound: the bound's sum and the
# block matmul may sum the same error rate in different orders.
_BOUND_SLACK = 1e-12

# Relative slack on the free scan's stop rule: far above the rounding of
# a running sum of error rates or of a log tail row over any pool the
# O(n**2) scan can handle, and far below any gap worth comparing.
_STOP_RTOL = 1e-9
_LOG_HALF = math.log(0.5)


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
    Prefixes nest, so one log tail row, advanced BLOCK jurors at a time,
    gives every odd prefix's error rate, the prefixes inside a block read
    off its block-start row (``jer._odd_prefix_tails``, the scan
    ``log_jer`` runs too).  A stop in mid-block wastes at most the reads
    of that block.
    A prefix replaces the best so far only when its log error rate is
    lower by more than 1e-13, the oracle's tie window, so float noise
    cannot break an exact tie: the smallest of tied prefixes wins.

    With ``use_pruning`` the scan stops after prefix n once the best
    error rate so far is below 1/2 by more than float noise and n's mean
    wrong count mu_n is at least (n + 1) / 2.  Then n's jurors err more
    than 1/2 on average, so the n-th does, and so does every later one,
    since they are sorted.  Each later pair adds at least 1 to mu and
    exactly 1 to the majority threshold, so every odd prefix m >= n has
    threshold t_m = (m + 1) / 2 <= mu_m, hence t_m <= floor(mu_m).  A
    Poisson-binomial count's median lies between floor(mu) and ceil(mu)
    (Jogdeo & Samuels, 1968), so P(W_m >= t_m) >= P(W_m >= floor(mu_m))
    >= 1/2: no later prefix wins.  The float noise, a 1e-9 relative slack
    on both tests, covers the rounding of mu's running sum and of the row
    at any pool size the scan's quadratic work can reach.
    ``juries_evaluated`` counts the odd prefixes read and
    ``juries_pruned`` those the stop skips, so they sum to the number of
    odd prefixes.
    """
    order = sorted(_candidates(pool), key=lambda j: (j.epsilon, j.id))
    n_max = len(order) if len(order) % 2 == 1 else len(order) - 1

    eps = [j.epsilon for j in order[:n_max]]
    best_n = 0
    best_log = math.inf
    # Running sums of the sorted error rates, left to right: mu of each odd prefix.
    mus = itertools.islice(itertools.accumulate(eps), 0, None, 2)
    for (n, tail), mu in zip(_odd_prefix_tails(eps), mus):
        if tail < best_log - _TIE_RTOL:
            best_log = tail
            best_n = n
        if (
            use_pruning
            and mu >= (n + 1) / 2 * (1.0 + _STOP_RTOL)
            and best_log < _LOG_HALF - _STOP_RTOL
        ):
            break

    evaluated = (n + 1) // 2
    pruned = (n_max + 1) // 2 - evaluated
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

    The jury's log tail row stays at its last BLOCK-juror boundary, as in
    the odd-prefix scan (``jer._odd_prefix_tails``), and a trial pair is
    priced by the scan's read of the jury it would make, in O(1) float
    arithmetic: three dot products of the read's exp row with the pmf of
    the pairs admitted since the boundary are taken once per admission.
    An admitted pair joins that pmf, and every BLOCK / 2 pairs the row
    advances by it.  The result's ``jer`` is one read of the final jury
    off that row, the scan's read 0 .. BLOCK / 2 - 1 of it, so ``jer_dp``
    of its jury gives it bit for bit.
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
    # The row holds every tail a read off it reaches, up to T(t + _PAIRS)
    # for t the boundary jury's threshold.  pmfs row j holds the first j
    # pairs admitted since the boundary; a row is rewritten whole when its
    # pair is admitted, so the table serves every block.
    top = len(order) // 2 + _PAIRS + 1
    row = _empty_row(top)
    row[BLOCK + 1] = current = math.log(order[start].epsilon)
    pmfs, shifted = _pmf_table(_PAIRS, 1)
    terms, base = _read_terms(row, 1, _PAIRS + 1)
    admitted = 0

    def price():
        # Read admitted + 1 weighs its row by the pmf with the trial pair
        # absorbed: base + log(p0 x0 + p1 x1 + p2 x2), x_s the dot of that
        # row with the pmf shifted by s, so a trial costs O(1).
        read = admitted + 1
        return float(base[read]), (terms[read] @ shifted[admitted, 0]).tolist()

    low, (x0, x1, x2) = price()
    evaluated = 1
    pending: Juror | None = None
    for candidate in order[start + 1 :]:
        if pending is None:
            if spent + candidate.requirement <= budget_amount:
                pending = candidate
            continue
        if spent + pending.requirement + candidate.requirement <= budget_amount:
            a, b = pending.epsilon, candidate.epsilon
            weights = _pair_weights(a, b, 1.0 - a, 1.0 - b)
            p0, p1, p2 = weights
            trial = low + math.log(p0 * x0 + p1 * x1 + p2 * x2)
            evaluated += 1
            if trial <= current:
                current = trial
                spent += pending.requirement + candidate.requirement
                selected += (pending, candidate)
                pending = None
                _absorb_pair(pmfs, shifted, admitted, np.array(weights).reshape(1, 3, 1))
                admitted += 1
                if admitted == _PAIRS:
                    _advance(row, pmfs[_PAIRS, 0, 2:], 1, min(len(selected), top) + 1)
                    terms, base = _read_terms(row, (len(selected) + 1) // 2, _PAIRS + 1)
                    admitted = 0
                low, (x0, x1, x2) = price()

    # The scan's read of this jury, so jer_dp gives the result's jer bit
    # for bit.
    read = slice(admitted, admitted + 1)
    current = float(_read(terms[read], base[read], pmfs[admitted, :, 2:])[0])
    jury = Jury(tuple(selected))
    return SolveResult(jury, math.exp(current), current / math.log(10), spent, evaluated, 0)


def _half_table(half: tuple[Juror, ...]) -> tuple[np.ndarray, list[np.ndarray], np.ndarray, np.ndarray]:
    """Every subset of ``half`` in one table built by doubling (Horowitz &
    Sahni): wrong-count pmfs, shape (h + 1, 2**h), and costs, one column
    per subset; per size s, the size-s columns in lexicographic order; and
    lowest[s], the column of the s lowest error rates.

    Column v holds the subset whose member i is bit h - 1 - i of v, and
    member i is absorbed by writing the columns with that bit set from
    those without it.  Members are absorbed in ascending order, so each
    pmf sees the same float operations as one built juror by juror, and
    each cost is summed left to right.  With member 0 on the top bit,
    descending v is lexicographic order within one size.
    """
    h = len(half)
    pmf = np.zeros((h + 1, 2**h))
    pmf[0, 0] = 1.0
    cost = np.zeros(2**h)
    size = np.zeros(2**h, dtype=np.uint8)
    for i, juror in enumerate(half):
        step = 2 ** (h - i)
        old, new = pmf[:, ::step], pmf[:, step // 2 :: step]
        np.multiply(old, 1.0 - juror.epsilon, out=new)
        new[1:] += old[:-1] * juror.epsilon
        cost[step // 2 :: step] = cost[::step] + juror.requirement
        size[step // 2 :: step] = size[::step] + 1
    cols = [np.flatnonzero(size == s)[::-1] for s in range(h + 1)]
    eps = np.array([j.epsilon for j in half])
    lowest = np.concatenate([[0], np.cumsum(1 << (h - 1 - np.argsort(eps, kind="stable")))])
    return pmf, cols, cost, lowest


def _members(column: int, h: int) -> list[int]:
    """Member indices, ascending, of ``column`` in an h-member table."""
    return [i for i in range(h) if column >> (h - 1 - i) & 1]


def solve_oracle(pool: PoolLike, budget: BudgetLike) -> SolveResult:
    """Exact ground truth: the best odd, budget-feasible jury.

    Meets in the middle (Horowitz & Sahni): the id-sorted pool splits into
    halves A and B, and one table per half holds every subset's
    wrong-count pmf and cost.  The unions of a size-a subset of A with a
    size-b subset of B, a + b = 2t - 1, form one block; the union errs when
    W_A + W_B >= t, so the block's error rates are one matmul of A's pmf
    rows against B's tail rows P(W_B >= t - w).  Branch and bound (Land &
    Doig) skips blocks: a jury's error rate never falls as a member's
    rises, so A's a lowest with B's b lowest bound a block from below.  Blocks
    are priced in ascending bound order; the search ends at the first
    bound that, less a 1e-12 slack, exceeds the tie window of the best
    error rate so far, and a block whose cheapest union overruns the
    budget is skipped too.  ``juries_evaluated`` counts the odd subsets
    of the priced blocks, ``juries_pruned`` the rest of the 2**(n-1).
    Only the winner's members are decoded from its table columns.

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

    order = tuple(sorted(candidates, key=lambda j: j.id))
    split = n // 2
    pmf_a, cols_a, cost_a, lowest_a = _half_table(order[:split])
    pmf_b, cols_b, cost_b, lowest_b = _half_table(order[split:])

    # P(W_B >= j) for j = 0..len(B) + 1, summed from the top, one row per
    # subset of B: entries above a subset's size are exact zeros, so each
    # row is the sum from its size down.
    tails_b = np.zeros((pmf_b.shape[1], pmf_b.shape[0] + 1))
    tails_b[:, :-1] = np.cumsum(pmf_b[::-1], axis=0)[::-1].T
    count = np.outer([c.size for c in cols_a], [c.size for c in cols_b])
    size_a, size_b = np.indices(count.shape)
    # column[a, b, w]: where P(W_B >= t - w) sits in a tail row, t the
    # majority threshold of a + b jurors.  Tails past B's size are 0, so
    # only w > t needs clipping, to P(W_B >= 0).
    column = np.maximum((size_a + size_b + 1)[..., None] // 2 - np.arange(split + 1), 0)

    def block(a, b):
        jer = pmf_a[: a + 1, cols_a[a]].T @ tails_b[cols_b[b][:, None], column[a, b, : a + 1]].T
        cost = cost_a[cols_a[a]][:, None] + cost_b[cols_b[b]][None, :]
        return jer, cost, cost <= budget_amount

    # Every (a, b) block at once: its bound, and whether even its cheapest
    # union overruns the budget.  Float addition is monotone, so that skip
    # is exact.
    lower = (pmf_a[:, lowest_a].T[:, None, :] * tails_b[lowest_b][size_b[..., None], column]).sum(axis=2)
    cheapest = np.add.outer([cost_a[c].min() for c in cols_a], [cost_b[c].min() for c in cols_b])
    odd = (size_a + size_b) % 2 == 1
    live = odd & (cheapest <= budget_amount)
    bounds = zip(lower[live].tolist(), size_a[live].tolist(), size_b[live].tolist())

    def block_low(a, b):
        # Returns a float, so no block's arrays outlive its turn.
        jer, _, feasible = block(a, b)
        return float(np.min(jer, where=feasible, initial=math.inf))

    # Bounds ascend and the best only falls, so the first pruned block
    # prunes every later one.
    lows = {}
    best = math.inf
    for bound, a, b in sorted(bounds):
        if bound * (1.0 - _BOUND_SLACK) > best * (1.0 + _TIE_RTOL):
            break
        lows[a, b] = low = block_low(a, b)
        best = min(best, low)
    if best == math.inf:
        raise NoAffordableJuror(f"no odd subset fits the budget {budget_amount}")
    evaluated = int(sum(count[a, b] for a, b in lows))
    pruned = int(count[odd].sum()) - evaluated

    tied = best * (1.0 + _TIE_RTOL)

    def tie_key(a, b):
        # (cost, size, -union column, jer) of the block's tie winner.
        jer, cost, feasible = block(a, b)
        # Row-major order within a block is id order, so argmin's first
        # hit is the tie winner among equal costs.
        pick = np.argmin(np.where(feasible & (jer <= tied), cost, np.inf))
        i, j = np.unravel_index(pick, cost.shape)
        # The union's column in an n-member table, A's bits above B's.  For
        # unions of one size, the larger column has the smaller member ids.
        union = int(cols_a[a][i]) << (n - split) | int(cols_b[b][j])
        return float(cost[i, j]), a + b, -union, float(jer[i, j])

    total_cost, _, union, jer = min(tie_key(a, b) for (a, b), low in lows.items() if low <= tied)
    members = tuple(order[i] for i in _members(-union, n))
    return SolveResult(Jury(members), jer, math.log10(jer), total_cost, evaluated, pruned)


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
