"""Jury selection from a candidate pool.

Two cost models:

* free enrollment -- every subset is allowed; sorting candidates by error
  rate makes the best jury of each size a prefix, so ``solve_altrm`` scans
  odd prefixes and is exactly optimal, optionally skipping prefixes whose
  tail lower bound already exceeds the best error rate seen;
* paid enrollment -- a jury is feasible only if its summed requirements
  fit a budget.  Exact selection is intractable, so ``solve_paym_greedy``
  grows a jury in cheap pairs, and ``solve_oracle`` provides enumeration
  ground truth for small pools.

``solve_altrm`` and ``solve_paym_greedy`` only grow a jury, so each keeps
one rolling log tail row, ``row[l] = log P(W >= l)`` for the wrong-vote
count ``W``: O(n) to add a juror, O(1) to read, and exact to relative
float precision far below the float floor, where very reliable juries'
error rates live.
"""

from __future__ import annotations

import itertools
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple, Sequence, Union

import numpy as np

from .errors import EmptyPool, NoAffordableJuror, SizeLimitExceeded
from .jer import Juror, Jury

# 2**22 subsets is where exhaustive enumeration stops being a usable
# oracle; the published effectiveness experiments stop there too.
ORACLE_SIZE_MAX = 22


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
        if not self.amount >= 0.0:
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
            gamma = ((n + 1) / 2) / mu
            if 0.0 < gamma < 1.0:
                lead = (1.0 - gamma) ** 2 * mu**2
                bound = lead / (lead + sigma_sq)
                # Compared in logs: best_log may lie below the float floor.
                if math.log(bound) > best_log:
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


class _SizeTable(NamedTuple):
    """All size-k subsets of one pool: member indices, tail probability, cost."""

    k: int
    combos: np.ndarray  # (m, k) indices into the id-sorted candidate order
    jer: np.ndarray  # (m,)
    cost: np.ndarray  # (m,)


def _jer_rows(eps_rows: np.ndarray) -> np.ndarray:
    """Majority tail per row of error rates, all rows in lockstep."""
    m, k = eps_rows.shape
    threshold = (k + 1) // 2
    row = np.zeros((m, threshold + 1))
    row[:, 0] = 1.0
    for j in range(k):
        e = eps_rows[:, j : j + 1]
        row[:, 1:] = row[:, 1:] * (1.0 - e) + row[:, :-1] * e
    return row[:, threshold]


def _build_tables(order: tuple[Juror, ...]) -> list[_SizeTable]:
    n = len(order)
    eps = np.array([j.epsilon for j in order])
    req = np.array([j.requirement for j in order])
    tables = []
    for k in range(1, n + 1, 2):
        count = math.comb(n, k)
        flat = np.fromiter(
            itertools.chain.from_iterable(itertools.combinations(range(n), k)),
            dtype=np.int16,
            count=count * k,
        )
        combos = flat.reshape(count, k)
        tables.append(
            _SizeTable(
                k=k,
                combos=combos,
                jer=_jer_rows(eps[combos]),
                cost=req[combos].sum(axis=1),
            )
        )
    return tables


# Repeated oracle calls on the same pool (budget sweeps) reuse the
# enumeration; the tables for a 22-candidate pool take ~1s to build.
_TABLE_CACHE: OrderedDict[tuple, list[_SizeTable]] = OrderedDict()
_TABLE_CACHE_MAX = 4
_TABLE_LOCK = threading.Lock()


def _tables_for(order: tuple[Juror, ...]) -> list[_SizeTable]:
    key = tuple((j.id, j.epsilon, j.requirement) for j in order)
    with _TABLE_LOCK:
        if key in _TABLE_CACHE:
            _TABLE_CACHE.move_to_end(key)
            return _TABLE_CACHE[key]
        tables = _build_tables(order)
        _TABLE_CACHE[key] = tables
        if len(_TABLE_CACHE) > _TABLE_CACHE_MAX:
            _TABLE_CACHE.popitem(last=False)
        return tables


def solve_oracle(pool: PoolLike, budget: BudgetLike) -> SolveResult:
    """Exhaustive ground truth: the best odd, budget-feasible jury.

    Enumerates every odd-sized subset with total cost within the budget
    and returns one minimizing the jury error rate; ties fall to lower
    cost, then smaller size, then lexicographically smallest member ids.
    Exponential in the pool size, hence capped at 22 candidates.  With all
    requirements zero and an unbounded budget this is the ground truth for
    ``solve_altrm`` as well.
    """
    candidates = _candidates(pool)
    n = len(candidates)
    if n > ORACLE_SIZE_MAX:
        raise SizeLimitExceeded(f"oracle enumeration capped at {ORACLE_SIZE_MAX}, got {n}")
    budget_amount = _amount(budget)

    # Id-sorted order makes combination row order the id-lexicographic
    # order, so the first row among exact ties is the tie-break winner.
    order = tuple(sorted(candidates, key=lambda j: j.id))
    evaluated = 0
    best: tuple[float, float] | None = None  # (jer, cost); sizes scan small-first
    best_combo = None
    for table in _tables_for(order):
        feasible = np.flatnonzero(table.cost <= budget_amount)
        if feasible.size == 0:
            continue
        evaluated += int(feasible.size)
        # lexsort is stable, so among exact (jer, cost) ties the lowest row
        # index, i.e. the id-lexicographic minimum, comes out first.
        pick = feasible[np.lexsort((table.cost[feasible], table.jer[feasible]))[0]]
        key = (float(table.jer[pick]), float(table.cost[pick]))
        if best is None or key < best:
            best = key
            best_combo = table.combos[pick]

    if best is None:
        raise NoAffordableJuror(f"no odd subset fits the budget {budget_amount}")
    members = tuple(order[i] for i in best_combo)
    return SolveResult(Jury(members), best[0], math.log10(best[0]), best[1], evaluated, 0)


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
