"""Jury error rate for majority voting over independent, unequal voters.

The number of wrong voters in a group follows a Poisson-Binomial
distribution; the group errs when that count reaches the majority
threshold (n+1)/2.  Three routes to the same tail probability live here:

* ``jer_naive``   -- exact subset enumeration, the oracle the fast paths
  are checked against (capped at n = 25);
* ``log_jer`` and ``jer_dp`` -- O(n^2) recurrence on the log tail row;
* ``wrong_count_distribution`` + ``jer_from_distribution`` -- O(n log n)
  divide and conquer that builds the full wrong-count mass by polynomial
  convolution (FFT above a size cutoff).

The log tail row of P(W >= l), l = -1, 0, 1, ..., is the one tail
kernel (``_empty_row``, ``_advance``): it absorbs the first juror, then
two jurors per step.  ``_odd_prefix_tails`` runs it over the odd
prefixes of a list of error rates, advancing only the band of entries a
later read can reach; ``log_jer`` takes its last tail, ``solve_altrm``
reads every prefix, and ``solve_paym_greedy`` advances copies of the
row pair by pair.  A step scales each tail by the largest
one it reads and adds only positive terms, with vectorised ``exp`` and
``log``, so the row stays exact to relative float precision far below
the float floor (1e-308), where very reliable juries' error rates live.

``jer_lower_bound`` gives a Paley-Zygmund style lower bound on the tail
from the first two moments of the wrong count, in O(n).  No solver uses
it: the free scan reads each prefix's tail in O(1) from its rolling row,
so skipping that read saves nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from .errors import EvenSize, InvalidDistribution, InvalidJury, SizeLimitExceeded

EPSILON_FLOOR = 1e-6
EPSILON_CEIL = 1.0 - 1e-6

# min(len) at or below this uses the direct product; FFT otherwise.  Both
# paths must agree within 1e-9, so the value only affects speed.
DIRECT_CONVOLUTION_MAX = 64

# 2**25 terms, summed as pairs of half-subsets, take a fraction of a
# second; each further juror doubles that, so past the cap the
# enumeration stops being a usable oracle.
NAIVE_SIZE_MAX = 25

_NEGATIVE_MASS_TOL = 1e-9
_MASS_SUM_TOL = 1e-6


def clamp_epsilon(value: float) -> float:
    """Clamp an individual error rate into [1e-6, 1 - 1e-6]."""
    return min(max(float(value), EPSILON_FLOOR), EPSILON_CEIL)


@dataclass(frozen=True)
class Juror:
    """One candidate voter: identifier, error rate, payment requirement.

    ``epsilon`` is the probability of voting against the ground truth and
    is clamped into [1e-6, 1 - 1e-6] on construction so that estimated
    scores hitting 0 or 1 never produce a deterministic voter.
    ``requirement`` is the payment needed to enroll the juror (0 for
    altruistic voters).  Both must be finite: NaN and infinities are
    rejected with ``ValueError`` rather than clamped.
    """

    id: str
    epsilon: float
    requirement: float = 0.0

    def __post_init__(self):
        for name in ("epsilon", "requirement"):
            if not math.isfinite(float(getattr(self, name))):
                raise ValueError(f"juror {self.id!r}: {name} must be finite")
        object.__setattr__(self, "epsilon", clamp_epsilon(self.epsilon))
        object.__setattr__(self, "requirement", float(self.requirement))
        if not self.requirement >= 0.0:
            raise ValueError(f"juror {self.id!r}: requirement must be >= 0")


@dataclass(frozen=True)
class Jury:
    """An odd-sized group of distinct jurors voting under majority rule."""

    members: tuple[Juror, ...]

    def __post_init__(self):
        members = tuple(self.members)
        object.__setattr__(self, "members", members)
        n = len(members)
        if n == 0:
            raise InvalidJury("a jury needs at least one member")
        if n % 2 == 0:
            raise InvalidJury(f"jury size must be odd, got {n}")
        if len({j.id for j in members}) != n:
            raise InvalidJury("jury member ids must be distinct")

    @classmethod
    def from_epsilons(cls, epsilons: Iterable[float], requirement: float = 0.0) -> "Jury":
        """Build a jury with generated ids; handy for tests and demos."""
        members = [Juror(f"j{i}", e, requirement) for i, e in enumerate(epsilons)]
        return cls(tuple(members))

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def epsilons(self) -> np.ndarray:
        return np.array([j.epsilon for j in self.members])

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


JuryLike = Union[Jury, Sequence[Juror]]


def _epsilons(jury: JuryLike, require_odd: bool = True) -> np.ndarray:
    """Extract the error-rate vector, validating size parity."""
    if isinstance(jury, Jury):
        eps = jury.epsilons
    else:
        members = tuple(jury)
        if not all(isinstance(j, Juror) for j in members):
            raise InvalidJury("jury members must be Juror instances")
        eps = np.array([j.epsilon for j in members])
    if eps.size == 0:
        raise InvalidJury("a jury needs at least one member")
    if require_odd and eps.size % 2 == 0:
        raise InvalidJury(f"jury size must be odd, got {eps.size}")
    return eps


@dataclass(frozen=True)
class WrongCountDistribution:
    """Probability mass of the number of wrong voters in a group of size n.

    ``mass[k]`` is Pr(exactly k of the n voters are wrong).  Construction
    clamps FFT round-off residue (entries within 1e-9 outside [0, 1]) and
    rejects anything further out, and requires the total mass to be 1
    within 1e-6.
    """

    mass: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.mass, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise InvalidDistribution("mass must be a non-empty 1-d array")
        if not np.all(np.isfinite(arr)):
            raise InvalidDistribution("mass must be finite")
        low = arr.min()
        if low < -_NEGATIVE_MASS_TOL:
            raise InvalidDistribution(
                f"mass has entry {low}, below the -{_NEGATIVE_MASS_TOL} round-off allowance"
            )
        high = arr.max()
        if high > 1.0 + _NEGATIVE_MASS_TOL:
            raise InvalidDistribution(
                f"mass has entry {high}, above the 1 + {_NEGATIVE_MASS_TOL} round-off allowance"
            )
        arr = np.clip(arr, 0.0, 1.0)
        total = float(arr.sum())
        if abs(total - 1.0) > _MASS_SUM_TOL:
            raise InvalidDistribution(f"mass sums to {total}, expected 1 within {_MASS_SUM_TOL}")
        arr.setflags(write=False)
        object.__setattr__(self, "mass", arr)

    @property
    def size(self) -> int:
        """The group size n; the mass vector has n + 1 entries."""
        return self.mass.size - 1


@dataclass(frozen=True)
class BoundDiagnostics:
    """Moments behind the tail lower bound.

    ``mu`` and ``sigma_sq`` are the mean and variance of the wrong count,
    ``gamma`` is the majority threshold divided by ``mu``.  ``bound`` is
    the Paley-Zygmund tail bound (1-g)^2 mu^2 / ((1-g)^2 mu^2 + s^2) and
    is only present when gamma lies in (0, 1); outside that window the
    inequality says nothing and callers must evaluate the tail directly.
    """

    mu: float
    sigma_sq: float
    gamma: float
    bound: float | None = None


def jer_naive(jury: JuryLike) -> float:
    """Group error rate by enumerating every majority-sized wrong subset.

    Sums prod(eps_i, i in A) * prod(1 - eps_j, j not in A) over all subsets
    A with |A| >= (n+1)/2.  Exponential; refuses n > 25.  This is the
    ground truth the two fast algorithms are validated against.
    """
    eps = _epsilons(jury)
    n = int(eps.size)
    if n > NAIVE_SIZE_MAX:
        raise SizeLimitExceeded(f"naive enumeration capped at n = {NAIVE_SIZE_MAX}, got {n}")
    threshold = (n + 1) // 2
    # Meet in the middle: every subset of the jury is one subset of each
    # half, so the sum runs over all pairs of half-subsets (A's rows in
    # chunks, keeping each block near a million entries).
    p_a, c_a = _subset_table(eps[: n // 2])
    p_b, c_b = _subset_table(eps[n // 2 :])
    rows = max(1, (1 << 20) // p_b.size)
    total = 0.0
    for lo in range(0, p_a.size, rows):
        wrong = c_a[lo : lo + rows, None] + c_b[None, :] >= threshold
        total += float(np.where(wrong, p_a[lo : lo + rows, None] * p_b[None, :], 0.0).sum())
    return min(max(total, 0.0), 1.0)


def _subset_table(eps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Probability and wrong count of each subset of ``eps`` voting wrong."""
    prob, count = np.ones(1), np.zeros(1, dtype=np.int64)
    for e in eps:
        prob = np.concatenate([prob * (1.0 - e), prob * e])
        count = np.concatenate([count, count + 1])
    return prob, count


def _empty_row(length: int) -> np.ndarray:
    """The log tail row of an empty jury: entry i holds log P(W >= i - 1),
    so P(W >= -1) = P(W >= 0) = 1 and every other tail is 0."""
    row = np.full(length, -np.inf)
    row[:2] = 0.0
    return row


def _advance(row: np.ndarray, a: float, b: float, lo: int, hi: int) -> None:
    """Absorb two jurors with error rates ``a`` and ``b`` into ``row[lo:hi]``,
    in place; ``b = 0.0`` absorbs ``a`` alone.

    Entry i holds T(i - 1) = log P(W >= i - 1).  With base = T(l - 2),
    T(l) becomes base + log(p2 + p1 exp(T(l - 1) - base) + p0 exp(T(l) -
    base)), where p2 = ab, p1 = a(1 - b) + (1 - a)b and p0 = (1 - a)(1 - b):
    every term is positive and no exp exceeds 1.  Entries outside the band
    keep their old values.  ``lo`` is at least 2, and the last tail
    updated, T(hi - 2), must not pass the jury's new size: above it the
    base is log 0 and the result NaN.
    """
    base = row[lo - 2 : hi - 2].copy()
    mid = np.exp(row[lo - 1 : hi - 1] - base)
    top = np.exp(row[lo:hi] - base)
    mid *= a * (1.0 - b) + (1.0 - a) * b
    mid += a * b
    top *= (1.0 - a) * (1.0 - b)
    mid += top
    np.log(mid, out=mid)
    np.add(base, mid, out=row[lo:hi])


def _odd_prefix_tails(eps: list[float]) -> Iterator[tuple[int, float]]:
    """(k, log P(W_k >= (k + 1) / 2)) for each odd prefix k of ``eps``, an
    odd number of error rates, in order of k.

    One log tail row absorbs the first juror, then the pairs (2, 3),
    (4, 5), ....  The step to prefix k advances only the row's live band,
    tails max(1, k - t + 1) through min(k, t), with t = (len(eps) + 1) // 2
    the last prefix's threshold: tails above k are log 0, and one below
    k - t + 1 can no longer reach a read, since tail l after prefix k
    feeds only tails l through l + 2 after prefix k + 2.
    """
    row = _empty_row((len(eps) + 1) // 2 + 2)
    for k, a, b in zip(range(1, len(eps) + 1, 2), eps[:1] + eps[1::2], [0.0] + eps[2::2]):
        _advance(row, a, b, max(2, k - row.size + 4), min(k + 2, row.size))
        yield k, float(row[(k + 3) // 2])


def log_jer(jury: JuryLike) -> float:
    """Natural log of the group error rate, exact to relative float
    precision at any depth, far below the float floor.

    The last tail of the odd-prefix scan (:func:`_odd_prefix_tails`).
    O(n^2) time, O(n) space.
    """
    *_, (_, log_tail) = _odd_prefix_tails(_epsilons(jury).tolist())
    # Rounding can lift a tail near 1 a hair above log 1.
    return min(log_tail, 0.0)


def jer_dp(jury: JuryLike) -> float:
    """Group error rate, ``exp(log_jer(jury))``: the solvers' tail kernel,
    so it equals ``solve_altrm``'s ``jer`` for the jury it picks, bit for
    bit.  Reads 0.0 once the error rate falls below the float floor
    (about 1e-308); :func:`log_jer` carries it at any depth.
    """
    return math.exp(log_jer(jury))


def _convolve_mass(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if min(a.size, b.size) <= DIRECT_CONVOLUTION_MAX:
        return np.convolve(a, b)
    out_len = a.size + b.size - 1
    size = 1 << (out_len - 1).bit_length()
    spectrum = np.fft.rfft(a, size) * np.fft.rfft(b, size)
    return np.fft.irfft(spectrum, size)[:out_len]


def convolve(
    a: WrongCountDistribution | Sequence[float],
    b: WrongCountDistribution | Sequence[float],
) -> WrongCountDistribution:
    """Distribution of the sum of two independent wrong counts.

    Direct product for small inputs, FFT multiplication for large ones;
    the two paths agree within 1e-9 and tiny negative FFT residue is
    clamped to zero by the result's constructor.
    """
    if not isinstance(a, WrongCountDistribution):
        a = WrongCountDistribution(np.asarray(a, dtype=float))
    if not isinstance(b, WrongCountDistribution):
        b = WrongCountDistribution(np.asarray(b, dtype=float))
    return WrongCountDistribution(_convolve_mass(a.mass, b.mass))


def _cba(eps: np.ndarray) -> np.ndarray:
    n = eps.size
    if n == 1:
        e = eps[0]
        return np.array([1.0 - e, e])
    half = n // 2
    return _convolve_mass(_cba(eps[:half]), _cba(eps[half:]))


def wrong_count_distribution(jury: JuryLike) -> WrongCountDistribution:
    """Full wrong-count mass by divide and conquer.

    Splits the group into halves of sizes floor(n/2) and ceil(n/2),
    recurses, and merges with :func:`convolve`; a single juror contributes
    [1 - eps, eps].  Even-sized groups are accepted (the recursion halves
    do not preserve oddness), so the result may not support a majority
    tail; see :func:`jer_from_distribution`.
    """
    eps = _epsilons(jury, require_odd=False)
    return WrongCountDistribution(_cba(eps))


def jer_from_distribution(dist: WrongCountDistribution) -> float:
    """Majority-failure probability: the mass at or above (n+1)/2 wrong voters."""
    n = dist.size
    if n % 2 == 0:
        raise EvenSize(f"majority threshold undefined for even group size {n}")
    tail = float(dist.mass[(n + 1) // 2 :].sum())
    return min(max(tail, 0.0), 1.0)


def jer_cba(jury: JuryLike) -> float:
    """Group error rate via the convolution route.

    The FFT leaves about 1e-16 *absolute* error, so tails far below that
    come out as round-off: the 177-juror optimum of
    ``SynthConfig(1000, 0.1, 0.1, seed=1)``, whose log10 error rate is
    -477.93, reads 2.369e-16.  :func:`log_jer` is exact at any depth.
    """
    eps = _epsilons(jury)
    return jer_from_distribution(WrongCountDistribution(_cba(eps)))


def jer_lower_bound(jury: JuryLike) -> BoundDiagnostics:
    """O(n) tail lower bound from the first two moments of the wrong count.

    Returns the moments always; the bound itself only when
    gamma = ((n+1)/2) / mu falls in (0, 1), the window where the
    Paley-Zygmund inequality applies.
    """
    eps = _epsilons(jury)
    mu = float(eps.sum())
    sigma_sq = float((eps * (1.0 - eps)).sum())
    gamma = ((eps.size + 1) / 2) / mu
    bound = None
    if 0.0 < gamma < 1.0:
        lead = (1.0 - gamma) ** 2 * mu**2
        bound = lead / (lead + sigma_sq)
    return BoundDiagnostics(mu=mu, sigma_sq=sigma_sq, gamma=gamma, bound=bound)
