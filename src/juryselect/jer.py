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

The log tail row of T(l) = log P(W >= l) is the one tail kernel
(``_tail_row``, ``_band``, ``_advance``), held by two growers: each steps
it by a group of BLOCK = 16 jurors, given the group's wrong-count pmf,
on the band of tails a later read can reach, by one rule, and reads the
juries in between off the block-start row.  ``odd_prefix_tails`` reads
every odd prefix of a list of error rates, eight per block in one batch;
``log_jer`` takes its last tail and ``solve_altrm`` reads them all.
``PairGrower`` grows ``solve_paym_greedy``'s jury pair by pair and
prices each trial pair by the same read in O(1).  A read scales each tail by the largest one it
sums, and a step scales each aligned chunk of BLOCK tails by the largest
tail its inputs hold, two ``exp``s per tail; both add only positive
terms, with vectorised ``exp`` and ``log``, so the row stays exact to
relative float precision far below the float floor (1e-308), where very
reliable juries' error rates live.

``jer_lower_bound`` gives a Paley-Zygmund style lower bound on the tail
from the first two moments of the wrong count, in O(n).  No solver uses
it: the free scan reads each prefix's tail off its block-start row in a
batch of eight, so skipping a read saves nothing.
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

# Jurors absorbed per tail row update in the odd-prefix scan, whose reads
# cover the BLOCK // 2 prefixes in between, and tails per chunk of a
# step.  A group step's least weight, EPSILON_FLOOR ** BLOCK = 1e-96, and
# the least scaled input it divides by, about (1e-6 / n) ** (BLOCK - 1),
# must stay far above the float floor, and a read's zero-weighted terms,
# exp of at most about 22 per index, far below exp's overflow; within
# that the value only affects speed.
BLOCK = 16
_PAIRS = BLOCK // 2

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


def jury_epsilons(jury: JuryLike, require_odd: bool = True) -> np.ndarray:
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
    eps = jury_epsilons(jury)
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


def _tail_row(first: float, last: int) -> np.ndarray:
    """The log tail row of one juror of error rate ``first``: entry i holds
    T(i - BLOCK) = log P(W >= i - BLOCK) for tails -BLOCK through ``last``
    + BLOCK, ``last`` the highest threshold any read weighs.  The BLOCK
    spare tails stay log 0 and hold the top chunk's inputs of a step."""
    row = np.full(2 * BLOCK + last + 1, -np.inf)
    row[: BLOCK + 1] = 0.0
    row[BLOCK + 1] = math.log(first)
    return row


def _band(size: int, last: int) -> tuple[int, int]:
    """Tails lo .. hi - 1 of a step to ``size`` jurors on a :func:`_tail_row`
    of top ``last``: max(1, size - last + 1), rounded down to a multiple
    of BLOCK, through min(size, last).  Tails above the size are log 0; a
    read of k + 2j <= 2 last jurors off the row of k weighs tails (k + 1)
    / 2 - j >= k - last + 1 through (k + 1) / 2 + j <= last; the rounding
    keeps the tails a step scales by, BLOCK below each chunk, in the band
    of the step before, BLOCK jurors back."""
    return max(1, (size - last + 1) // BLOCK * BLOCK), min(size, last) + 1


def _advance(row: np.ndarray, q: np.ndarray, lo: int, hi: int) -> None:
    """Absorb a group of m = ``q.size - 1`` jurors, whose wrong count has
    pmf ``q``, into tails T(lo) through T(hi - 1) of ``row``, in place:
    T(l) becomes T(l - m) + log sum_s q[s] exp(T(l - s) - T(l - m)),
    with two exps per tail, not m + 1.  The band is taken in chunks
    aligned to absolute multiples of BLOCK: chunk c holds tails l =
    BLOCK c .. BLOCK c + BLOCK - 1, and its inputs x = BLOCK c - BLOCK ..
    BLOCK c + BLOCK - 1 are scaled by the first and largest of them,
    U(x) = exp(T(x) - T(BLOCK c - BLOCK)), one exp per input.  Each tail
    then sums q[s] U(l - s) / U(l - m) in place of q[s] exp(T(l - s) -
    T(l - m)), so its s = m term is q[m] exactly, as with a reference per
    tail.  The reference depends on the chunk alone, never on the band,
    so a tail comes out the same, bit for bit, in any band that holds it.

    No U exceeds 1.  For m = BLOCK, U(l - m) lies at most BLOCK - 1
    indices from its reference, and a tail is at least 1e-6 / n times the
    one below it, so U(l - m) is at least about 1e-155 at n = 2e4; an
    input whose U underflows weighs at most 1e-153 against it.  (Smaller
    groups reach 2 BLOCK - 1 - m indices.)  Each sum is at least q[m],
    the product of the group's error rates, at least 1e-6 ** BLOCK =
    1e-96, and tails fall with l, so it is at most about 1.  The divide
    and log run over the band only, as a chunk's other entries may be 0,
    and entries outside the band keep their old values.  ``lo`` is at
    least 1 and m at most BLOCK; tails from lo rounded down to a multiple
    of BLOCK, less BLOCK, must be current, the last tail updated must not
    pass the jury's new size, and the row must hold the top chunk's inputs,
    as a :func:`_tail_row` does for a :func:`_band`.
    """
    m = q.size - 1
    start, stop = lo - lo % BLOCK, hi - 1 - (hi - 1) % BLOCK + BLOCK
    chunks = (stop - start) // BLOCK
    refs = row[start : stop - BLOCK + 1 : BLOCK]
    # u[i, c] = U(BLOCK c - BLOCK + i) of chunk c, in C order, and
    # terms[j, s, c] = U(BLOCK c + j - s): the sum over s runs along
    # contiguous chunks, and a column-major ravel puts tails in order.
    inputs = np.ndarray((2 * BLOCK, chunks), buffer=row, offset=start * 8, strides=(8, BLOCK * 8))
    u = np.subtract(inputs, refs, order="C")
    np.exp(u, out=u)
    terms = np.ndarray(
        (BLOCK, m + 1, chunks), buffer=u, offset=BLOCK * chunks * 8, strides=(chunks * 8, -chunks * 8, 8)
    )
    # einsum sums each tail's terms in order of s whatever the number of
    # chunks; a BLAS matvec rounds a tail by its place in the band.
    total = np.einsum("jsc,s->jc", terms, q).ravel("F")[lo - start : hi - start]
    np.divide(total, u[BLOCK - m : 2 * BLOCK - m].ravel("F")[lo - start : hi - start], out=total)
    np.log(total, out=total)
    np.add(row[lo - m + BLOCK : hi - m + BLOCK], total, out=row[lo + BLOCK : hi + BLOCK])


def _pair_weights(a, b, ca, cb):
    """P(0), P(1) and P(2 wrong) of two jurors with error rates ``a`` and
    ``b``, given ``ca`` = 1 - a and ``cb`` = 1 - b: floats or arrays."""
    return ca * cb, a * cb + ca * b, a * b


def _pmf_table(steps: int, blocks: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows j = 0 .. steps of wrong-count pmfs of j pairs, one per block:
    entry [j, b, i] holds Q_j[i], i = 0 .. BLOCK; row 0 holds the empty
    group.  Also returns the shifted view, entry [j, b, i, s] = Q_j[i - s]
    for s = 0 .. 2, which reads two zeros kept before each pmf."""
    padded = np.zeros((steps + 1, blocks, BLOCK + 3))
    padded[0, :, 2] = 1.0
    shifted = np.ndarray(
        (steps + 1, blocks, BLOCK + 1, 3), buffer=padded, offset=16, strides=padded.strides + (-8,)
    )
    return padded[..., 2:], shifted


def _absorb_pair(pmfs: np.ndarray, shifted: np.ndarray, j: int, weights: np.ndarray) -> None:
    """Row j + 1 of a :func:`_pmf_table` becomes row j with one more pair
    absorbed, whose :func:`_pair_weights` are ``weights``, shape
    (blocks, 3, 1): Q_{j+1}[i] = sum_s Q_j[i - s] weights[s], one matmul."""
    np.matmul(shifted[j], weights, out=pmfs[j + 1, ..., None])


def _read_terms(row: np.ndarray, t: int, h: int) -> tuple[np.ndarray, np.ndarray]:
    """The (h, BLOCK + 1) exp table and the bases of the reads j = 0 .. h - 1
    off a row of threshold ``t``: read j gives T'(t + j) after j more
    pairs, T(t - j) + log sum_i Q_j[i] exp(T(t + j - i) - T(t - j)).

    Entry [j, i] is exp(T(t + j - i) - T(t - j)).  Q_j, the pmf of j
    pairs zero-padded to BLOCK + 1 entries, weighs only i <= 2j, where
    the tails fall and no exp exceeds 1; read 0 weighs exp(0) = 1 by
    Q_0 = [1], so it gives T(t) exactly.  The zero-weighted entries past
    that stay finite, so they add exact zeros: one juror's error rate is
    at least 1e-6, so a tail is at least 1e-6 / n times the one below it,
    and tails of fewer jurors, stale below the scan's band, are smaller
    still.  Read 0 reaches BLOCK indices below its base, the most of any
    read; BLOCK such steps stay far from exp's overflow at any pool size
    the scan can handle.
    """
    view = np.ndarray((h, BLOCK + 1), buffer=row, offset=(t + BLOCK) * 8, strides=(8, -8))
    base = row[t - h + 1 + BLOCK : t + 1 + BLOCK][::-1]
    terms = np.subtract(view, base[:, None])
    np.exp(terms, out=terms)
    return terms, base


def _read(terms: np.ndarray, base: np.ndarray, pmfs: np.ndarray) -> np.ndarray:
    """The log tails of rows of :func:`_read_terms` weighed by ``pmfs``."""
    total = (terms * pmfs).sum(axis=-1)
    np.log(total, out=total)
    return np.add(total, base, out=total)


def _block_pmfs(eps: list[float]) -> np.ndarray:
    """The :func:`_pmf_table` of the scan over ``eps``: entry [j, b] holds
    the pmf of the first j pairs of block b, for every block at once.

    Block b holds jurors 1 + BLOCK b through BLOCK (b + 1); missing pairs
    are padded with error rate 0, which absorbs as the identity.  Pair
    positions past the list's own are not built.
    """
    blocks = (len(eps) - 1) // BLOCK + 1
    steps = min(_PAIRS, (len(eps) - 1) // 2)
    pmfs, shifted = _pmf_table(steps, blocks)
    if steps:
        rates = np.zeros(blocks * BLOCK)
        rates[: len(eps) - 1] = eps[1:]
        # a and b of pair position j in block b at [j, b, 0, 0].
        pairs = rates.reshape(blocks, _PAIRS, 2)[:, :steps].T[..., None, None]
        weights = np.concatenate(_pair_weights(*pairs, *(1.0 - pairs)), axis=-2)
        for j in range(steps):
            _absorb_pair(pmfs, shifted, j, weights[j])
    return pmfs


def odd_prefix_tails(eps: list[float]) -> Iterator[tuple[int, float]]:
    """(k, log P(W_k >= (k + 1) / 2)) for each odd prefix k of ``eps``, an
    odd number of error rates, in order of k.

    One :func:`_tail_row` holds the first juror, then absorbs BLOCK
    jurors per :func:`_advance`.  The odd prefixes of a block, k + 2j for
    j = 0 .. BLOCK / 2 - 1 from the block-start prefix k, are read off the
    row of k in one batch, each with the pmf of the block's first j pairs
    (:func:`_read_terms`; read 0 is the row's own tail), all pmfs built
    at once (:func:`_block_pmfs`).  The advance to prefix k + BLOCK
    updates only its :func:`_band`, with last = (len(eps) + 1) // 2 the
    last prefix's threshold.  The last block needs no advance.
    """
    n = len(eps)
    last = (n + 1) // 2
    row = _tail_row(eps[0], last)
    pmfs = _block_pmfs(eps)
    for b, k in enumerate(range(1, n + 1, BLOCK)):
        reads = min(_PAIRS, (n - k) // 2 + 1)
        tails = _read(*_read_terms(row, (k + 1) // 2, reads), pmfs[:reads, b])
        yield from zip(range(k, n + 1, 2), tails.tolist())
        if k + BLOCK <= n:
            _advance(row, pmfs[_PAIRS, b], *_band(k + BLOCK, last))


class PairGrower:
    """A jury grown pair by pair from one juror of error rate ``first``,
    on a :func:`_tail_row` topped at ``last``, the highest threshold it
    can reach: (N + 1) // 2 for a pool of N candidates.

    As in :func:`odd_prefix_tails`, the row stays at the jury's last
    BLOCK-juror boundary, the jury is read j off it by the pmf of the j
    pairs admitted since, and every BLOCK / 2 admitted pairs the row
    advances by their pmf on the scan's :func:`_band`.  :meth:`price`
    weighs the next read by that pmf with the trial pair absorbed: base +
    log(p0 x0 + p1 x1 + p2 x2), x_s the dot of the read's exp row with
    the pmf shifted by s, taken once per admission, so a trial is O(1).
    """

    def __init__(self, first: float, last: int):
        self._last, self._size, self._admitted = last, 1, 0
        self._row = _tail_row(first, last)
        # Row j is rewritten whole when pair j is admitted, so one table
        # serves every block.
        self._pmfs, self._shifted = _pmf_table(_PAIRS, 1)
        self._terms, self._base = _read_terms(self._row, 1, _PAIRS + 1)
        self._reprice()

    def _reprice(self) -> None:
        read = self._admitted + 1
        self._low = float(self._base[read])
        self._dots = (self._terms[read] @ self._shifted[self._admitted, 0]).tolist()

    def price(self, a: float, b: float) -> float:
        """The log error rate of the jury plus a pair of error rates a, b."""
        p0, p1, p2 = _pair_weights(a, b, 1.0 - a, 1.0 - b)
        x0, x1, x2 = self._dots
        return self._low + math.log(p0 * x0 + p1 * x1 + p2 * x2)

    def admit(self, a: float, b: float) -> None:
        """Add jurors of error rates ``a`` and ``b`` to the jury."""
        weights = np.array(_pair_weights(a, b, 1.0 - a, 1.0 - b)).reshape(1, 3, 1)
        _absorb_pair(self._pmfs, self._shifted, self._admitted, weights)
        self._admitted += 1
        self._size += 2
        if self._admitted == _PAIRS:
            _advance(self._row, self._pmfs[_PAIRS, 0], *_band(self._size, self._last))
            self._terms, self._base = _read_terms(self._row, (self._size + 1) // 2, _PAIRS + 1)
            self._admitted = 0
        self._reprice()

    def log_tail(self) -> float:
        """The log error rate of the jury: the scan's own read of it, so
        :func:`log_jer` of the jury gives it bit for bit."""
        read = slice(self._admitted, self._admitted + 1)
        return min(float(_read(self._terms[read], self._base[read], self._pmfs[self._admitted])[0]), 0.0)


def log_jer(jury: JuryLike) -> float:
    """Natural log of the group error rate, exact to relative float
    precision at any depth, far below the float floor.

    The last tail of the odd-prefix scan (:func:`odd_prefix_tails`).
    O(n^2) time, O(n) space.
    """
    *_, (_, log_tail) = odd_prefix_tails(jury_epsilons(jury).tolist())
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
    eps = jury_epsilons(jury, require_odd=False)
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
    eps = jury_epsilons(jury)
    return jer_from_distribution(WrongCountDistribution(_cba(eps)))


def jer_lower_bound(jury: JuryLike) -> BoundDiagnostics:
    """O(n) tail lower bound from the first two moments of the wrong count.

    Returns the moments always; the bound itself only when
    gamma = ((n+1)/2) / mu falls in (0, 1), the window where the
    Paley-Zygmund inequality applies.
    """
    eps = jury_epsilons(jury)
    mu = float(eps.sum())
    sigma_sq = float((eps * (1.0 - eps)).sum())
    gamma = ((eps.size + 1) / 2) / mu
    bound = None
    if 0.0 < gamma < 1.0:
        lead = (1.0 - gamma) ** 2 * mu**2
        bound = lead / (lead + sigma_sq)
    return BoundDiagnostics(mu=mu, sigma_sq=sigma_sq, gamma=gamma, bound=bound)
