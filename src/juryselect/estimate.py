"""Per-user error rates and payment requirements from a micro-blog corpus.

Pipeline: parse forwarding chains out of tweet text, accumulate them into
a directed user graph, rank the graph (HITS authority or PageRank), then
squash scores into error rates with ``scores_to_error_rates``.  Payment
requirements come separately from account ages via
``ages_to_requirements``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Union

import numpy as np

from .errors import DegenerateScores, EmptyGraph
from .jer import clamp_epsilon

# Handles are runs of ASCII letters, digits and underscore after the
# forwarding marker; matching is case-sensitive.
_RETWEET_MARKER = re.compile(r"RT @(\w+)", re.ASCII)


class TweetRecord(NamedTuple):
    """One corpus record: who posted what, and optionally when they registered."""

    author: str
    content: str
    author_created_at: float | None = None


class UserGraph:
    """Directed retweet graph: edge (u, v) means u forwarded v's content.

    Held as ``names`` (sorted) plus ``src``/``dst`` index arrays into them,
    one entry per edge in sorted pair order.  Edges deduplicate by
    construction and self-forwards are dropped; both would otherwise
    distort the rankings.  ``UserGraph(nodes, edges)`` builds one from
    name collections and rejects an edge endpoint outside ``nodes``.
    """

    __slots__ = ("names", "src", "dst")

    def __init__(self, nodes: Iterable[str], edges: Iterable[tuple[str, str]]):
        names = sorted(set(nodes))
        index = {name: i for i, name in enumerate(names)}
        pairs = []
        for u, v in edges:
            if u not in index or v not in index:
                raise ValueError(f"edge ({u!r}, {v!r}) has an endpoint outside nodes")
            pairs.append((index[u], index[v]))
        ids = np.array(pairs, dtype=np.intp).reshape(-1, 2)
        self._set(names, ids[:, 0], ids[:, 1])

    @classmethod
    def _indexed(cls, names: list[str], src: np.ndarray, dst: np.ndarray) -> "UserGraph":
        """Graph over sorted ``names`` from (possibly repeated) index pairs."""
        graph = cls.__new__(cls)
        graph._set(names, src, dst)
        return graph

    def _set(self, names, src, dst) -> None:
        # Keys src * n + dst sort in pair order, so one np.unique both
        # deduplicates the edges and puts them in that order.
        n = max(len(names), 1)
        keep = src != dst
        keys = np.unique(src[keep].astype(np.int64) * n + dst[keep])
        object.__setattr__(self, "names", tuple(names))
        for attr, column in zip(("src", "dst"), np.divmod(keys, n)):
            column = column.astype(np.intp, copy=False)
            column.flags.writeable = False
            object.__setattr__(self, attr, column)

    def __setattr__(self, name, value):
        raise AttributeError(f"UserGraph is immutable; cannot set {name!r}")

    @property
    def nodes(self) -> frozenset[str]:
        return frozenset(self.names)

    @property
    def edges(self) -> frozenset[tuple[str, str]]:
        names = self.names
        return frozenset((names[u], names[v]) for u, v in zip(self.src.tolist(), self.dst.tolist()))

    @property
    def node_count(self) -> int:
        return len(self.names)

    def __eq__(self, other) -> bool:
        if not isinstance(other, UserGraph):
            return NotImplemented
        return (
            self.names == other.names
            and np.array_equal(self.src, other.src)
            and np.array_equal(self.dst, other.dst)
        )

    def __repr__(self) -> str:
        return f"UserGraph({self.node_count} nodes, {self.src.size} edges)"


@dataclass(frozen=True)
class RankConfig:
    """Knobs for the ranking iterations and the score-to-error-rate squash."""

    damping: float = 0.85
    max_iterations: int = 100
    tolerance: float = 1e-8
    alpha: float = 10.0
    beta: float = 10.0

    def __post_init__(self):
        if not 0.0 < self.damping < 1.0:
            raise ValueError("damping must lie in (0, 1)")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not self.tolerance > 0.0:
            raise ValueError("tolerance must be positive")
        # An infinite alpha turns beta ** (-alpha * 0) into nan.
        if not 0.0 < self.alpha < math.inf:
            raise ValueError("alpha must be positive and finite")
        if not 1.0 < self.beta < math.inf:
            raise ValueError("beta must exceed 1 and be finite")


@dataclass(frozen=True)
class ScoreMap:
    """Quality score per username; HITS runs also carry the hub side."""

    scores: dict[str, float]
    hubs: dict[str, float] | None = None


def parse_retweet_chains(record: TweetRecord) -> list[tuple[str, str]]:
    """Forwarding pairs implied by one tweet.

    Every "RT @name" occurrence extends the chain author -> u1 -> u2 -> ...
    in order of appearance; consecutive chain members become directed
    pairs.  A marker with no username character after it is ignored.
    """
    chain = [record.author, *_RETWEET_MARKER.findall(record.content)]
    return list(zip(chain, chain[1:]))


def build_graph(corpus: Iterable[TweetRecord]) -> UserGraph:
    """Accumulate a corpus into a deduplicated directed user graph.

    Every author becomes a node even without any forwarding relation;
    repeated pairs collapse to one edge and self-forwards are dropped.
    One pass interns names to ints in order of first appearance; the ints
    are then renumbered into sorted-name order.
    """
    index: dict[str, int] = {}
    intern = index.setdefault
    src: list[int] = []
    dst: list[int] = []
    for record in corpus:
        prev = intern(record.author, len(index))
        for name in _RETWEET_MARKER.findall(record.content):
            here = intern(name, len(index))
            src.append(prev)
            dst.append(here)
            prev = here
    names = sorted(index)
    position = np.empty(len(names), dtype=np.intp)
    position[list(map(index.__getitem__, names))] = np.arange(len(names))
    return UserGraph._indexed(
        names, position[np.array(src, dtype=np.intp)], position[np.array(dst, dtype=np.intp)]
    )


def _scatter(index: np.ndarray, weights: np.ndarray | None, n: int) -> np.ndarray:
    """Per-node sums of ``weights`` (or counts), added in edge order."""
    # bincount gives ints for an empty index; scores stay floats.
    return np.bincount(index, weights=weights, minlength=n).astype(float, copy=False)


def hits(graph: UserGraph, config: RankConfig = RankConfig()) -> ScoreMap:
    """Authority and hub scores by mutual reinforcement.

    authority[v] = sum of hub over in-neighbours, then hub[u] = sum of the
    fresh authority over out-neighbours, each L2-normalized after its
    update.  Starts from all ones (any positive start yields the same
    ranking) and stops once both vectors move less than the tolerance in
    L1, or at the iteration cap.  Authority is the quality score.
    """
    if not graph.names:
        raise EmptyGraph("ranking needs at least one node")
    names, src, dst = graph.names, graph.src, graph.dst
    n = len(names)
    authority = np.ones(n)
    hub = np.ones(n)
    for _ in range(config.max_iterations):
        new_authority = _scatter(dst, hub[src], n)
        norm = np.linalg.norm(new_authority)
        if norm > 0.0:
            new_authority /= norm
        new_hub = _scatter(src, new_authority[dst], n)
        norm = np.linalg.norm(new_hub)
        if norm > 0.0:
            new_hub /= norm
        moved = np.abs(new_authority - authority).sum() + np.abs(new_hub - hub).sum()
        authority, hub = new_authority, new_hub
        if moved <= config.tolerance:
            break
    return ScoreMap(
        scores=dict(zip(names, authority.tolist())),
        hubs=dict(zip(names, hub.tolist())),
    )


def pagerank(graph: UserGraph, config: RankConfig = RankConfig()) -> ScoreMap:
    """Random-surfer scores with uniform redistribution of dangling mass.

    score[u] = (1-d)/n + d * (sum over in-neighbours of score/outdegree
    plus the pooled score of out-degree-zero nodes spread over everyone),
    which keeps the total mass at exactly 1 every iteration.  The start is
    uniform 1/n; any positive start contracts to the same fixpoint.
    """
    if not graph.names:
        raise EmptyGraph("ranking needs at least one node")
    names, src, dst = graph.names, graph.src, graph.dst
    n = len(names)
    out_degree = _scatter(src, None, n)
    dangling = out_degree == 0.0
    score = np.full(n, 1.0 / n)
    d = config.damping
    for _ in range(config.max_iterations):
        inbound = _scatter(dst, score[src] / out_degree[src], n)
        shared = score[dangling].sum() / n
        new_score = (1.0 - d) / n + d * (inbound + shared)
        moved = np.abs(new_score - score).sum()
        score = new_score
        if moved <= config.tolerance:
            break
    return ScoreMap(scores=dict(zip(names, score.tolist())))


def scores_to_error_rates(
    scores: Union[ScoreMap, Mapping[str, float]],
    config: RankConfig = RankConfig(),
) -> dict[str, float]:
    """Squash quality scores into individual error rates.

    eps = beta ** (-alpha * (score - min) / (max - min)), so the top score
    maps to beta**-alpha and the bottom to 1, then clamped into
    [1e-6, 1 - 1e-6].  Higher score means strictly lower error rate.
    """
    table = scores.scores if isinstance(scores, ScoreMap) else dict(scores)
    if not table:
        raise DegenerateScores("no users to normalize")
    values = np.array(list(table.values()), dtype=float)
    low, high = float(values.min()), float(values.max())
    if high == low:
        raise DegenerateScores("all quality scores identical; no ranking information")
    span = high - low
    return {
        user: clamp_epsilon(config.beta ** (-config.alpha * (value - low) / span))
        for user, value in table.items()
    }


def ages_to_requirements(ages: Mapping[str, float]) -> dict[str, float]:
    """Min-max normalize account ages into payment requirements in [0, 1].

    All-equal ages (including a single user) give everyone requirement 0,
    the reading that keeps every juror affordable.
    """
    if not ages:
        return {}
    values = np.array(list(ages.values()), dtype=float)
    low, high = float(values.min()), float(values.max())
    if high == low:
        return {user: 0.0 for user in ages}
    span = high - low
    return {user: (float(age) - low) / span for user, age in ages.items()}
