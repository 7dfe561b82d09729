"""Corpus parsing, graph construction and the two ranking fixpoints.

Fixpoint expectations for the toy graphs were derived by solving the
stationary linear systems directly (exact rationals for PageRank's star:
peripheral 10/47, center 27/47 at damping 0.85).
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from juryselect import (
    DegenerateScores,
    EmptyGraph,
    RankConfig,
    TweetRecord,
    UserGraph,
    ages_to_requirements,
    build_graph,
    hits,
    pagerank,
    scores_to_error_rates,
)


def graph_of(*edges, extra_nodes=()):
    nodes = {u for edge in edges for u in edge} | set(extra_nodes)
    return UserGraph(frozenset(nodes), frozenset(edges))


def chain_edges(author, content):
    return build_graph([TweetRecord(author, content)]).edges


class TestParseRetweetChains:
    """The chain rule, as ``build_graph`` applies it to one record."""

    def test_two_markers_build_a_chain(self):
        edges = chain_edges("carol", "great news RT @alice check RT @bob original")
        assert edges == {("carol", "alice"), ("alice", "bob")}

    def test_single_marker(self):
        assert chain_edges("erin", "RT @dave hello") == {("erin", "dave")}

    def test_no_marker(self):
        assert chain_edges("erin", "no retweets here") == frozenset()

    def test_marker_without_username_ignored(self):
        assert chain_edges("erin", "RT @ hello") == frozenset()
        assert chain_edges("erin", "ends with RT @") == frozenset()

    def test_username_is_maximal_word_run(self):
        assert chain_edges("a", "RT @user_1: fine") == {("a", "user_1")}

    def test_case_sensitive_marker(self):
        assert chain_edges("a", "rt @b nope") == frozenset()


class TestBuildGraph:
    def test_repeated_pairs_collapse(self):
        records = [TweetRecord("a", "RT @b"), TweetRecord("a", "again RT @b")]
        graph = build_graph(records)
        assert graph.edges == frozenset({("a", "b")})

    def test_empty_corpus(self):
        graph = build_graph([])
        assert graph.nodes == frozenset()
        assert graph.edges == frozenset()

    def test_union_of_parsed_chains(self):
        records = [
            TweetRecord("carol", "great news RT @alice check RT @bob original"),
            TweetRecord("erin", "RT @dave hello"),
        ]
        graph = build_graph(records)
        assert graph.nodes == frozenset({"carol", "alice", "bob", "erin", "dave"})
        assert graph.edges == frozenset({("carol", "alice"), ("alice", "bob"), ("erin", "dave")})

    def test_author_without_relations_still_a_node(self):
        graph = build_graph([TweetRecord("loner", "just musing")])
        assert graph.nodes == frozenset({"loner"})

    def test_self_forward_dropped(self):
        graph = build_graph([TweetRecord("echo", "RT @echo me again")])
        assert graph.edges == frozenset()
        assert graph.nodes == frozenset({"echo"})

    def test_self_loop_dropped_at_construction(self):
        graph = UserGraph(frozenset({"a", "b"}), frozenset({("a", "a"), ("a", "b")}))
        assert graph.edges == frozenset({("a", "b")})

    @given(st.permutations(range(6)))
    @settings(max_examples=30, deadline=None)
    def test_record_order_never_matters(self, order):
        records = [
            TweetRecord("a", "RT @b"),
            TweetRecord("b", "RT @c and RT @d"),
            TweetRecord("c", "quiet"),
            TweetRecord("d", "RT @a"),
            TweetRecord("e", "RT @a"),
            TweetRecord("a", "RT @b again"),
        ]
        reference = build_graph(records)
        shuffled = build_graph([records[i] for i in order])
        assert shuffled == reference


def random_corpus(seed, users=60, records=400):
    """Seeded records: plain posts, one- and two-hop forwards, self-forwards
    (also mid-chain, "a RT @a RT @b"), repeated pairs from a skewed target
    choice, and a tenth of the users who never forward."""
    rng = np.random.default_rng(seed)
    names = [f"{'U' if i % 3 else 'u'}ser_{i}" for i in range(users)]
    silent = set(range(0, users, 10))
    weights = 1.0 / np.arange(1, users + 1) ** 1.2
    weights /= weights.sum()
    out = []
    for _ in range(records):
        a = int(rng.integers(users))
        t, u = (int(x) for x in rng.choice(users, 2, p=weights))
        kind = 0 if a in silent else int(rng.integers(5))
        content = [
            "plain words",
            f"RT @{names[t]} wow",
            f"so RT @{names[t]} and RT @{names[u]} original",
            f"me again RT @{names[a]}",
            f"RT @{names[a]} RT @{names[t]}",
        ][kind]
        out.append(TweetRecord(names[a], content))
    return out


def naive_graph(records):
    nodes, edges = set(), set()
    for record in records:
        chain = [record.author, *re.findall(r"RT @(\w+)", record.content, re.ASCII)]
        nodes.update(chain)
        edges.update((u, v) for u, v in zip(chain, chain[1:]) if u != v)
    return frozenset(nodes), frozenset(edges)


class TestIndexedGraphEquivalence:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_build_graph_matches_naive_construction(self, seed):
        records = random_corpus(seed)
        nodes, edges = naive_graph(records)
        graph = build_graph(records)
        assert graph == UserGraph(nodes, edges)
        assert graph.nodes == nodes
        assert graph.edges == edges
        assert list(graph.names) == sorted(nodes)
        pairs = [(graph.names[u], graph.names[v]) for u, v in zip(graph.src, graph.dst)]
        assert pairs == sorted(edges)

    def test_attributes_cannot_be_set(self):
        graph = graph_of(("a", "b"))
        with pytest.raises(AttributeError, match="immutable"):
            graph.names = ("c",)

    def test_endpoint_outside_nodes_rejected(self):
        with pytest.raises(ValueError, match="outside nodes"):
            UserGraph(frozenset({"a"}), frozenset({("a", "b")}))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_scores_match_networkx(self, seed):
        nx = pytest.importorskip("networkx")
        nodes, edges = naive_graph(random_corpus(seed))
        graph = UserGraph(nodes, edges)
        reference = nx.DiGraph()
        reference.add_nodes_from(sorted(nodes))
        reference.add_edges_from(sorted(edges))
        config = RankConfig(max_iterations=10_000, tolerance=1e-14)

        expected = nx.pagerank(reference, alpha=config.damping, max_iter=10_000, tol=1e-15)
        got = pagerank(graph, config).scores
        assert max(abs(got[u] - expected[u]) for u in nodes) <= 1e-8

        # networkx scales HITS to unit sum; ours keeps unit L2 norm.
        hubs, authorities = nx.hits(reference, max_iter=10_000, tol=1e-15)
        ranked = hits(graph, config)
        for ours, theirs in ((ranked.scores, authorities), (ranked.hubs, hubs)):
            norm = np.linalg.norm(list(theirs.values()))
            assert max(abs(ours[u] - theirs[u] / norm) for u in nodes) <= 1e-8


class TestRankConfig:
    @pytest.mark.parametrize(
        "field, value", [("max_iterations", 0), ("tolerance", 0.0)], ids=["no-iterations", "zero-tolerance"]
    )
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            RankConfig(**{field: value})


# Ranks a 30,000-user graph whose forwards follow a Zipf law over the
# users, as in a real corpus, and prints a digest of every score's bits.
_HITS_BITS = """
import hashlib
import numpy as np
from juryselect import UserGraph, hits
rng = np.random.default_rng(7)
n, m = 30_000, 90_000
weights = 1.0 / np.arange(1, n + 1) ** 1.1
src = rng.integers(0, n, m)
dst = rng.permutation(n)[rng.choice(n, m, p=weights / weights.sum())]
names = [f"u{i}" for i in range(n)]
ranked = hits(UserGraph(names, zip(map(names.__getitem__, src.tolist()), map(names.__getitem__, dst.tolist()))))
print(hashlib.sha256(np.array([list(ranked.scores.values()), list(ranked.hubs.values())]).tobytes()).hexdigest())
"""


class TestHits:
    def test_scores_do_not_depend_on_blas_threads(self):
        # BLAS may split a long dot product between threads, which changes
        # the order of its additions and so the scores' last bits.
        src = str(Path(__file__).resolve().parents[1] / "src")
        digests = {
            subprocess.run(
                [sys.executable, "-c", _HITS_BITS],
                env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads},
                capture_output=True,
                text=True,
                timeout=120,
                check=True,
            ).stdout
            for threads in ("1", "2")
        }
        assert len(digests) == 1

    def test_two_sources_one_sink(self):
        scores = hits(graph_of(("u", "v"), ("w", "v")))
        assert scores.scores["v"] == pytest.approx(1.0, abs=1e-9)
        assert scores.scores["u"] == pytest.approx(0.0, abs=1e-9)
        assert scores.scores["w"] == pytest.approx(0.0, abs=1e-9)
        assert scores.hubs["u"] == pytest.approx(2**-0.5, abs=1e-9)
        assert scores.hubs["w"] == pytest.approx(2**-0.5, abs=1e-9)

    def test_single_node_degenerates_to_zero(self):
        scores = hits(graph_of(extra_nodes=("only",)))
        assert scores.scores["only"] == 0.0

    def test_symmetric_pair_scores_equal(self):
        scores = hits(graph_of(("a", "b"), ("b", "a")))
        assert scores.scores["a"] == pytest.approx(scores.scores["b"], abs=1e-12)

    def test_empty_graph_rejected(self):
        with pytest.raises(EmptyGraph):
            hits(UserGraph(frozenset(), frozenset()))


class TestPagerank:
    def test_two_node_cycle_splits_evenly(self):
        scores = pagerank(graph_of(("a", "b"), ("b", "a")))
        assert scores.scores["a"] == pytest.approx(0.5, abs=1e-9)
        assert scores.scores["b"] == pytest.approx(0.5, abs=1e-9)

    def test_single_node_keeps_all_mass(self):
        scores = pagerank(graph_of(extra_nodes=("only",)))
        assert scores.scores["only"] == pytest.approx(1.0, abs=1e-12)

    def test_star_center_wins(self):
        scores = pagerank(graph_of(("a", "c"), ("b", "c")))
        assert scores.scores["a"] == pytest.approx(10 / 47, abs=1e-6)
        assert scores.scores["b"] == pytest.approx(10 / 47, abs=1e-6)
        assert scores.scores["c"] == pytest.approx(27 / 47, abs=1e-6)
        assert scores.scores["c"] > scores.scores["a"]

    def test_mass_conserved_every_iteration(self):
        graph = graph_of(("a", "c"), ("b", "c"), ("c", "d"), extra_nodes=("e",))
        for iterations in range(1, 25):
            config = RankConfig(max_iterations=iterations)
            scores = pagerank(graph, config)
            assert sum(scores.scores.values()) == pytest.approx(1.0, abs=1e-6)

    def test_no_hub_side(self):
        assert pagerank(graph_of(("a", "b"))).hubs is None

    def test_empty_graph_rejected(self):
        with pytest.raises(EmptyGraph):
            pagerank(UserGraph(frozenset(), frozenset()))


class TestScoresToErrorRates:
    def test_endpoints_and_midpoint(self):
        eps = scores_to_error_rates({"lo": 0.0, "mid": 0.5, "hi": 1.0})
        assert eps["lo"] == pytest.approx(1 - 1e-6)
        assert eps["mid"] == pytest.approx(1e-5)
        assert eps["hi"] == pytest.approx(1e-6)

    def test_degenerate_scores_rejected(self):
        with pytest.raises(DegenerateScores):
            scores_to_error_rates({"a": 0.4, "b": 0.4})

    def test_no_users_rejected(self):
        with pytest.raises(DegenerateScores):
            scores_to_error_rates({})

    def test_natural_base(self):
        config = RankConfig(alpha=1.0, beta=float(np.e))
        eps = scores_to_error_rates({"lo": 2.0, "hi": 5.0}, config)
        assert eps["lo"] == pytest.approx(1 - 1e-6)
        assert eps["hi"] == pytest.approx(np.exp(-1.0), abs=1e-12)

    @given(st.lists(st.floats(0, 100), min_size=2, max_size=8, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_higher_score_never_higher_epsilon(self, values):
        eps = scores_to_error_rates({f"u{i}": v for i, v in enumerate(values)})
        ranked = sorted(range(len(values)), key=lambda i: values[i])
        mapped = [eps[f"u{i}"] for i in ranked]
        assert all(a >= b for a, b in zip(mapped, mapped[1:]))
        assert all(1e-6 <= e <= 1 - 1e-6 for e in mapped)


class TestAgesToRequirements:
    def test_three_point_normalization(self):
        assert ages_to_requirements({"a": 100, "b": 200, "c": 300}) == {
            "a": 0.0,
            "b": 0.5,
            "c": 1.0,
        }

    def test_single_user_degenerates_to_zero(self):
        assert ages_to_requirements({"a": 500}) == {"a": 0.0}

    def test_two_point_normalization(self):
        assert ages_to_requirements({"a": 10, "b": 40}) == {"a": 0.0, "b": 1.0}

    def test_empty_map(self):
        assert ages_to_requirements({}) == {}
