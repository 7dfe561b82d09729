#!/usr/bin/env python3
"""Benchmark for juryselect: three workloads, every answer checked.

    python3 bench/run.py --workload free-pool|paid-pool|cli --seed N \
        --seconds S --trace 0|1

Run from a checkout; the program is imported from its ``src``.  One
process drives the load, one operation at a time, in whole rounds, until
the next round would end past ``--seconds``.  Every operation's output is
checked, outside the timed region, against ``reference.py``.  The last
line of standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics from spans with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import corpus as corpus_gen
import reference as ref
from tracing import Tracer, self_time

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"

SETUP_REPEATS = 7
FREE_POOL = dict(pool_size=2000, epsilon_mean=0.3, epsilon_stddev=0.1)
SWEEP_POOL = dict(
    pool_size=22, epsilon_mean=0.2, epsilon_stddev=0.1, requirement_mean=0.05, requirement_stddev=0.2
)
SWEEP_BUDGETS = [round(1.0 + 0.2 * i, 1) for i in range(11)]
LARGE_POOL = dict(
    pool_size=2000, epsilon_mean=0.3, epsilon_stddev=0.07, requirement_mean=0.001, requirement_stddev=0.001
)
LARGE_BUDGET = 0.5
CLI_POOL = dict(size=1000, mean=0.7, stddev=0.1)
RANK_TOP_K = 22
RANK_BUDGET = 2.0
EXPERIMENT = dict(pool_size=500, epsilon_means=[0.2, 0.5, 0.7, 0.9], epsilon_stddevs=[0.1])

# The public name each traced span wraps, and the span's name.
TRACED = [
    ("juryselect", "gen_pool", "synth.gen_pool", False),
    ("juryselect", "jer_dp", "jer.jer_dp", False),
    ("juryselect", "jer_cba", "jer.jer_cba", False),
    ("juryselect", "solve_altrm", "solver.solve_altrm", False),
    ("juryselect", "solve_paym_greedy", "solver.solve_paym_greedy", False),
    ("juryselect", "solve_oracle", "solver.solve_oracle", False),
    ("juryselect.io", "read_corpus", "io.read_corpus", True),
    ("juryselect.io", "read_pool_csv", "io.read_pool_csv", False),
    ("juryselect.io", "write_pool_csv", "io.write_pool_csv", False),
    ("juryselect.io", "write_scores_csv", "io.write_scores_csv", False),
    ("juryselect", "build_graph", "estimate.build_graph", False),
    ("juryselect", "hits", "estimate.hits", False),
    ("juryselect", "pagerank", "estimate.pagerank", False),
    ("juryselect", "scores_to_error_rates", "estimate.scores_to_error_rates", False),
    ("juryselect", "rank_candidates", "experiments.rank_candidates", False),
    ("juryselect", "run_experiment", "experiments.run_experiment", False),
    ("juryselect.cli", "main", "cli.main", False),
]
COUNTS = {
    "solver.juries_evaluated",
    "solver.juries_pruned",
    "solver.greedy_trials",
    "solver.oracle_subsets",
    "estimate.graph_nodes",
    "estimate.graph_edges",
}


class CheckError(Exception):
    """An operation returned an answer the reference disagrees with."""


class OperationFailed(Exception):
    """An operation raised or exited non-zero."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


class Bench:
    """State of one run: seeds, samples, counters and the optional tracer."""

    def __init__(self, args, js):
        self.js = js
        self.seed = args.seed
        self.seconds = args.seconds
        self.rng = np.random.default_rng(args.seed)
        self.tracer = Tracer() if args.trace else None
        self.work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.samples: dict[str, list[float]] = {}
        self.round_seconds: list[float] = []
        self.round_rss_mb: list[float] = []
        self.first_round_rss_mb: float | None = None
        self.layers: list[dict[str, float]] = []
        self.deferred: list = []
        self.corpus = None  # cli only: the generated corpus and its reference ranks
        self.rank_ref = None
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []
        self._round_ops = 0.0
        self._round_rss = 0.0

    def next_seed(self) -> int:
        return int(self.rng.integers(0, 2**31))

    # -- operations -----------------------------------------------------

    def op(self, kind, run, check) -> None:
        """Time ``run`` (which returns (seconds, output)), then check the output."""
        self.attempted += 1
        try:
            seconds, output = run()
        except Exception as exc:  # a failed operation is counted; the run goes on
            self.failed += 1
            print(f"operation {kind} failed: {exc!r}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return
        self.samples.setdefault(kind, []).append(seconds)
        self._round_ops += seconds
        self.check(kind, check, output)

    def check(self, where, check, *args) -> None:
        """Run one check; a mismatch makes the run's answer incorrect."""
        try:
            check(*args)
        except CheckError as exc:
            self.mismatches.append(f"{where}: {exc}")
            print(f"check failed, {where}: {exc}", file=sys.stderr)

    def rounds(self, one_round) -> None:
        """Whole rounds until the next one would end past the run length."""
        started = time.perf_counter()
        while True:
            round_started = time.perf_counter()
            self._round_ops = 0.0
            self._round_rss = 0.0
            if self.tracer:
                with self.tracer.span("round") as span:
                    one_round(self)
                self.layers.append(layer_metrics(self.tracer, span, self))
            else:
                one_round(self)
            self.round_seconds.append(self._round_ops)
            if self.first_round_rss_mb is None:
                # Caches fill as rounds go on; a fixed amount of work keeps
                # the high-water mark comparable between runs.
                self.first_round_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            self.round_rss_mb.append(self._round_rss)
            took = time.perf_counter() - round_started
            if time.perf_counter() - started + took > self.seconds:
                break

    # -- the CLI, as a child process or in-process when tracing ----------

    def cli(self, *argv) -> str:
        """Run one juryselect command; returns its standard output."""
        argv = [str(a) for a in argv]
        if self.tracer:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = self.js.cli.main(argv)
            if code != 0:
                raise OperationFailed(f"juryselect {' '.join(argv)} exited {code}")
            return out.getvalue()
        out_path = self.work / "child.out"
        err_path = self.work / "child.err"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            child = subprocess.Popen(
                [sys.executable, "-m", "juryselect", *argv], stdout=out, stderr=err, env=self.env, cwd=self.work
            )
            _, status, usage = os.wait4(child.pid, 0)
            child.returncode = os.waitstatus_to_exitcode(status)
        self._round_rss = max(self._round_rss, usage.ru_maxrss / 1024.0)
        if child.returncode != 0:
            raise OperationFailed(
                f"juryselect {' '.join(argv)} exited {child.returncode}: {err_path.read_text()[-2000:]}"
            )
        return out_path.read_text()


def timed(fn, *args):
    started = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - started, result


def chain(*steps):
    """Time a sequence of zero-argument steps; returns (seconds, their outputs)."""
    started = time.perf_counter()
    outputs = [step() for step in steps]
    return time.perf_counter() - started, outputs


# -- checks --------------------------------------------------------------


def check_prefix_answer(ids, eps, jury_ids, jer, evaluated=None, pruned=None):
    """The free-enrollment answer against a log-domain scan of every odd prefix."""
    order = ref.prefix_order(ids, eps)
    tails = ref.log_prefix_tails([eps[i] for i in order])
    n = len(jury_ids)
    expect(n % 2 == 1, f"jury size {n} is even")
    expect(set(jury_ids) == {ids[i] for i in order[:n]}, f"size-{n} jury is not the sorted prefix")
    best = float(tails.min())
    got = float(tails[n // 2])
    expect(
        math.expm1(got - best) <= 1e-9,
        f"size {n} has log10 JER {got / math.log(10):.6f}, the scan's minimum is "
        f"{best / math.log(10):.6f} at size {2 * int(tails.argmin()) + 1}",
    )
    expect(ref.rel_close(jer, got, 1e-9), f"reported jer {jer!r}, scan gives {math.exp(got)!r}")
    if evaluated is not None:
        expect(evaluated + pruned == tails.size, f"{evaluated} + {pruned} prefixes, pool has {tails.size}")


def check_greedy(ids, eps, req, budget, jury_ids, jer, cost):
    n = len(jury_ids)
    expect(n % 2 == 1, f"greedy jury size {n} is even")
    expect(cost <= budget, f"greedy cost {cost} exceeds budget {budget}")
    members, _ = ref.greedy_members(ids, eps, req, budget, jury_ids)
    expect(set(members) == set(jury_ids), f"greedy picked {n} jurors, the rule gives {len(members)}")
    index = {u: k for k, u in enumerate(ids)}
    log_ref = ref.log_jer([eps[index[u]] for u in jury_ids])
    expect(
        abs(jer - math.exp(log_ref)) <= 1e-9 * math.exp(log_ref) + 1e-13,
        f"greedy jer {jer!r}, reference {math.exp(log_ref)!r}",
    )


def check_oracle(ids, eps, req, budget, result):
    members = [j.id for j in result.jury.members]
    index = {u: k for k, u in enumerate(ids)}
    expect(len(members) % 2 == 1, "oracle jury size is even")
    expect(sum(req[index[u]] for u in members) <= budget * (1 + 1e-12), "oracle jury exceeds the budget")
    expect(ref.rel_close(result.jer, ref.log_jer([eps[index[u]] for u in members]), 1e-9), "oracle jer is wrong")


def pool_lists(pool):
    cands = pool.candidates
    return [j.id for j in cands], [j.epsilon for j in cands], [j.requirement for j in cands]


# -- free-pool -----------------------------------------------------------


def free_pool_round(b: Bench) -> None:
    js = b.js
    pool = js.gen_pool(js.SynthConfig(**FREE_POOL, seed=b.next_seed()))

    def check(result):
        ids, eps, _ = pool_lists(pool)
        check_prefix_answer(
            ids, eps, [j.id for j in result.jury.members], result.jer, result.juries_evaluated, result.juries_pruned
        )
        if b.tracer:
            # Per-layer timings of the two tail kernels on the chosen jury.
            log_ref = ref.log_jer(result.jury.epsilons)
            dp = js.jer_dp(result.jury)
            cba = js.jer_cba(result.jury)
            expect(ref.rel_close(dp, log_ref, 1e-9), f"jer_dp {dp!r} vs {math.exp(log_ref)!r}")
            expect(abs(cba - math.exp(log_ref)) <= 1e-9, f"jer_cba {cba!r} vs {math.exp(log_ref)!r}")

    b.op("altrm_solve_s", lambda: timed(js.solve_altrm, pool), check)


# -- paid-pool -----------------------------------------------------------


def paid_pool_round(b: Bench) -> None:
    js = b.js
    sweep_pool = js.gen_pool(js.SynthConfig(**SWEEP_POOL, seed=b.next_seed()))

    def sweep():
        started = time.perf_counter()
        out = [
            (budget, js.solve_paym_greedy(sweep_pool, budget), js.solve_oracle(sweep_pool, budget))
            for budget in SWEEP_BUDGETS
        ]
        return time.perf_counter() - started, out

    def check_sweep(out):
        ids, eps, req = pool_lists(sweep_pool)
        previous = math.inf
        for budget, greedy, oracle in out:
            check_greedy(
                ids, eps, req, budget, [j.id for j in greedy.jury.members], greedy.jer, greedy.total_cost
            )
            check_oracle(ids, eps, req, budget, oracle)
            expect(oracle.jer <= greedy.jer * (1 + 1e-12), f"budget {budget}: oracle worse than greedy")
            expect(oracle.jer <= previous * (1 + 1e-12), f"budget {budget}: oracle jer rose with the budget")
            previous = oracle.jer
        if not b.deferred:
            # One exhaustive enumeration per run, after the timed loop.
            budget, _, oracle = out[b.seed % len(out)]
            b.deferred.append((eps, req, budget, oracle.jer))

    b.op("oracle_sweep_s", sweep, check_sweep)

    large_pool = js.gen_pool(js.SynthConfig(**LARGE_POOL, seed=b.next_seed()))

    def check_large(result):
        ids, eps, req = pool_lists(large_pool)
        check_greedy(
            ids, eps, req, LARGE_BUDGET, [j.id for j in result.jury.members], result.jer, result.total_cost
        )

    b.op("greedy_solve_s", lambda: timed(js.solve_paym_greedy, large_pool, LARGE_BUDGET), check_large)


def check_enumeration(deferred) -> None:
    for eps, req, budget, jer in deferred:
        best = ref.enumerate_best_jer(eps, req, budget)
        expect(abs(jer - best) <= 1e-12 * best, f"budget {budget}: oracle jer {jer!r}, enumeration {best!r}")


# -- cli -----------------------------------------------------------------


def read_csv(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


class RankReference:
    """Reference HITS and PageRank scores and requirements for one corpus."""

    def __init__(self, corpus):
        self.corpus = corpus
        n = corpus.node_count
        self.index = {u: k for k, u in enumerate(corpus.names)}
        authority, hub, _ = ref.hits_scores(n, corpus.src, corpus.dst)
        pagerank, _ = ref.pagerank_scores(n, corpus.src, corpus.dst)
        self.scores = {"hits": authority, "pagerank": pagerank}
        self.hubs = hub
        self.requirements = ref.age_requirements(corpus.created)

    def check_rows(self, method, rows) -> None:
        scores = self.scores[method]
        low, span = float(scores.min()), float(scores.max() - scores.min())
        expect(len(rows) == min(RANK_TOP_K, len(scores)), f"{method}: {len(rows)} rows")
        got = [(float(r["score"]), r["username"]) for r in rows]
        expect(got == sorted(got, key=lambda t: (-t[0], t[1])), f"{method}: rows not sorted by score")
        picked = set()
        for row in rows:
            user = row["username"]
            k = self.index.get(user)
            expect(k is not None, f"{method}: unknown user {user}")
            picked.add(k)
            score = float(row["score"])
            expect(abs(score - scores[k]) <= 1e-8, f"{method}: {user} score {score!r}, reference {float(scores[k])!r}")
            if method == "hits":
                expect(abs(float(row["hub_score"]) - self.hubs[k]) <= 1e-8, f"hits: {user} hub score")
            else:
                expect(row["hub_score"] == "", f"pagerank: {user} has a hub score")
            eps = ref.error_rate(score, low, span)
            expect(abs(float(row["epsilon"]) - eps) <= 1e-5 * eps, f"{method}: {user} epsilon {row['epsilon']}, expected {eps!r}")
            req = self.requirements.get(user, 0.0)
            expect(abs(float(row["requirement"]) - req) <= 1e-12, f"{method}: {user} requirement")
        rest = np.delete(scores, sorted(picked))
        expect(rest.size == 0 or rest.max() <= min(t[0] for t in got) + 1e-8, f"{method}: a higher score was left out")

    def check_full(self, method, score_map) -> None:
        """Every node's score, from a traced run's in-memory ranking."""
        scores = self.scores[method]
        expect(len(score_map.scores) == scores.size, f"{method}: {len(score_map.scores)} scores")
        got = np.array([score_map.scores[u] for u in self.corpus.names])
        expect(np.abs(got - scores).max() <= 1e-8, f"{method}: scores differ from the reference")
        if method == "pagerank":
            expect(abs(got.sum() - 1.0) <= 1e-9, f"pagerank sums to {got.sum()!r}")

    def check_graph(self, graph) -> None:
        expect(graph.node_count == self.corpus.node_count, f"graph has {graph.node_count} nodes")
        expect(len(graph.edges) == self.corpus.edge_count, f"graph has {len(graph.edges)} edges")


def cli_setup(b: Bench) -> None:
    b.corpus = corpus_gen.write_corpus(b.work / "corpus.ndjson", b.next_seed())
    b.rank_ref = RankReference(b.corpus)


def cli_round(b: Bench) -> None:
    w = b.work
    seed = b.next_seed()
    pool_csv = w / "pool.csv"
    b.op(
        "cli_altrm_s",
        lambda: chain(
            lambda: b.cli(
                "gen-pool", "--pool-size", CLI_POOL["size"], "--epsilon-mean", CLI_POOL["mean"],
                "--epsilon-stddev", CLI_POOL["stddev"], "--seed", seed, "--out", pool_csv,
            ),
            lambda: b.cli("solve", pool_csv, "--model", "altrm"),
        ),
        lambda outs: check_cli_altrm(pool_csv, json.loads(outs[-1])),
    )
    for method in ("hits", "pagerank"):
        table = w / f"{method}.csv"
        b.op(
            f"rank_{method}_s",
            lambda: chain(
                lambda: b.cli("rank", b.corpus.path, "--method", method, "--top-k", RANK_TOP_K, "--out", table),
                lambda: b.cli("solve", table, "--model", "paym", "--budget", RANK_BUDGET),
            ),
            lambda outs: check_rank_select(b, method, table, json.loads(outs[-1])),
        )
    spec = w / "spec.json"
    seeds = [b.next_seed(), b.next_seed()]
    spec.write_text(json.dumps({"kind": "altrm-traits", "seeds": seeds, **EXPERIMENT}))
    out_csv = w / "experiment.csv"
    b.op(
        "experiment_s",
        lambda: chain(lambda: b.cli("experiment", spec, "--out", out_csv)),
        lambda _: check_experiment(read_csv(out_csv), seeds),
    )


def check_cli_altrm(pool_csv, answer) -> None:
    rows = read_csv(pool_csv)
    ids = [r["id"] for r in rows]
    eps = [float(r["epsilon"]) for r in rows]
    check_prefix_answer(
        ids, eps, answer["jury_ids"], answer["jer"], answer["juries_evaluated"], answer["juries_pruned"]
    )


def check_rank_select(b: Bench, method, table, answer) -> None:
    rows = read_csv(table)
    b.rank_ref.check_rows(method, rows)
    ids = [r["username"] for r in rows]
    eps = [float(r["epsilon"]) for r in rows]
    req = [float(r["requirement"]) for r in rows]
    check_greedy(ids, eps, req, RANK_BUDGET, answer["jury_ids"], answer["jer"], answer["total_cost"])


def check_experiment(rows, seeds) -> None:
    grid = {(m, s) for m in EXPERIMENT["epsilon_means"] for s in seeds}
    got = {(float(r["epsilon_mean"]), int(r["seed"])) for r in rows}
    expect(got == grid and len(rows) == len(grid), f"experiment rows cover {sorted(got)}")
    for r in rows:
        ids, eps, _ = ref.synth_pool(
            EXPERIMENT["pool_size"], float(r["epsilon_mean"]), float(r["epsilon_stddev"]), seed=int(r["seed"])
        )
        size = int(r["optimal_jury_size"])
        order = ref.prefix_order(ids, eps)
        check_prefix_answer(ids, eps, [ids[i] for i in order[:size]], float(r["jer"]))


# -- per-layer metrics from one traced round ------------------------------


def layer_metrics(tracer: Tracer, round_span, b: Bench) -> dict[str, float]:
    def total(name):
        return float(sum(s.duration for s in tracer.named(name, round_span)))

    def results(name):
        return [s.result for s in tracer.named(name, round_span)]

    oracle = sorted(tracer.named("solver.solve_oracle", round_span), key=lambda s: s.start)
    graphs = results("estimate.build_graph")
    experiments = tracer.named("experiments.run_experiment", round_span)
    m = {
        "synth.gen_pool.s": total("synth.gen_pool"),
        "jer.jer_dp.s": total("jer.jer_dp"),
        "jer.jer_cba.s": total("jer.jer_cba"),
        "solver.solve_altrm.s": total("solver.solve_altrm"),
        "solver.juries_evaluated": sum(r.juries_evaluated for r in results("solver.solve_altrm")),
        "solver.juries_pruned": sum(r.juries_pruned for r in results("solver.solve_altrm")),
        "solver.solve_paym_greedy.s": total("solver.solve_paym_greedy"),
        "solver.greedy_trials": sum(r.juries_evaluated for r in results("solver.solve_paym_greedy")),
        "solver.solve_oracle.first_s": oracle[0].duration if oracle else 0.0,
        "solver.solve_oracle.repeat_s": float(sum(s.duration for s in oracle[1:])),
        "solver.oracle_subsets": sum(s.result.juries_evaluated for s in oracle),
        "io.read_corpus.s": total("io.read_corpus"),
        "io.read_pool_csv.s": total("io.read_pool_csv"),
        "io.write_pool_csv.s": total("io.write_pool_csv"),
        "io.write_scores_csv.s": total("io.write_scores_csv"),
        "estimate.build_graph.s": total("estimate.build_graph"),
        "estimate.hits.s": total("estimate.hits"),
        "estimate.pagerank.s": total("estimate.pagerank"),
        "estimate.scores_to_error_rates.s": total("estimate.scores_to_error_rates"),
        "estimate.graph_nodes": max((g.node_count for g in graphs), default=0),
        "estimate.graph_edges": max((len(g.edges) for g in graphs), default=0),
        "experiments.rank_candidates.self_s": float(
            sum(self_time(s) for s in tracer.named("experiments.rank_candidates", round_span))
        ),
        "experiments.run_experiment.s": float(sum(s.duration for s in experiments)),
        "experiments.point_s_sum": float(sum(c.duration for s in experiments for c in s.children)),
        "cli.main.self_s": float(sum(self_time(s) for s in tracer.named("cli.main", round_span))),
    }
    for graph in graphs:
        b.check("traced graph", b.rank_ref.check_graph, graph)
    for method in ("hits", "pagerank"):
        for score_map in results(f"estimate.{method}"):
            b.check(f"traced {method}", b.rank_ref.check_full, method, score_map)
    # Results are large (graphs, score maps); keep only the numbers.
    for span in tracer.spans:
        span.result = None
    return m


# -- main ------------------------------------------------------------------


def setup_seconds(env) -> float:
    """Median wall time of a fresh interpreter running ``import juryselect``."""
    command = [sys.executable, "-c", "import juryselect"]
    subprocess.run(command, env=env, check=True)  # first run may compile bytecode
    samples = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run(command, env=env, check=True)
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


WORKLOADS = {
    "free-pool": (None, free_pool_round),
    "paid-pool": (None, paid_pool_round),
    "cli": (cli_setup, cli_round),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "juryselect" / "__init__.py").is_file():
        print(f"error: no juryselect sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import juryselect.cli  # noqa: F401  (loads every submodule the benchmark calls)

    js = sys.modules["juryselect"]
    if Path(js.__file__).resolve().parent != (SRC / "juryselect").resolve():
        print(f"error: imported juryselect from {js.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    b = Bench(args, js)
    try:
        setup_s = setup_seconds(b.env)
        prepare, one_round = WORKLOADS[args.workload]
        if prepare:
            prepare(b)
        if b.tracer:
            for module, attr, name, lazy in TRACED:
                b.tracer.patch(module, attr, name, lazy)
        try:
            b.rounds(one_round)
        finally:
            if b.tracer:
                b.tracer.restore()
        b.check("enumeration", check_enumeration, b.deferred)
    finally:
        shutil.rmtree(b.work, ignore_errors=True)

    for kind, values in sorted(b.samples.items()):
        print(f"{kind:16s} median {statistics.median(values):.4f} s over {len(values)} operations")
    if b.tracer:
        metrics = {
            name: {"value": statistics.median(r[name] for r in b.layers), "unit": "count" if name in COUNTS else "s"}
            for name in b.layers[0]
        }
    else:
        medians = [statistics.median(v) for v in b.samples.values()]
        rss = statistics.median(b.round_rss_mb) if args.workload == "cli" else b.first_round_rss_mb
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "round_s": {"value": statistics.median(b.round_seconds), "unit": "s"},
            "op_geomean_s": {"value": math.exp(statistics.fmean(math.log(m) for m in medians)), "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
    print(
        json.dumps(
            {
                "correct": not b.mismatches,
                "attempted": b.attempted,
                "failed": b.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
