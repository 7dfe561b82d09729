"""Command-line front door.

Subcommands: ``jer`` (error rate of one jury file), ``solve`` (pick a jury
from a pool file), ``rank`` (corpus to per-user score/error-rate table),
``experiment`` (run a declarative experiment spec), ``gen-pool`` (sample a
synthetic pool to CSV).

Exit codes: 0 ok, 2 unparseable input, 3 even jury size, 4 size cap (an
enumeration over its cap, or an input too large for memory), 5 no
affordable juror, 6 degenerate scores.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .errors import (
    DegenerateScores,
    EmptyGraph,
    EvenSize,
    JurySelectError,
    NoAffordableJuror,
    SizeLimitExceeded,
)
from .estimate import RANK_METHODS, RankConfig, rank_candidates
from .experiments import ExperimentSpec, run_experiment
from .io import read_jurors_csv, read_pool_csv, write_pool_csv, write_scores_csv
from .jer import Jury, jer_cba, jer_naive, log_jer
from .solver import solve_altrm, solve_paym_greedy
from .synth import SynthConfig, gen_pool

# Looked up along the raised exception's MRO, so the most specific class
# wins.  ValueError covers bad numeric arguments (negative budget, damping
# outside (0, 1), zero pool size); OSError covers unreadable or unwritable
# paths; MemoryError a request too large to allocate.
_EXIT_CODES = {
    EvenSize: 3,
    SizeLimitExceeded: 4,
    MemoryError: 4,
    NoAffordableJuror: 5,
    DegenerateScores: 6,
    EmptyGraph: 6,
    JurySelectError: 2,
    ValueError: 2,
    OSError: 2,
}

_JER_ALGORITHMS = {"naive": jer_naive, "dp": log_jer, "cba": jer_cba}


def _format_log_tail(log: float) -> str:
    """exp(log) to twelve significant digits, as ``%.12g`` prints it, also
    below the float floor."""
    value = math.exp(log)
    if value >= sys.float_info.min:
        return f"{value:.12g}"
    from decimal import Context, Decimal  # only tails below the floor need it

    # Decimal's exponents reach far below a float's and its exp is
    # correctly rounded, so the mantissa never reads 10.
    digits = Context(prec=12)
    return f"{Decimal(log).exp(digits).normalize(digits):g}"


def _cmd_jer(args) -> None:
    jurors = read_jurors_csv(args.input)
    if len(jurors) % 2 == 0:  # also a header-only file
        raise EvenSize(f"jury size must be odd, got {len(jurors)}")
    result = _JER_ALGORITHMS[args.algorithm](Jury(tuple(jurors)))
    # The dp route returns the log, so it prints tails below the float floor.
    print(_format_log_tail(result) if args.algorithm == "dp" else f"{result:.12g}")


def _cmd_solve(args) -> None:
    if args.model == "paym" and args.budget is None:
        raise ValueError("--budget is required with --model paym")
    if args.model == "altrm" and args.budget is not None:
        raise ValueError("--budget only applies to --model paym")
    if args.model == "paym" and args.no_pruning:
        raise ValueError("--no-pruning only applies to --model altrm")
    pool = read_pool_csv(args.input)
    if args.model == "altrm":
        result = solve_altrm(pool, use_pruning=not args.no_pruning)
    else:
        result = solve_paym_greedy(pool, args.budget)
    print(
        json.dumps(
            {
                "jury_ids": [j.id for j in result.jury.members],
                "jer": result.jer,
                "log10_jer": result.log10_jer,
                "total_cost": result.total_cost,
                "juries_evaluated": result.juries_evaluated,
                "juries_pruned": result.juries_pruned,
            }
        )
    )


def _cmd_rank(args) -> None:
    if args.top_k is not None and args.top_k < 1:
        raise ValueError(f"--top-k must be at least 1, got {args.top_k}")
    config = RankConfig(
        damping=args.damping,
        max_iterations=args.max_iterations,
        tolerance=args.tolerance,
        alpha=args.alpha,
        beta=args.beta,
    )
    rows = rank_candidates(args.corpus, args.method, config, args.top_k)
    write_scores_csv(args.out or sys.stdout, rows)


def _cmd_experiment(args) -> None:
    spec = ExperimentSpec.from_file(args.spec)
    if args.seed is not None:
        spec = ExperimentSpec(spec.kind, spec.params, (args.seed,), spec.out)
    print(run_experiment(spec, out=args.out))


def _cmd_gen_pool(args) -> None:
    config = SynthConfig(
        pool_size=args.pool_size,
        epsilon_mean=args.epsilon_mean,
        epsilon_stddev=args.epsilon_stddev,
        requirement_mean=args.requirement_mean,
        requirement_stddev=args.requirement_stddev,
        seed=args.seed,
    )
    pool = gen_pool(config)
    write_pool_csv(args.out, pool)
    print(args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="juryselect",
        description="Jury selection for majority-voted decision tasks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_jer = sub.add_parser("jer", help="error rate of the jury in a CSV file")
    p_jer.add_argument("input", help="juror CSV (id,epsilon,requirement)")
    p_jer.add_argument("--algorithm", choices=sorted(_JER_ALGORITHMS), default="dp")
    p_jer.set_defaults(handler=_cmd_jer)

    p_solve = sub.add_parser("solve", help="select a jury from a pool CSV")
    p_solve.add_argument("input", help="pool CSV (id,epsilon,requirement)")
    p_solve.add_argument("--model", choices=["altrm", "paym"], required=True)
    p_solve.add_argument("--budget", type=float, default=None)
    p_solve.add_argument("--no-pruning", action="store_true")
    p_solve.set_defaults(handler=_cmd_solve)

    p_rank = sub.add_parser("rank", help="rank a tweet corpus into a user table")
    p_rank.add_argument("corpus", help="NDJSON corpus path")
    p_rank.add_argument("--method", choices=RANK_METHODS, default="hits")
    p_rank.add_argument("--damping", type=float, default=RankConfig.damping)
    p_rank.add_argument("--max-iterations", type=int, default=RankConfig.max_iterations)
    p_rank.add_argument("--tolerance", type=float, default=RankConfig.tolerance)
    p_rank.add_argument("--alpha", type=float, default=RankConfig.alpha)
    p_rank.add_argument("--beta", type=float, default=RankConfig.beta)
    p_rank.add_argument("--top-k", type=int, default=None)
    p_rank.add_argument("--out", default=None)
    p_rank.set_defaults(handler=_cmd_rank)

    p_exp = sub.add_parser("experiment", help="run a declarative experiment spec")
    p_exp.add_argument("spec", help="experiment spec JSON path")
    p_exp.add_argument("--seed", type=int, default=None, help="replace the spec's seeds")
    p_exp.add_argument("--out", default=None, help="override the spec's output path")
    p_exp.set_defaults(handler=_cmd_experiment)

    p_gen = sub.add_parser("gen-pool", help="sample a synthetic candidate pool")
    p_gen.add_argument("--pool-size", type=int, required=True)
    p_gen.add_argument("--epsilon-mean", type=float, required=True)
    p_gen.add_argument("--epsilon-stddev", type=float, required=True)
    p_gen.add_argument("--requirement-mean", type=float, default=SynthConfig.requirement_mean)
    p_gen.add_argument("--requirement-stddev", type=float, default=SynthConfig.requirement_stddev)
    p_gen.add_argument("--seed", type=int, default=SynthConfig.seed)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(handler=_cmd_gen_pool)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.handler(args)
    except (JurySelectError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return next(_EXIT_CODES[cls] for cls in type(exc).__mro__ if cls in _EXIT_CODES)
    return 0


def entry() -> None:  # console-script hook
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
