"""Command-line behavior: outputs, exit codes, and file round trips."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from juryselect import SynthConfig, gen_pool
from juryselect.cli import _format_log_tail, main
from juryselect.io import write_pool_csv


def write_lines(path, *lines):
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def abc_csv(tmp_path):
    return write_lines(
        tmp_path / "abc.csv",
        "id,epsilon,requirement",
        "A,0.1,0",
        "B,0.2,0",
        "C,0.2,0",
    )


@pytest.fixture
def fig1_csv(tmp_path):
    rows = zip("ABCDEFG", [0.1, 0.2, 0.2, 0.3, 0.3, 0.4, 0.4])
    return write_lines(
        tmp_path / "fig1.csv",
        "id,epsilon,requirement",
        *[f"{name},{eps},0" for name, eps in rows],
    )


@pytest.fixture
def paym_csv(tmp_path):
    return write_lines(
        tmp_path / "paym.csv",
        "id,epsilon,requirement",
        "A,0.1,0.8",
        "B,0.2,0.1",
        "C,0.2,0.1",
        "D,0.3,0.1",
        "E,0.3,0.1",
    )


@pytest.fixture
def two_record_corpus(tmp_path):
    path = tmp_path / "corpus.ndjson"
    path.write_text(
        json.dumps({"author": "carol", "content": "great news RT @alice check RT @bob original"})
        + "\n"
        + json.dumps({"author": "erin", "content": "RT @dave hello"})
        + "\n"
    )
    return path


class TestCmdJer:
    def test_dp_prints_twelve_significant_digits(self, abc_csv, capsys):
        assert main(["jer", str(abc_csv), "--algorithm", "dp"]) == 0
        assert capsys.readouterr().out.strip() == "0.072"

    def test_single_row(self, tmp_path, capsys):
        path = write_lines(tmp_path / "one.csv", "id,epsilon,requirement", "x,0.3,0")
        assert main(["jer", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "0.3"

    def test_all_algorithms_agree(self, fig1_csv, capsys):
        outputs = set()
        for algorithm in ("naive", "dp", "cba"):
            assert main(["jer", str(fig1_csv), "--algorithm", algorithm]) == 0
            outputs.add(capsys.readouterr().out.strip())
        assert outputs == {"0.085248"}

    def test_rate_below_twelve_decimals_is_not_printed_as_zero(self, tmp_path, capsys):
        # 21 jurors at 0.01 err with probability 3.2e-17, which twelve
        # decimal places would print as 0.000000000000.
        path = write_lines(
            tmp_path / "reliable.csv", "id,epsilon,requirement", *[f"j{i},0.01,0" for i in range(21)]
        )
        e = Fraction(0.01)
        exact = sum(math.comb(21, k) * e**k * (1 - e) ** (21 - k) for k in range(11, 22))
        assert main(["solve", str(path), "--model", "altrm"]) == 0
        solved = json.loads(capsys.readouterr().out)["jer"]
        for algorithm in ("naive", "dp", "cba"):
            assert main(["jer", str(path), "--algorithm", algorithm]) == 0
            printed = capsys.readouterr().out.strip()
            assert printed == "3.2169401504e-17" == f"{solved:.12g}"
            assert float(printed) == pytest.approx(float(exact), rel=1e-11)

    @pytest.mark.parametrize(
        "config, size, log10_exact",
        [
            # Optimal prefixes of two pools, log10 of their error rates from
            # a 30-digit mpmath recurrence: far below the float floor, and
            # just below the smallest subnormal float.
            (SynthConfig(1000, 0.1, 0.1, seed=1), 177, -477.926237835278),
            (SynthConfig(3000, 0.2, 0.1, seed=11), 2515, -324.873478478239),
        ],
        ids=["177-jurors", "2515-jurors"],
    )
    def test_dp_prints_rates_below_the_float_floor(self, tmp_path, capsys, config, size, log10_exact):
        order = sorted(gen_pool(config), key=lambda j: (j.epsilon, j.id))
        path = tmp_path / "deep.csv"
        write_pool_csv(path, order[:size])
        assert main(["jer", str(path), "--algorithm", "dp"]) == 0
        mantissa, exponent = capsys.readouterr().out.strip().split("e")
        assert 1 <= float(mantissa) < 10
        assert abs(math.log10(float(mantissa)) + int(exponent) - log10_exact) <= 1e-9 / math.log(10)

    @pytest.mark.parametrize("nudge", [-1e-13, 0.0, 1e-13])
    def test_deep_mantissa_rounds_to_one_not_ten(self, nudge):
        assert _format_log_tail(-478 * math.log(10) + nudge) == "1e-478"

    def test_even_jury_exits_3(self, tmp_path, capsys):
        path = write_lines(
            tmp_path / "four.csv",
            "id,epsilon,requirement",
            "a,0.1,0",
            "b,0.1,0",
            "c,0.1,0",
            "d,0.1,0",
        )
        assert main(["jer", str(path)]) == 3

    def test_naive_size_cap_exits_4(self, tmp_path):
        rows = [f"j{i},0.4,0" for i in range(27)]
        path = write_lines(tmp_path / "big.csv", "id,epsilon,requirement", *rows)
        assert main(["jer", str(path), "--algorithm", "naive"]) == 4

    def test_parse_failure_exits_2(self, tmp_path):
        path = write_lines(tmp_path / "bad.csv", "id,epsilon,requirement", "a,oops,0")
        assert main(["jer", str(path)]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["jer", str(tmp_path / "nope.csv")]) == 2

    def test_module_entry_exits_2_without_traceback(self, tmp_path):
        # python -m juryselect runs cli.entry, which turns main's code into
        # the process exit status.
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        done = subprocess.run(
            [sys.executable, "-m", "juryselect", "jer", str(tmp_path / "nope.csv")],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 2
        assert done.stderr.startswith("error: ")
        assert "Traceback" not in done.stderr

    def test_empty_id_exits_2_with_line_number(self, tmp_path, capsys):
        path = write_lines(tmp_path / "bad.csv", "id,epsilon,requirement", "a,0.1,0", ",0.2,0", "c,0.3,0")
        assert main(["jer", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:3: empty id")

    def test_duplicate_ids_exit_2(self, tmp_path):
        path = write_lines(
            tmp_path / "dup.csv",
            "id,epsilon,requirement",
            "a,0.1,0",
            "a,0.2,0",
            "b,0.3,0",
        )
        assert main(["jer", str(path)]) == 2


class TestNonFiniteInput:
    @pytest.mark.parametrize("row", ["B,nan,0", "B,0.2,inf"], ids=["nan-epsilon", "inf-requirement"])
    @pytest.mark.parametrize(
        "argv",
        [["jer"], ["solve", "--model", "altrm"], ["solve", "--model", "paym", "--budget", "1"]],
        ids=["jer", "solve-altrm", "solve-paym"],
    )
    def test_exits_2_with_line_number(self, tmp_path, capsys, argv, row):
        path = write_lines(tmp_path / "bad.csv", "id,epsilon,requirement", "A,0.1,0", row, "C,0.3,0")
        assert main([argv[0], str(path), *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}:3: ")
        assert "must be finite" in captured.err


class TestOutOfRangeEpsilon:
    @pytest.mark.parametrize("epsilon", ["-3", "1.5", "-1e-9"])
    @pytest.mark.parametrize(
        "argv",
        [["jer"], ["solve", "--model", "altrm"], ["solve", "--model", "paym", "--budget", "1"]],
        ids=["jer", "solve-altrm", "solve-paym"],
    )
    def test_exits_2_with_line_number(self, tmp_path, capsys, argv, epsilon):
        rows = ["A,0.1,0", f"B,{epsilon},0", "C,0.3,0"]
        path = write_lines(tmp_path / "bad.csv", "id,epsilon,requirement", *rows)
        assert main([argv[0], str(path), *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}:3: ")
        assert "outside [0, 1]" in captured.err


# JSON values that the decoder rejects with other than a JSONDecodeError.
UNDECODABLE_JSON_VALUES = pytest.mark.parametrize(
    "value",
    ["[" * 100_000 + "]" * 100_000, "1" * 5_000],
    ids=["nested-too-deep", "integer-past-digit-limit"],
)


POOL_COMMANDS = pytest.mark.parametrize(
    "argv",
    [["jer"], ["solve", "--model", "altrm"], ["solve", "--model", "paym", "--budget", "1"]],
    ids=["jer", "solve-altrm", "solve-paym"],
)


class TestUndecodableInput:
    """Input that the readers' decoders fail on in unusual ways still exits
    2 with the file and the line or record."""

    @POOL_COMMANDS
    def test_pool_field_past_the_csv_limit(self, tmp_path, capsys, argv):
        rows = ["A,0.1,0", f"B,{'1' * 200_000},0"]
        path = write_lines(tmp_path / "wide.csv", "id,epsilon,requirement", *rows)
        assert main([argv[0], str(path), *argv[1:]]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:3: field larger than field limit")

    @POOL_COMMANDS
    def test_pool_byte_not_utf8(self, tmp_path, capsys, argv):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"id,epsilon,requirement\nA,0.1,0\nB\xff,0.2,0\n")
        assert main([argv[0], str(path), *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}:3: cannot decode byte 0xff as UTF-8")

    def test_corpus_byte_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "bad.ndjson"
        path.write_bytes(b'{"author": "a", "content": "RT @b"}\n{"author": "b\xff", "content": "x"}\n')
        assert main(["rank", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}:2: cannot decode byte 0xff as UTF-8")

    @UNDECODABLE_JSON_VALUES
    def test_corpus_record(self, tmp_path, capsys, value):
        records = ['{"author": "a", "content": "RT @b"}', f'{{"author": "b", "content": "x", "x": {value}}}']
        path = write_lines(tmp_path / "bad.ndjson", *records)
        assert main(["rank", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}:2: invalid JSON: ")

    @UNDECODABLE_JSON_VALUES
    def test_spec(self, tmp_path, capsys, value):
        spec = tmp_path / "spec.json"
        spec.write_text(f'{{"kind": "altrm-traits", "seeds": {value}}}')
        assert main(["experiment", str(spec)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {spec}: invalid JSON: ")


class TestCmdSolve:
    def test_altrm_motivating_pool(self, fig1_csv, capsys):
        assert main(["solve", str(fig1_csv), "--model", "altrm"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload["jury_ids"]) == ["A", "B", "C", "D", "E"]
        assert payload["jer"] == pytest.approx(0.07036, abs=1e-9)
        assert payload["juries_evaluated"] + payload["juries_pruned"] == 4

    def test_paym_traced_pool(self, paym_csv, capsys):
        assert main(["solve", str(paym_csv), "--model", "paym", "--budget", "0.5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload["jury_ids"]) == ["B", "C", "D"]
        assert payload["jer"] == pytest.approx(0.136, abs=1e-9)
        assert payload["total_cost"] == pytest.approx(0.3)

    def test_log10_jer_key(self, fig1_csv, capsys):
        assert main(["solve", str(fig1_csv), "--model", "altrm"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["log10_jer"] == pytest.approx(math.log10(0.07036), abs=1e-9)

    def test_no_pruning_flag_keeps_result(self, fig1_csv, capsys):
        assert main(["solve", str(fig1_csv), "--model", "altrm", "--no-pruning"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload["jury_ids"]) == ["A", "B", "C", "D", "E"]
        assert payload["juries_pruned"] == 0

    def test_unaffordable_budget_exits_5(self, paym_csv):
        assert main(["solve", str(paym_csv), "--model", "paym", "--budget", "0"]) == 5

    def test_paym_without_budget_exits_2(self, paym_csv):
        assert main(["solve", str(paym_csv), "--model", "paym"]) == 2

    def test_altrm_with_budget_exits_2(self, fig1_csv):
        assert main(["solve", str(fig1_csv), "--model", "altrm", "--budget", "1"]) == 2

    def test_bad_pool_exits_2(self, tmp_path):
        path = write_lines(tmp_path / "empty.csv", "id,epsilon,requirement")
        assert main(["solve", str(path), "--model", "altrm"]) == 2

    def test_negative_budget_exits_2(self, paym_csv):
        assert main(["solve", str(paym_csv), "--model", "paym", "--budget", "-1"]) == 2

    def test_nan_budget_exits_2_as_not_a_number(self, paym_csv, capsys):
        assert main(["solve", str(paym_csv), "--model", "paym", "--budget", "nan"]) == 2
        assert "budget must be a number" in capsys.readouterr().err


class TestCmdRank:
    def test_five_user_table(self, two_record_corpus, tmp_path, capsys):
        out = tmp_path / "scores.csv"
        assert main(["rank", str(two_record_corpus), "--method", "hits", "--out", str(out)]) == 0
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 5
        assert {r["username"] for r in rows} == {"carol", "alice", "bob", "erin", "dave"}
        for row in rows:
            assert 1e-6 <= float(row["epsilon"]) <= 1 - 1e-6

    def test_stdout_when_no_out(self, two_record_corpus, capsys):
        assert main(["rank", str(two_record_corpus), "--method", "pagerank"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "username,score,hub_score,epsilon,requirement"
        assert len(lines) == 6
        # PageRank has no hub side: the hub column stays empty.
        assert all(line.split(",")[2] == "" for line in lines[1:])

    def test_retweeted_user_ranked_first(self, tmp_path, capsys):
        path = tmp_path / "pair.ndjson"
        path.write_text(json.dumps({"author": "fan", "content": "RT @star wow"}) + "\n")
        assert main(["rank", str(path), "--method", "pagerank"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1].startswith("star,")

    def test_top_k_filter(self, two_record_corpus, capsys):
        assert main(["rank", str(two_record_corpus), "--method", "hits", "--top-k", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3

    @pytest.mark.parametrize("top_k", ["0", "-2"])
    def test_top_k_below_one_exits_2(self, two_record_corpus, capsys, top_k):
        assert main(["rank", str(two_record_corpus), "--top-k", top_k]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--top-k" in captured.err

    @pytest.mark.parametrize(
        "stamp",
        ["NaN", "Infinity", "1e999", '"inf"', pytest.param("1" + "0" * 400, id="int-past-float-range")],
    )
    def test_non_finite_registration_time_exits_2(self, tmp_path, capsys, stamp):
        path = tmp_path / "aged.ndjson"
        path.write_text(
            '{"author": "old", "content": "RT @young", "author_created_at": 1000}\n'
            '{"author": "young", "content": "hi", "author_created_at": 2000}\n'
            f'{{"author": "mid", "content": "RT @young", "author_created_at": {stamp}}}\n'
        )
        assert main(["rank", str(path), "--method", "pagerank"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ":3:" in captured.err
        assert "Traceback" not in captured.err

    def test_empty_corpus_exits_6(self, tmp_path):
        path = tmp_path / "empty.ndjson"
        path.write_text("")
        assert main(["rank", str(path), "--method", "hits"]) == 6

    def test_bad_damping_exits_2(self, two_record_corpus):
        assert main(["rank", str(two_record_corpus), "--damping", "1.5"]) == 2

    @pytest.mark.parametrize("flag", ["--alpha", "--beta"])
    def test_infinite_squash_parameter_exits_2(self, two_record_corpus, capsys, flag):
        assert main(["rank", str(two_record_corpus), flag, "inf"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flag[2:] in captured.err

    def test_malformed_record_exits_2_with_line(self, tmp_path, capsys):
        path = tmp_path / "bad.ndjson"
        path.write_text('{"author": "a", "content": "x"}\n{broken\n')
        assert main(["rank", str(path), "--method", "hits"]) == 2
        assert ":2:" in capsys.readouterr().err

    def test_requirements_from_account_ages(self, tmp_path, capsys):
        path = tmp_path / "aged.ndjson"
        path.write_text(
            json.dumps({"author": "old", "content": "RT @young", "author_created_at": 1000})
            + "\n"
            + json.dumps({"author": "young", "content": "hi", "author_created_at": 2000})
            + "\n"
            + json.dumps({"author": "mid", "content": "RT @young", "author_created_at": 1500})
            + "\n"
        )
        assert main(["rank", str(path), "--method", "pagerank"]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        req = {r["username"]: float(r["requirement"]) for r in rows}
        assert req == {"old": 1.0, "mid": 0.5, "young": 0.0}


class TestCmdGenPool:
    def test_writes_deterministic_csv(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        args = [
            "gen-pool",
            "--pool-size", "10",
            "--epsilon-mean", "0.2",
            "--epsilon-stddev", "0.05",
            "--seed", "7",
        ]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_text() == out_b.read_text()
        lines = out_a.read_text().splitlines()
        assert lines[0] == "id,epsilon,requirement"
        assert len(lines) == 11

    def test_round_trip_into_solve(self, tmp_path, capsys):
        pool = tmp_path / "pool.csv"
        assert (
            main(
                [
                    "gen-pool",
                    "--pool-size", "15",
                    "--epsilon-mean", "0.3",
                    "--epsilon-stddev", "0.1",
                    "--seed", "3",
                    "--out", str(pool),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["solve", str(pool), "--model", "altrm"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["jury_ids"]

    @pytest.mark.parametrize(
        "stddev, requirement_mean, field",
        [("inf", "0", "epsilon_stddev"), ("0.1", "inf", "requirement_mean")],
    )
    def test_non_finite_parameter_exits_2(self, tmp_path, capsys, stddev, requirement_mean, field):
        out = tmp_path / "pool.csv"
        args = [
            "gen-pool",
            "--pool-size", "4",
            "--epsilon-mean", "0.2",
            "--epsilon-stddev", stddev,
            "--requirement-mean", requirement_mean,
            "--out", str(out),
        ]
        assert main(args) == 2
        assert f"{field} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("message", ["Unable to allocate 745. GiB", ""], ids=["numpy", "bare"])
    def test_pool_too_large_for_memory_exits_4(self, tmp_path, capsys, monkeypatch, message):
        def gen_pool(config):
            raise MemoryError(message)

        monkeypatch.setattr("juryselect.cli.gen_pool", gen_pool)
        args = ["gen-pool", "--pool-size", "100000000000", "--epsilon-mean", "0.2", "--epsilon-stddev", "0.1"]
        assert main(args + ["--out", str(tmp_path / "x.csv")]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message or 'MemoryError'}\n"
        assert "Traceback" not in captured.err


class TestCmdRankSolveRoundTrip:
    def test_rank_output_feeds_solve_directly(self, two_record_corpus, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        assert main(["rank", str(two_record_corpus), "--out", str(scores)]) == 0
        assert main(["solve", str(scores), "--model", "paym", "--budget", "1.0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_cost"] <= 1.0
        assert payload["jury_ids"]

    def test_username_with_a_line_break_keeps_it(self, tmp_path, capsys):
        # "a\nb" registered last, so it alone costs nothing and fits budget 0.
        corpus = tmp_path / "corpus.ndjson"
        records = [
            {"author": "a\nb", "content": "RT @x", "author_created_at": 1000},
            {"author": "x", "content": "hello", "author_created_at": 0},
        ]
        corpus.write_text("".join(json.dumps(r) + "\n" for r in records))
        scores = tmp_path / "scores.csv"
        assert main(["rank", str(corpus), "--out", str(scores)]) == 0
        assert main(["solve", str(scores), "--model", "paym", "--budget", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["jury_ids"] == ["a\nb"]


class TestCmdExperiment:
    def test_runs_spec_file(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        out = tmp_path / "result.csv"
        spec.write_text(
            json.dumps(
                {
                    "kind": "altrm-traits",
                    "pool_size": 101,
                    "epsilon_means": [0.2, 0.7],
                    "epsilon_stddevs": [0.1],
                    "seeds": [1],
                    "out": str(out),
                }
            )
        )
        assert main(["experiment", str(spec)]) == 0
        assert out.exists()
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        sizes = {float(r["epsilon_mean"]): int(r["optimal_jury_size"]) for r in rows}
        assert sizes[0.7] < sizes[0.2]

    def test_seed_and_out_overrides(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "kind": "altrm-traits",
                    "pool_size": 51,
                    "epsilon_means": [0.3],
                    "epsilon_stddevs": [0.1],
                    "seeds": [1, 2],
                }
            )
        )
        out = tmp_path / "override.csv"
        assert main(["experiment", str(spec), "--seed", "9", "--out", str(out)]) == 0
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [r["seed"] for r in rows] == ["9"]

    def test_bad_spec_exits_2(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "altrm-traits"}))
        assert main(["experiment", str(spec)]) == 2

    @pytest.mark.parametrize(
        "bad",
        [{"pool_size": "50"}, {"epsilon_means": 0.2}, {"out": None}, {"seeds": [True]}],
        ids=["string-size", "scalar-axis", "null-out", "boolean-seed"],
    )
    def test_wrongly_typed_parameter_exits_2(self, tmp_path, capsys, bad):
        params = {"pool_size": 50, "epsilon_means": [0.2], "epsilon_stddevs": [0.1]}
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "altrm-traits", "seeds": [1], **params, **bad}))
        assert main(["experiment", str(spec), "--out", str(tmp_path / "out.csv")]) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra",
        [{"top_k": 0}, {"top_k": -3}, {"top_k": 23}, {"dampng": 0.5}, {"methods": ["hits", "foo"]}],
        ids=["top-k-0", "top-k-negative", "top-k-past-the-oracle-cap", "typo", "unknown-method"],
    )
    def test_rank_and_select_spec_errors_exit_2(self, tmp_path, two_record_corpus, capsys, extra):
        spec = tmp_path / "spec.json"
        params = {"corpus": str(two_record_corpus), "methods": ["hits"], "budget_fractions": [0.5]}
        spec.write_text(json.dumps({"kind": "rank-and-select", **params, **extra}))
        assert main(["experiment", str(spec), "--out", str(tmp_path / "out.csv")]) == 2
        err = capsys.readouterr().err
        assert next(iter(extra)) in err
        assert "Traceback" not in err
        assert not (tmp_path / "out.csv").exists()

    def test_unreadable_spec_exits_2(self, tmp_path):
        assert main(["experiment", str(tmp_path / "missing.json")]) == 2


def mostly(valid, junk):
    """Draws from ``valid`` three times in four, else from ``junk``."""
    return st.integers(0, 3).flatmap(lambda pick: valid if pick else junk)


@st.composite
def with_one_bad(draw, items, bad):
    """A list drawn from ``items``; three times in four one ``bad`` entry is inserted."""
    drawn = draw(items)
    if draw(st.integers(0, 3)):
        drawn.insert(draw(st.integers(0, len(drawn))), draw(bad))
    return drawn


_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 30),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=5),
)
_JUNK_VALUE = st.one_of(
    _JUNK, st.lists(_JUNK, max_size=3), st.dictionaries(st.text(max_size=3), _JUNK, max_size=2)
)
_RATE = st.floats(0, 1).map(repr)
_BAD_FIELD = st.one_of(
    st.sampled_from(["-3", "1.5", "nan", "inf", "1e999", "", "x"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(max_size=4),
)
_POOL_ROWS = st.lists(
    st.tuples(st.text("abcdefgh", min_size=1, max_size=3), _RATE, _RATE),
    max_size=30,
    unique_by=lambda row: row[0],
).map(lambda rows: [",".join(row) for row in rows])
_BAD_ROW = st.lists(st.one_of(_RATE, _BAD_FIELD), max_size=4).map(",".join)
_NAME = st.sampled_from(["a", "b", "c", "d", "e"])
_CHAIN = st.lists(_NAME, max_size=3).map(lambda names: " ".join(f"RT @{n}" for n in names))
_RECORD = st.fixed_dictionaries(
    {"author": _NAME, "content": _CHAIN}, optional={"author_created_at": st.integers(0, 2000)}
).map(json.dumps)
_BAD_LINE = st.one_of(
    st.fixed_dictionaries(
        {"author": st.one_of(_NAME, _JUNK), "content": st.one_of(_CHAIN, _JUNK)},
        optional={"author_created_at": st.one_of(_JUNK, st.just("2012-01-01T00:00:00Z"))},
    ).map(json.dumps),
    st.sampled_from(["{broken", "[]", "3", "null"]),
    st.text(max_size=8),
)
# One small valid spec per kind; the fuzz drops keys from it or replaces
# their values with junk.  Junk integers stay at or below 30, so no example
# builds a large pool.
_SPECS = {
    "altrm-traits": {"pool_size": 15, "epsilon_means": [0.2], "epsilon_stddevs": [0.1], "seeds": [1]},
    "altrm-timing": {"pool_sizes": [9], "epsilon_mean": 0.3, "epsilon_stddevs": [0.1], "seeds": [1]},
    "paym-traits": {
        "pool_size": 15, "epsilon_mean": 0.2, "epsilon_stddev": 0.1, "requirement_means": [0.4],
        "requirement_stddev": 0.2, "budgets": [0.5], "seeds": [1],
    },
    "paym-effectiveness": {
        "pool_size": 8, "epsilon_mean": 0.2, "epsilon_stddevs": [0.1], "requirement_mean": 0.1,
        "requirement_stddev": 0.2, "budgets": [0.5], "seeds": [1],
    },
    "rank-and-select": {"methods": ["hits"], "budget_fractions": [0.5], "top_k": 5, "alpha": 10},
}
_SPEC_KEYS = sorted(
    {key for spec in _SPECS.values() for key in spec} | {"kind", "out", "corpus", "damping", "dampng"}
)


class TestMalformedInputFuzz:
    """Whatever the input files hold, ``main`` returns a documented exit code
    and no exception escapes as a traceback."""

    @staticmethod
    def check(argv):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([str(arg) for arg in argv])
        assert code in {0, 2, 3, 4, 5, 6}
        assert "Traceback" not in err.getvalue()
        assert (code == 0) == (err.getvalue() == "")

    @settings(max_examples=120, deadline=None)
    @given(
        header=mostly(
            st.just("id,epsilon,requirement"),
            st.sampled_from(["username,score,hub_score,epsilon,requirement", "id,eps", ""]),
        ),
        rows=with_one_bad(_POOL_ROWS, _BAD_ROW),
        command=st.one_of(
            st.sampled_from(["dp", "cba", "naive"]).map(lambda algorithm: ["jer", "--algorithm", algorithm]),
            st.just(["solve", "--model", "altrm"]),
            st.sampled_from(["0", "0.5", "2", "-1", "nan", "inf"]).map(
                lambda budget: ["solve", "--model", "paym", "--budget", budget]
            ),
        ),
    )
    def test_pool_csv(self, tmp_path_factory, header, rows, command):
        path = tmp_path_factory.mktemp("csv") / "pool.csv"
        path.write_bytes("\n".join([header, *rows]).encode("utf-8", "surrogatepass"))
        self.check([command[0], path, *command[1:]])

    @settings(max_examples=120, deadline=None)
    @given(
        lines=with_one_bad(st.lists(_RECORD, max_size=8), _BAD_LINE),
        method=st.sampled_from(["hits", "pagerank"]),
        flags=st.lists(
            st.one_of(
                st.tuples(st.just("--top-k"), st.integers(-2, 22)),
                st.tuples(
                    st.sampled_from(["--alpha", "--beta", "--damping"]),
                    st.sampled_from(["-1", "0", "0.5", "10", "inf", "nan"]),
                ),
            ),
            max_size=2,
        ),
    )
    def test_corpus(self, tmp_path_factory, lines, method, flags):
        path = tmp_path_factory.mktemp("ndjson") / "corpus.ndjson"
        path.write_bytes("\n".join(lines).encode("utf-8", "surrogatepass"))
        self.check(["rank", path, "--method", method, *(text for flag in flags for text in flag)])

    @settings(max_examples=120, deadline=None)
    @given(
        kind=st.sampled_from([*_SPECS, "nonsense"]),
        # Each change drops a key or sets it to a junk value.
        changes=mostly(
            st.just([]),
            st.lists(st.tuples(st.sampled_from(_SPEC_KEYS), st.booleans(), _JUNK_VALUE), min_size=1, max_size=2),
        ),
        raw=mostly(st.none(), st.text(max_size=12)),
    )
    def test_spec(self, tmp_path_factory, kind, changes, raw):
        work = tmp_path_factory.mktemp("spec")
        spec = {"kind": kind, **_SPECS.get(kind, {})}
        if kind == "rank-and-select":
            records = [json.dumps({"author": a, "content": f"RT @{b}"}) for a, b in ["ab", "ca", "da", "bc"]]
            spec["corpus"] = str(write_lines(work / "corpus.ndjson", *records))
        for key, drop, value in changes:
            if drop:
                spec.pop(key, None)
            else:
                spec[key] = value
        path = work / "spec.json"
        path.write_bytes((json.dumps(spec) if raw is None else raw).encode("utf-8", "surrogatepass"))
        self.check(["experiment", path, "--out", work / "out.csv"])
