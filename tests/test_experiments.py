"""Experiment spec validation and one small run per experiment kind."""

import csv
import json
import math

import numpy as np
import pytest

from juryselect import ExperimentSpec, InputFormatError, run_experiment
from juryselect.estimate import TweetRecord
from juryselect.io import write_corpus


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def synthetic_corpus(path, users=30, tweets=200, seed=5):
    """Zipf-ish retweet corpus: low-index users get retweeted the most."""
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, users + 1)
    weights /= weights.sum()
    records = []
    for i in range(users):
        created = 1_200_000_000 + int(rng.integers(0, 300_000_000))
        records.append(TweetRecord(f"user{i:02d}", "hello world", created))
    for _ in range(tweets):
        author = int(rng.integers(0, users))
        target = int(rng.choice(users, p=weights))
        if target == author:
            continue
        records.append(
            TweetRecord(f"user{author:02d}", f"so true RT @user{target:02d} wisdom")
        )
    write_corpus(path, records)
    return path


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(InputFormatError):
            ExperimentSpec("nonsense", {}, (1,))

    def test_missing_parameters(self):
        with pytest.raises(InputFormatError) as err:
            ExperimentSpec("altrm-traits", {"pool_size": 10}, (1,))
        assert "epsilon_means" in str(err.value)

    def test_empty_grid_axis(self):
        with pytest.raises(InputFormatError):
            ExperimentSpec(
                "altrm-traits",
                {"pool_size": 10, "epsilon_means": [], "epsilon_stddevs": [0.1]},
                (1,),
            )

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("altrm-traits", {"pool_size": "50", "epsilon_means": [0.2], "epsilon_stddevs": [0.1]}),
            ("altrm-traits", {"pool_size": 50, "epsilon_means": 0.2, "epsilon_stddevs": [0.1]}),
            ("altrm-traits", {"pool_size": 50, "epsilon_means": [0.2, "x"], "epsilon_stddevs": [0.1]}),
            ("altrm-traits", {"pool_size": 50, "epsilon_means": [True], "epsilon_stddevs": [0.1]}),
            ("altrm-traits", {"pool_size": 50.5, "epsilon_means": [0.2], "epsilon_stddevs": [0.1]}),
            ("altrm-timing", {"pool_sizes": [50, 60.0], "epsilon_mean": 0.2, "epsilon_stddevs": [0.1]}),
            ("altrm-timing", {"pool_sizes": [50], "epsilon_mean": float("nan"), "epsilon_stddevs": [0.1]}),
            ("altrm-timing", {"pool_sizes": [50], "epsilon_mean": 0.2, "epsilon_stddevs": [float("inf")]}),
            ("rank-and-select", {"corpus": "c.ndjson", "methods": "hits", "budget_fractions": [0.5]}),
            ("rank-and-select", {"corpus": "c.ndjson", "methods": [1], "budget_fractions": [0.5]}),
            ("rank-and-select", {"corpus": 3, "methods": ["hits"], "budget_fractions": [0.5]}),
            ("rank-and-select", {"corpus": "c", "methods": ["hits"], "budget_fractions": [0.5], "top_k": "5"}),
        ],
    )
    def test_wrongly_typed_parameters(self, kind, params):
        with pytest.raises(InputFormatError):
            ExperimentSpec(kind, params, (1,))

    def test_seeds_required_for_synthetic_kinds(self):
        with pytest.raises(InputFormatError):
            ExperimentSpec(
                "altrm-traits",
                {"pool_size": 10, "epsilon_means": [0.2], "epsilon_stddevs": [0.1]},
                (),
            )

    def test_from_file_resolves_relative_corpus(self, tmp_path):
        corpus = synthetic_corpus(tmp_path / "c.ndjson", users=8, tweets=20)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "kind": "rank-and-select",
                    "corpus": "c.ndjson",
                    "methods": ["hits"],
                    "budget_fractions": [0.5],
                    "top_k": 5,
                }
            )
        )
        spec = ExperimentSpec.from_file(spec_path)
        assert spec.params["corpus"] == str(corpus)

    def test_from_file_bad_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("{nope")
        with pytest.raises(InputFormatError):
            ExperimentSpec.from_file(path)


class TestAltrmTraits:
    def test_error_prone_pools_need_smaller_juries(self, tmp_path):
        spec = ExperimentSpec(
            "altrm-traits",
            {"pool_size": 151, "epsilon_means": [0.2, 0.7], "epsilon_stddevs": [0.1]},
            seeds=(3,),
            out=str(tmp_path / "traits.csv"),
        )
        rows = read_rows(run_experiment(spec))
        assert len(rows) == 2
        by_mean = {float(r["epsilon_mean"]): int(r["optimal_jury_size"]) for r in rows}
        assert by_mean[0.7] < by_mean[0.2]

    def test_log10_jer_column_survives_the_float_floor(self, tmp_path):
        spec = ExperimentSpec(
            "altrm-traits",
            {"pool_size": 1000, "epsilon_means": [0.1, 0.5], "epsilon_stddevs": [0.1]},
            seeds=(1,),
            out=str(tmp_path / "deep.csv"),
        )
        rows = {float(r["epsilon_mean"]): r for r in read_rows(run_experiment(spec))}
        assert float(rows[0.1]["jer"]) == 0.0
        assert float(rows[0.1]["log10_jer"]) == pytest.approx(-477.926, abs=1e-3)
        assert int(rows[0.1]["optimal_jury_size"]) == 177
        shallow = rows[0.5]
        assert float(shallow["log10_jer"]) == pytest.approx(math.log10(float(shallow["jer"])), abs=1e-12)


class TestAltrmTiming:
    def test_rows_and_positive_times(self, tmp_path):
        spec = ExperimentSpec(
            "altrm-timing",
            {"pool_sizes": [51, 101], "epsilon_mean": 0.1, "epsilon_stddevs": [0.05]},
            seeds=(1,),
            out=str(tmp_path / "timing.csv"),
        )
        rows = read_rows(run_experiment(spec))
        assert len(rows) == 4  # 2 sizes x pruning on/off
        assert all(float(r["seconds"]) > 0 for r in rows)
        assert {r["pruning"] for r in rows} == {"0", "1"}

    def test_runtime_grows_with_pool_size(self, tmp_path):
        # Sizes far enough apart that the ordering survives timer noise.
        spec = ExperimentSpec(
            "altrm-timing",
            {"pool_sizes": [201, 801], "epsilon_mean": 0.3, "epsilon_stddevs": [0.1]},
            seeds=(1,),
            out=str(tmp_path / "timing.csv"),
        )
        rows = read_rows(run_experiment(spec))
        for pruning in ("0", "1"):
            times = [float(r["seconds"]) for r in rows if r["pruning"] == pruning]
            assert times[1] >= 0.8 * times[0]


class TestPaymTraits:
    def test_budget_sweep_shape(self, tmp_path):
        spec = ExperimentSpec(
            "paym-traits",
            {
                "pool_size": 60,
                "epsilon_mean": 0.2,
                "epsilon_stddev": 0.05,
                "requirement_means": [0.4, 0.5],
                "requirement_stddev": 0.2,
                "budgets": [0.1, 0.3, 0.5],
            },
            seeds=(2,),
            out=str(tmp_path / "paym.csv"),
        )
        rows = read_rows(run_experiment(spec))
        assert len(rows) == 6
        for row in rows:
            assert float(row["total_cost"]) <= float(row["budget"]) + 1e-12
            assert int(row["jury_size"]) % 2 == 1

    def test_bigger_budget_never_hurts_within_mean(self, tmp_path):
        spec = ExperimentSpec(
            "paym-traits",
            {
                "pool_size": 80,
                "epsilon_mean": 0.25,
                "epsilon_stddev": 0.05,
                "requirement_means": [0.4],
                "requirement_stddev": 0.2,
                "budgets": [0.5, 1.0, 2.0],
            },
            seeds=(9,),
            out=str(tmp_path / "paym2.csv"),
        )
        rows = read_rows(run_experiment(spec))
        jers = [float(r["jer"]) for r in rows]
        assert jers == sorted(jers, reverse=True)


class TestPaymEffectiveness:
    def test_greedy_bounded_by_oracle(self, tmp_path):
        spec = ExperimentSpec(
            "paym-effectiveness",
            {
                "pool_size": 12,
                "epsilon_mean": 0.2,
                "epsilon_stddevs": [0.05],
                "requirement_mean": 0.05,
                "requirement_stddev": 0.2,
                "budgets": [1.0, 1.4, 1.8],
            },
            seeds=(1, 2),
            out=str(tmp_path / "eff.csv"),
        )
        rows = read_rows(run_experiment(spec))
        assert len(rows) == 6
        for row in rows:
            assert float(row["jer_greedy"]) >= float(row["jer_oracle"]) - 1e-9
            assert 0.0 <= float(row["precision"]) <= 1.0
            assert 0.0 <= float(row["recall"]) <= 1.0

    def test_full_budget_sweep_at_enumeration_scale(self, tmp_path):
        budgets = [round(1.0 + 0.2 * i, 10) for i in range(11)]
        spec = ExperimentSpec(
            "paym-effectiveness",
            {
                "pool_size": 22,
                "epsilon_mean": 0.2,
                "epsilon_stddevs": [0.05],
                "requirement_mean": 0.05,
                "requirement_stddev": 0.2,
                "budgets": budgets,
            },
            seeds=(1,),
            out=str(tmp_path / "eff22.csv"),
        )
        rows = read_rows(run_experiment(spec))
        assert len(rows) == 11
        assert all(float(r["jer_greedy"]) >= float(r["jer_oracle"]) - 1e-9 for r in rows)

    def test_pool_size_cap(self, tmp_path):
        spec = ExperimentSpec(
            "paym-effectiveness",
            {
                "pool_size": 30,
                "epsilon_mean": 0.2,
                "epsilon_stddevs": [0.05],
                "requirement_mean": 0.05,
                "requirement_stddev": 0.2,
                "budgets": [1.0],
            },
            seeds=(1,),
            out=str(tmp_path / "eff.csv"),
        )
        with pytest.raises(InputFormatError):
            run_experiment(spec)


class TestRankAndSelect:
    def test_both_methods_produce_comparable_juries(self, tmp_path):
        corpus = synthetic_corpus(tmp_path / "corpus.ndjson")
        spec = ExperimentSpec(
            "rank-and-select",
            {
                "corpus": str(corpus),
                "methods": ["hits", "pagerank"],
                "budget_fractions": [0.01, 0.1, 0.2],
                "top_k": 12,
            },
            out=str(tmp_path / "rank.csv"),
        )
        rows = read_rows(run_experiment(spec))
        assert len(rows) == 6
        for row in rows:
            assert row["method"] in ("hits", "pagerank")
            assert float(row["jer_greedy"]) >= float(row["jer_oracle"]) - 1e-9
            assert 0.0 <= float(row["precision"]) <= 1.0
            assert 0.0 <= float(row["recall"]) <= 1.0
            assert int(row["size_greedy"]) % 2 == 1
