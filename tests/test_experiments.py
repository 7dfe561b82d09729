"""Experiment spec validation and one small run per experiment kind."""

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from juryselect import ExperimentSpec, InputFormatError, rank_candidates, run_experiment
from juryselect.estimate import RankConfig, TweetRecord
from juryselect.io import write_corpus

DEMO_SPECS = sorted((Path(__file__).parent.parent / "demos" / "experiment_specs").glob("*.json"))


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

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("rank-and-select", {"corpus": "c", "methods": ["hits"], "budget_fractions": [0.5], "dampng": 0.5}),
            ("altrm-traits", {"pool_size": 50, "epsilon_means": [0.2], "epsilon_stddevs": [0.1], "top_k": 5}),
            ("paym-traits", {
                "pool_size": 50, "epsilon_mean": 0.2, "epsilon_stddev": 0.1, "requirement_means": [0.5],
                "requirement_stddev": 0.1, "budgets": [1.0], "budget": 1.0,
            }),
        ],
        ids=["misspelt-optional", "optional-of-another-kind", "near-miss-of-required"],
    )
    def test_unknown_parameters_rejected(self, kind, params):
        with pytest.raises(InputFormatError, match="unknown parameters"):
            ExperimentSpec(kind, params, (1,))

    @pytest.mark.parametrize("top_k", [0, -3])
    def test_top_k_below_one_rejected(self, top_k):
        params = {"corpus": "c", "methods": ["hits"], "budget_fractions": [0.5], "top_k": top_k}
        with pytest.raises(InputFormatError, match="top_k"):
            ExperimentSpec("rank-and-select", params, ())

    def test_every_optional_parameter_accepted(self):
        params = {
            "corpus": "c", "methods": ["hits"], "budget_fractions": [0.5],
            "top_k": 1, "damping": 0.5, "alpha": 2.0, "beta": 3.0,
        }
        assert ExperimentSpec("rank-and-select", params, ()).params == params

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

    @pytest.mark.parametrize("path", DEMO_SPECS, ids=[path.stem for path in DEMO_SPECS])
    def test_demo_spec_loads(self, path):
        spec = ExperimentSpec.from_file(path)
        assert spec.out == f"{path.stem}.csv"

    @pytest.mark.parametrize(
        "obj, message", [([], "JSON object"), ({"kind": 3}, "string 'kind'")], ids=["list", "numeric-kind"]
    )
    def test_from_dict_needs_an_object_with_a_string_kind(self, obj, message):
        with pytest.raises(InputFormatError, match=message):
            ExperimentSpec.from_dict(obj)

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
        # Every odd prefix is either read or skipped by the stop, which
        # only runs with pruning.
        for r in rows:
            prefixes = (int(r["pool_size"]) + 1) // 2
            assert int(r["juries_evaluated"]) + int(r["juries_pruned"]) == prefixes
            if r["pruning"] == "0":
                assert int(r["juries_pruned"]) == 0

    def test_counters_show_the_stop(self, tmp_path):
        # Error rates around 0.6: the stop fires on every pool with pruning.
        spec = ExperimentSpec(
            "altrm-timing",
            {"pool_sizes": [201, 401], "epsilon_mean": 0.6, "epsilon_stddevs": [0.1]},
            seeds=(1,),
            out=str(tmp_path / "timing.csv"),
        )
        for r in read_rows(run_experiment(spec)):
            pruned = int(r["juries_pruned"])
            assert pruned > 0 if r["pruning"] == "1" else pruned == 0

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


    def test_log10_jer_column_survives_the_float_floor(self, tmp_path):
        spec = ExperimentSpec(
            "paym-traits",
            {
                "pool_size": 1000,
                "epsilon_mean": 0.1,
                "epsilon_stddev": 0.1,
                "requirement_means": [0.0],
                "requirement_stddev": 0.0,
                "budgets": [1.0],
            },
            seeds=(1,),
            out=str(tmp_path / "deep.csv"),
        )
        (row,) = read_rows(run_experiment(spec))
        assert float(row["jer"]) == 0.0
        assert float(row["log10_jer"]) == pytest.approx(-477.926, abs=1e-3)
        assert int(row["jury_size"]) == 177


def assert_log10_columns_match(rows):
    for row in rows:
        for solver in ("greedy", "oracle"):
            jer = float(row[f"jer_{solver}"])
            assert float(row[f"log10_jer_{solver}"]) == pytest.approx(math.log10(jer), abs=1e-12)


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
        assert_log10_columns_match(rows)

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
        assert_log10_columns_match(rows)


class TestRankCandidates:
    @pytest.mark.parametrize("method", ["hits", "pagerank"])
    def test_top_k_rows_equal_the_full_ranking_head(self, tmp_path, method):
        # Error rates are scaled by every user's score, not the top k's.
        corpus = synthetic_corpus(tmp_path / "corpus.ndjson")
        config = RankConfig(alpha=3.0, beta=5.0)
        full = rank_candidates(corpus, method, config)
        assert full[-1]["epsilon"] == 1.0 - 1e-6
        for top_k in (1, 5, len(full), len(full) + 3):
            assert rank_candidates(corpus, method, config, top_k) == full[:top_k]

    def test_unknown_method_rejected(self, tmp_path):
        corpus = synthetic_corpus(tmp_path / "corpus.ndjson", users=8, tweets=20)
        with pytest.raises(InputFormatError, match="eigen"):
            rank_candidates(corpus, "eigen")
