"""File format round trips and failure modes."""

import re

import pytest

from juryselect import CorpusError, InputFormatError, Juror
from juryselect.io import (
    TweetRecord,
    read_corpus,
    read_jurors_csv,
    read_pool_csv,
    write_corpus,
    write_pool_csv,
    write_scores_csv,
)


class TestPoolCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "pool.csv"
        jurors = [Juror("a", 0.123456789, 0.5), Juror("b", 0.2, 0.0)]
        write_pool_csv(path, jurors)
        pool = read_pool_csv(path)
        assert list(pool) == jurors

    def test_header_required(self, tmp_path):
        path = tmp_path / "pool.csv"
        path.write_text("a,0.1,0\n")
        with pytest.raises(InputFormatError):
            read_jurors_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "pool.csv"
        path.write_text("")
        with pytest.raises(InputFormatError):
            read_jurors_csv(path)

    def test_bad_float(self, tmp_path):
        path = tmp_path / "pool.csv"
        path.write_text("id,epsilon,requirement\na,zero point one,0\n")
        with pytest.raises(InputFormatError) as err:
            read_jurors_csv(path)
        assert ":2:" in str(err.value)

    @pytest.mark.parametrize("epsilon", ["-3", "-0.5", "1.0000001", "2"])
    def test_epsilon_outside_unit_interval_rejected_with_line(self, tmp_path, epsilon):
        path = tmp_path / "pool.csv"
        path.write_text(f"id,epsilon,requirement\na,0.1,0\nb,{epsilon},0\n")
        with pytest.raises(InputFormatError, match=f":3: epsilon {epsilon} outside"):
            read_jurors_csv(path)

    def test_epsilon_at_the_unit_bounds_is_clamped(self, tmp_path):
        path = tmp_path / "pool.csv"
        path.write_text("id,epsilon,requirement\na,0,0\nb,1,0\nc,-0.0,0\n")
        assert [j.epsilon for j in read_jurors_csv(path)] == [1e-6, 1 - 1e-6, 1e-6]

    def test_field_past_the_csv_limit_rejected_with_line(self, tmp_path):
        path = tmp_path / "pool.csv"
        path.write_text(f"id,epsilon,requirement\na,0.1,0\nb,{'1' * 200_000},0\n")
        with pytest.raises(InputFormatError, match=f"^{re.escape(str(path))}:3: field larger"):
            read_jurors_csv(path)

    def test_quoted_line_break_kept_in_id(self, tmp_path):
        path = tmp_path / "pool.csv"
        path.write_bytes(b'id,epsilon,requirement\n"a\nb",0.1,0\n')
        assert [j.id for j in read_jurors_csv(path)] == ["a\nb"]

    def test_line_numbers_count_the_lines_of_a_quoted_field(self, tmp_path):
        path = tmp_path / "pool.csv"
        path.write_bytes(b'id,epsilon,requirement\n"a\nb",0.1,0\nc,zz,0\n')
        with pytest.raises(InputFormatError, match=f"^{re.escape(str(path))}:4: could not convert"):
            read_jurors_csv(path)

    def test_a_bad_record_is_named_by_its_first_line(self, tmp_path):
        path = tmp_path / "pool.csv"
        path.write_bytes(b'id,epsilon,requirement\n"a\nb",zz,0\n')
        with pytest.raises(InputFormatError, match=f"^{re.escape(str(path))}:2: could not convert"):
            read_jurors_csv(path)

    def test_unicode_line_separator_kept_in_id(self, tmp_path):
        path = tmp_path / "pool.csv"
        path.write_text("id,epsilon,requirement\na\u2028b,0.1,0\n", encoding="utf-8")
        assert [j.id for j in read_jurors_csv(path)] == ["a\u2028b"]

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    def test_undecodable_byte_rejected_with_line(self, tmp_path, newline):
        path = tmp_path / "pool.csv"
        path.write_bytes(newline.join([b"id,epsilon,requirement", b"a,0.1,0", b"b\xff,0.2,0", b""]))
        with pytest.raises(InputFormatError, match=f"^{re.escape(str(path))}:3: cannot decode byte 0xff"):
            read_jurors_csv(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "pool.csv"
        path.write_text("id,epsilon,requirement\na,0.1\n")
        with pytest.raises(InputFormatError):
            read_jurors_csv(path)

    def test_empty_requirement_defaults_to_zero(self, tmp_path):
        path = tmp_path / "pool.csv"
        path.write_text("id,epsilon,requirement\na,0.1,\n")
        assert read_jurors_csv(path)[0].requirement == 0.0

    def test_duplicate_ids_rejected_for_pools(self, tmp_path):
        path = tmp_path / "pool.csv"
        path.write_text("id,epsilon,requirement\na,0.1,0\na,0.2,0\n")
        with pytest.raises(InputFormatError):
            read_pool_csv(path)

    def test_no_rows_rejected_for_pools(self, tmp_path):
        path = tmp_path / "pool.csv"
        path.write_text("id,epsilon,requirement\n")
        with pytest.raises(InputFormatError):
            read_pool_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputFormatError):
            read_jurors_csv(tmp_path / "nope.csv")


class TestCorpus:
    def test_round_trip_with_timestamps(self, tmp_path):
        path = tmp_path / "tweets.ndjson"
        records = [
            TweetRecord("a", "RT @b hi", 1500000000.0),
            TweetRecord("b", "plain tweet"),
        ]
        write_corpus(path, records)
        assert list(read_corpus(path)) == records

    def test_iso_timestamp_parsed(self, tmp_path):
        path = tmp_path / "tweets.ndjson"
        path.write_text(
            '{"author": "a", "content": "x", "author_created_at": "2012-07-01T00:00:00Z"}\n'
        )
        (record,) = read_corpus(path)
        assert record.author_created_at == pytest.approx(1341100800.0)

    def test_iso_timestamp_without_zone_reads_as_utc(self, tmp_path):
        path = tmp_path / "tweets.ndjson"
        path.write_text(
            '{"author": "a", "content": "x", "author_created_at": "2012-08-01T12:00:00"}\n'
            '{"author": "b", "content": "y", "author_created_at": "2012-08-01T12:00:00Z"}\n'
        )
        naive, utc = read_corpus(path)
        assert naive.author_created_at == utc.author_created_at

    def test_epoch_string_parsed(self, tmp_path):
        path = tmp_path / "tweets.ndjson"
        path.write_text('{"author": "a", "content": "x", "author_created_at": "123456"}\n')
        (record,) = read_corpus(path)
        assert record.author_created_at == 123456.0

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "tweets.ndjson"
        path.write_text('{"author": "a", "content": "x"}\n\n{"author": "b", "content": "y"}\n')
        assert len(list(read_corpus(path))) == 2

    def test_invalid_json_carries_record_index(self, tmp_path):
        path = tmp_path / "tweets.ndjson"
        path.write_text('{"author": "a", "content": "x"}\nnot json\n')
        with pytest.raises(CorpusError) as err:
            list(read_corpus(path))
        assert err.value.record_index == 2

    @pytest.mark.parametrize(
        "value",
        ["[" * 100_000 + "]" * 100_000, "1" * 5_000],
        ids=["nested-too-deep", "integer-past-digit-limit"],
    )
    def test_undecodable_value_carries_record_index(self, tmp_path, value):
        path = tmp_path / "tweets.ndjson"
        path.write_text(f'{{"author": "a", "content": "x"}}\n{{"author": "b", "x": {value}}}\n')
        with pytest.raises(CorpusError, match=f"^{re.escape(str(path))}:2: invalid JSON: ") as err:
            list(read_corpus(path))
        assert err.value.record_index == 2

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("good", [1, 1000])
    def test_undecodable_byte_carries_record_index(self, tmp_path, newline, good):
        # 1,000 good records fill more than one read chunk, so some are
        # yielded before decoding fails.
        path = tmp_path / "tweets.ndjson"
        records = [b'{"author": "a", "content": "x"}'] * good + [b'{"author": "b\xff", "content": "y"}', b""]
        path.write_bytes(newline.join(records))
        with pytest.raises(CorpusError, match=f"^{re.escape(str(path))}:{good + 1}: cannot decode byte 0xff") as err:
            list(read_corpus(path))
        assert err.value.record_index == good + 1

    def test_missing_author_rejected(self, tmp_path):
        path = tmp_path / "tweets.ndjson"
        path.write_text('{"content": "x"}\n')
        with pytest.raises(CorpusError):
            list(read_corpus(path))

    def test_missing_content_rejected(self, tmp_path):
        path = tmp_path / "tweets.ndjson"
        path.write_text('{"author": "a"}\n')
        with pytest.raises(CorpusError, match="missing 'content'") as err:
            list(read_corpus(path))
        assert err.value.record_index == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(CorpusError, match="cannot read"):
            list(read_corpus(tmp_path / "nope.ndjson"))

    def test_bad_timestamp_rejected(self, tmp_path):
        path = tmp_path / "tweets.ndjson"
        path.write_text('{"author": "a", "content": "x", "author_created_at": "not a date"}\n')
        with pytest.raises(CorpusError) as err:
            list(read_corpus(path))
        assert err.value.record_index == 1

    @pytest.mark.parametrize(
        "stamp",
        [
            *["NaN", "Infinity", "-Infinity", "1e999", '"inf"', '"nan"'],
            pytest.param("1" + "0" * 400, id="int-past-float-range"),
        ],
    )
    def test_non_finite_timestamp_rejected_with_record_index(self, tmp_path, stamp):
        path = tmp_path / "tweets.ndjson"
        path.write_text(
            '{"author": "a", "content": "x", "author_created_at": 1000}\n'
            f'{{"author": "b", "content": "y", "author_created_at": {stamp}}}\n'
        )
        with pytest.raises(CorpusError) as err:
            list(read_corpus(path))
        assert err.value.record_index == 2
        assert f"{path}:2:" in str(err.value)

    @pytest.mark.parametrize("stamp", ["[1]", "true"], ids=["list", "boolean"])
    def test_timestamp_of_another_type_rejected_with_record_index(self, tmp_path, stamp):
        path = tmp_path / "tweets.ndjson"
        path.write_text(
            '{"author": "a", "content": "x", "author_created_at": 1000}\n'
            f'{{"author": "b", "content": "y", "author_created_at": {stamp}}}\n'
        )
        with pytest.raises(CorpusError, match=f"^{re.escape(str(path))}:2: bad author_created_at") as err:
            list(read_corpus(path))
        assert err.value.record_index == 2

    def test_extra_data_after_object_rejected(self, tmp_path):
        path = tmp_path / "tweets.ndjson"
        path.write_text('{"author": "a", "content": "x"} {"author": "b", "content": "y"}\n')
        with pytest.raises(CorpusError, match="Extra data") as err:
            list(read_corpus(path))
        assert err.value.record_index == 1

    def test_reads_lazily(self, tmp_path):
        path = tmp_path / "tweets.ndjson"
        path.write_text('{"author": "a", "content": "x"}\nnot json\n')
        records = read_corpus(path)
        assert next(records).author == "a"
        with pytest.raises(CorpusError):
            next(records)


class TestScoresCsv:
    def test_hub_column_blank_without_hubs(self, tmp_path):
        path = tmp_path / "scores.csv"
        write_scores_csv(
            path,
            [
                {"username": "a", "score": 0.5, "hub_score": None, "epsilon": 0.1, "requirement": 0.0},
                {"username": "b", "score": 0.25, "hub_score": 0.9, "epsilon": 0.2, "requirement": 1.0},
            ],
        )
        lines = path.read_text().splitlines()
        assert lines[0] == "username,score,hub_score,epsilon,requirement"
        assert lines[1] == "a,0.5,,0.1,0.0"
        assert lines[2] == "b,0.25,0.9,0.2,1.0"
