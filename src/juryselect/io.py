"""File formats: juror/pool CSV, tweet-corpus NDJSON, score-table CSV.

Pool CSV carries the header ``id,epsilon,requirement``; the corpus is
newline-delimited JSON with ``author``, ``content`` and an optional
``author_created_at`` (ISO-8601 or epoch seconds); score tables carry
``username,score,hub_score,epsilon,requirement`` with an empty hub column
for rankings that have no hub side.
"""

from __future__ import annotations

import csv
import json
import math
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import CorpusError, InputFormatError
from .estimate import TweetRecord
from .jer import Juror
from .solver import CandidatePool

POOL_HEADER = ("id", "epsilon", "requirement")
SCORE_HEADER = ("username", "score", "hub_score", "epsilon", "requirement")


def read_jurors_csv(path: str | Path) -> list[Juror]:
    """Read juror rows; raises InputFormatError on any malformed content.

    Accepts the pool header (id,epsilon,requirement) and, so that ranking
    output feeds straight back in, the score-table header, from which the
    username, epsilon and requirement columns are used.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    reader = csv.reader(text.splitlines())
    try:
        header = tuple(h.strip() for h in next(reader))
    except StopIteration:
        raise InputFormatError(f"{path}: empty file, expected header {','.join(POOL_HEADER)}")
    if header == POOL_HEADER:
        id_col, eps_col, req_col = 0, 1, 2
    elif header == SCORE_HEADER:
        id_col, eps_col, req_col = 0, 3, 4
    else:
        raise InputFormatError(
            f"{path}: expected header {','.join(POOL_HEADER)} "
            f"or {','.join(SCORE_HEADER)}, got {','.join(header)}"
        )
    jurors = []
    for line_no, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(header):
            raise InputFormatError(
                f"{path}:{line_no}: expected {len(header)} fields, got {len(row)}"
            )
        juror_id = row[id_col].strip()
        eps_text = row[eps_col].strip()
        req_text = row[req_col].strip()
        if not juror_id:
            raise InputFormatError(f"{path}:{line_no}: empty id")
        try:
            epsilon = float(eps_text)
            requirement = float(req_text) if req_text else 0.0
        except ValueError as exc:
            raise InputFormatError(f"{path}:{line_no}: {exc}") from exc
        # The clamp in Juror is for estimated rates at 0 or 1, not for
        # typos; non-finite values get Juror's own message.
        if math.isfinite(epsilon) and not 0.0 <= epsilon <= 1.0:
            raise InputFormatError(f"{path}:{line_no}: epsilon {eps_text} outside [0, 1]")
        try:
            jurors.append(Juror(juror_id, epsilon, requirement))
        except ValueError as exc:
            raise InputFormatError(f"{path}:{line_no}: {exc}") from exc
    return jurors


def read_pool_csv(path: str | Path) -> CandidatePool:
    jurors = read_jurors_csv(path)
    if not jurors:
        raise InputFormatError(f"{path}: no juror rows")
    if len({j.id for j in jurors}) != len(jurors):
        raise InputFormatError(f"{path}: duplicate juror ids")
    return CandidatePool(tuple(jurors))


def write_pool_csv(path: str | Path, pool: CandidatePool | Sequence[Juror]) -> None:
    jurors = pool.candidates if isinstance(pool, CandidatePool) else tuple(pool)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(POOL_HEADER)
        for juror in jurors:
            writer.writerow([juror.id, repr(juror.epsilon), repr(juror.requirement)])


def _parse_created_at(value) -> float | None:
    """Registration time in epoch seconds; ValueError if unusable."""
    if value is None:
        return None
    if isinstance(value, str):
        text = value.strip()
        try:
            stamp = float(text)
        except ValueError:
            try:
                parsed = datetime.fromisoformat(text.replace("Z", "+00:00"))
            except ValueError:
                raise ValueError(f"bad author_created_at {value!r}") from None
            if parsed.tzinfo is None:
                parsed = parsed.replace(tzinfo=timezone.utc)
            stamp = parsed.timestamp()
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        stamp = float(value)
    else:
        raise ValueError(f"bad author_created_at {value!r}")
    if not math.isfinite(stamp):
        raise ValueError(f"bad author_created_at {value!r}: must be finite")
    return stamp


def read_corpus(path: str | Path) -> Iterator[TweetRecord]:
    """Yield tweet records lazily; failures carry the 1-based record index."""
    path = Path(path)
    try:
        handle = open(path, encoding="utf-8")
    except OSError as exc:
        raise CorpusError(f"cannot read {path}: {exc}") from exc
    decode = json.JSONDecoder().raw_decode
    with handle:
        for index, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj, end = decode(line)
                if end != len(line):
                    # Point at the extra data itself, as json.loads does.
                    extra = len(line) - len(line[end:].lstrip(" \t\n\r"))
                    raise json.JSONDecodeError("Extra data", line, extra)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{path}:{index}: invalid JSON: {exc}", index) from exc
            if not isinstance(obj, dict):
                raise CorpusError(f"{path}:{index}: expected an object per line", index)
            author = obj.get("author")
            content = obj.get("content")
            if not isinstance(author, str) or not author:
                raise CorpusError(f"{path}:{index}: missing or empty 'author'", index)
            if not isinstance(content, str):
                raise CorpusError(f"{path}:{index}: missing 'content'", index)
            try:
                created = _parse_created_at(obj.get("author_created_at"))
            except ValueError as exc:
                raise CorpusError(f"{path}:{index}: {exc}", index) from exc
            yield TweetRecord(author, content, created)


def write_corpus(path: str | Path, records: Iterable[TweetRecord]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            obj = {"author": record.author, "content": record.content}
            if record.author_created_at is not None:
                obj["author_created_at"] = record.author_created_at
            handle.write(json.dumps(obj) + "\n")


def write_scores_csv(path_or_handle, rows: Iterable[dict]) -> None:
    """Write score-table rows; hub_score None renders as an empty field."""

    def _write(handle):
        writer = csv.writer(handle)
        writer.writerow(SCORE_HEADER)
        for row in rows:
            hub = row.get("hub_score")
            writer.writerow(
                [
                    row["username"],
                    repr(float(row["score"])),
                    "" if hub is None else repr(float(hub)),
                    repr(float(row["epsilon"])),
                    repr(float(row["requirement"])),
                ]
            )

    if isinstance(path_or_handle, (str, Path)):
        with open(path_or_handle, "w", encoding="utf-8", newline="") as handle:
            _write(handle)
    else:
        _write(path_or_handle)
