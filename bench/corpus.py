"""Seeded retweet corpus for the ``rank`` command paths.

Authors are drawn uniformly; forwarding targets follow a Zipf law over a
random permutation of the users, as a few accounts attract most of the
forwards.  A record is a plain post carrying its author's registration
time (as epoch seconds or as an ISO-8601 string, alternately), a one-hop
forward ("RT @a ...") or a two-hop chain ("... RT @a ... RT @b ...").
The generator keeps the graph it wrote, so the checks compare against
what is in the file, not against the program.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

USERS = 50_000
RECORDS = 200_000
ZIPF_EXPONENT = 1.1
PLAIN_SHARE = 0.25
TWO_HOP_SHARE = 0.25
_WORDS = ("wow", "so true", "read this", "lol", "agreed", "news", "look")


@dataclass
class Corpus:
    """What the generator wrote: names, edges by index and registration times."""

    path: Path
    names: list[str]
    src: np.ndarray
    dst: np.ndarray
    created: dict[str, float]

    @property
    def node_count(self) -> int:
        return len(self.names)

    @property
    def edge_count(self) -> int:
        return int(self.src.size)


def write_corpus(path: Path, seed: int, users: int = USERS, records: int = RECORDS) -> Corpus:
    rng = np.random.default_rng(seed)
    names = [f"user{i}" for i in range(users)]
    registered = rng.integers(1_100_000_000, 1_350_000_000, users)
    weights = 1.0 / np.arange(1, users + 1) ** ZIPF_EXPONENT
    popular = rng.permutation(users)
    authors = rng.integers(0, users, records)
    kinds = rng.random(records)
    first = popular[rng.choice(users, records, p=weights / weights.sum())]
    second = popular[rng.choice(users, records, p=weights / weights.sum())]
    words = rng.integers(0, len(_WORDS), records)

    nodes: set[int] = set()
    edges: set[tuple[int, int]] = set()
    created: dict[str, float] = {}
    with open(path, "w", encoding="utf-8") as handle:
        for k in range(records):
            a = int(authors[k])
            word = _WORDS[words[k]]
            obj = {"author": names[a]}
            nodes.add(a)
            if kinds[k] < PLAIN_SHARE:
                stamp = int(registered[a])
                obj["content"] = f"{word}, posted at home"
                if k % 2:
                    obj["author_created_at"] = stamp
                else:
                    obj["author_created_at"] = (
                        datetime.fromtimestamp(stamp, timezone.utc).isoformat()
                    )
                created[names[a]] = float(stamp)
                chain = [a]
            elif kinds[k] < 1.0 - TWO_HOP_SHARE:
                t = int(first[k])
                obj["content"] = f"RT @{names[t]}: {word}"
                chain = [a, t]
            else:
                t, u = int(first[k]), int(second[k])
                obj["content"] = f"{word} RT @{names[t]} {word} RT @{names[u]} original"
                chain = [a, t, u]
            nodes.update(chain)
            edges.update((x, y) for x, y in zip(chain, chain[1:]) if x != y)
            handle.write(json.dumps(obj) + "\n")

    used = sorted(nodes)
    position = {old: new for new, old in enumerate(used)}
    pairs = np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)
    src = np.array([position[x] for x in pairs[:, 0]], dtype=np.int64)
    dst = np.array([position[y] for y in pairs[:, 1]], dtype=np.int64)
    return Corpus(path, [names[i] for i in used], src, dst, created)
