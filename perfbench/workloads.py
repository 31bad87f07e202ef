"""The three workloads and their seeded inputs.

Every input a run feeds the program comes from here and depends only on
``--seed`` and ``--seconds``: the distinct keyword-query streams of the
in-process workloads, the Zipf-skewed session sequence of ``serve-cached``,
and the answer-neutral writes between sessions.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, replace
from typing import Any, Union

from repro.index.base import IndexBackend
from repro.workloads.generator import RandomWorkload
from repro.workloads.queries import TABLE2_QUERIES

#: Every run completes at least this many queries, so its p95 has ten
#: samples beyond it.
MIN_QUERIES = 200

#: The reference draw that fixes each run's stratum quotas, and the seed of
#: the fixed layout of streams and sessions.  Neither depends on ``--seed``:
#: every seed runs the same mix of keyword-to-relation patterns (the
#: property that sets a query's cost; latencies cluster by it) in the same
#: order and differs only in which keywords fill each pattern.  Without the
#: quotas a 300-query ``probe-sqlite`` run's p95 moves by ~30% between seeds
#: on sampling alone, because three-person-name queries cost ~15x the median.
REFERENCE_SEED = 0
REFERENCE_DRAWS = 20_000

#: Give up when this many draws per wanted query have not filled the quotas.
MAX_DRAWS_PER_QUERY = 400

#: Written rows go to an entity table no foreign key points into without a
#: relationship row, carrying a token no query uses, so no answer changes.
WRITE_RELATION = "Topic"
WRITE_ID_BASE = 900_000_000


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: where it runs and how much work a run does."""

    name: str
    scale: int
    level: int
    use_lattice: bool
    backend: str
    in_process: bool
    #: Fixed work: a run of ``--seconds S`` issues ``S * this`` queries
    #: (sessions for ``serve-cached``); on a 2-core host the reads take
    #: roughly ``S`` seconds of client time (summed over the in-process
    #: workers, which run two at a time).
    queries_per_second: float
    #: ``serve-cached`` sends one answer-neutral write after every this many
    #: sessions (0: the workload does not write).
    write_every: int = 0

    def query_count(self, seconds: float) -> int:
        return max(MIN_QUERIES, round(self.queries_per_second * seconds))


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="plan-lattice",
            scale=1,
            level=4,
            use_lattice=True,
            backend="memory",
            in_process=True,
            queries_per_second=40.0,
        ),
        Workload(
            name="probe-sqlite",
            scale=32,
            level=4,
            use_lattice=False,
            backend="sqlite",
            in_process=True,
            queries_per_second=20.0,
        ),
        Workload(
            name="serve-cached",
            scale=32,
            level=4,
            use_lattice=False,
            backend="memory",
            in_process=False,
            queries_per_second=30.0,
            write_every=20,
        ),
    )
}


# ------------------------------------------------------------ query streams
class Stratifier:
    """Maps a query to the relations each of its keywords occurs in."""

    def __init__(self, index: IndexBackend):
        self.index = index
        self._classes: dict[str, str] = {}

    def keyword_class(self, keyword: str) -> str:
        key = keyword.casefold()
        if key not in self._classes:
            self._classes[key] = "+".join(self.index.relations_containing(key))
        return self._classes[key]

    def signature(self, query: str) -> tuple[str, ...]:
        return tuple(sorted(self.keyword_class(word) for word in query.split()))

    def quotas(self, count: int) -> dict[tuple[str, ...], int]:
        """Queries per pattern: the reference mix scaled to ``count``."""
        reference = RandomWorkload(self.index, seed=REFERENCE_SEED)
        drawn = Counter(
            self.signature(reference.next_query()) for _ in range(REFERENCE_DRAWS)
        )
        expected = {
            signature: hits * count / REFERENCE_DRAWS
            for signature, hits in drawn.items()
        }
        quotas = {signature: int(share) for signature, share in expected.items()}
        short = count - sum(quotas.values())
        by_remainder = sorted(
            expected, key=lambda signature: (quotas[signature] - expected[signature], signature)
        )
        for signature in by_remainder[:short]:
            quotas[signature] += 1
        return quotas


def _keyword_set(query: str) -> frozenset[str]:
    return frozenset(query.casefold().split())


def query_stream(index: IndexBackend, seed: int, count: int) -> list[str]:
    """``count`` distinct 2-3-keyword queries: Table 2 plus a seeded draw.

    Random queries come from :class:`RandomWorkload` over the snapshot
    vocabulary and are accepted only while their keyword-to-relation
    pattern is below its quota.  The layout does not depend on the seed:
    position *i* holds a query of the same pattern (or the same Table-2
    query) for every seed, and the seed picks the keywords that fill it.
    """
    table2 = [query.text for query in TABLE2_QUERIES]
    if count < len(table2):
        raise ValueError(f"a stream needs at least {len(table2)} queries")
    stratifier = Stratifier(index)
    quotas = stratifier.quotas(count - len(table2))
    layout: list[Union[str, tuple[str, ...]]] = [
        signature for signature, quota in sorted(quotas.items()) for _ in range(quota)
    ]
    layout += table2
    random.Random(REFERENCE_SEED).shuffle(layout)
    seen = {_keyword_set(text) for text in table2}
    source = RandomWorkload(index, seed=seed)
    picked: dict[tuple[str, ...], list[str]] = {signature: [] for signature in quotas}
    wanted = count - len(table2)
    for _ in range(MAX_DRAWS_PER_QUERY * count):
        if wanted == 0:
            break
        query = source.next_query()
        key = _keyword_set(query)
        signature = stratifier.signature(query)
        if key in seen or quotas.get(signature, 0) == 0:
            continue
        seen.add(key)
        quotas[signature] -= 1
        wanted -= 1
        picked[signature].append(query)
    if wanted:
        raise RuntimeError(f"could not draw {count - len(table2)} distinct queries")
    fill = {signature: iter(queries) for signature, queries in picked.items()}
    return [slot if isinstance(slot, str) else next(fill[slot]) for slot in layout]


def zipf_sessions(pool: list[str], count: int) -> list[str]:
    """``count`` session queries drawn Zipf-skewed (exponent 1) from ``pool``.

    Each pool entry appears ``count / rank`` times up to normalisation and
    at least once, so every seed repeats the same share of sessions,
    ``1 - len(pool) / count``.  The order of ranks does not depend on the
    seed either (a :func:`query_stream` pool holds the same pattern at each
    rank for every seed), so where repeats and writes fall is the same for
    every seed; the seed picks the keywords of each pool entry.
    """
    weights = [1.0 / rank for rank in range(1, len(pool) + 1)]
    expected = [count * weight / sum(weights) for weight in weights]
    counts = [max(1, int(share)) for share in expected]
    surplus = count - sum(counts)
    if not pool or surplus < 0:
        raise ValueError(f"a pool of {len(pool)} does not fit {count} sessions")
    order = sorted(range(len(pool)), key=lambda rank: counts[rank] - expected[rank])
    for rank in order[:surplus]:
        counts[rank] += 1
    sessions = [query for query, times in zip(pool, counts) for _ in range(times)]
    random.Random(REFERENCE_SEED).shuffle(sessions)
    return sessions


def repeat_share(queries: list[str]) -> float:
    """Share of queries whose keyword set was already issued in the run."""
    seen: set[frozenset[str]] = set()
    repeats = 0
    for query in queries:
        key = _keyword_set(query)
        repeats += key in seen
        seen.add(key)
    return repeats / len(queries) if queries else 0.0


# ------------------------------------------------------------------ writes
@dataclass(frozen=True)
class Write:
    """Insert (or later delete) one nonce-token row of ``WRITE_RELATION``."""

    insert: bool
    number: int
    token: str


def writes(seed: int, count: int) -> list[Write]:
    """Cycles of insert a, insert b, delete a, delete b.

    Each row is deleted two writes after it was inserted, and every cycle
    ends on the initial content.
    """
    made: list[Write] = []
    for cycle in range((count + 3) // 4):
        first, second = (
            Write(True, number, f"zzbenchwrite{seed}x{number}")
            for number in (2 * cycle, 2 * cycle + 1)
        )
        made += [first, second, replace(first, insert=False), replace(second, insert=False)]
    return made[:count]


class NonceRows:
    """Tracks row positions of the written rows (deletes shift positions).

    ``mutation`` turns a :class:`Write` into the ``POST /mutate`` document
    and must be called in the order the writes are applied.
    """

    def __init__(self, base_rows: int):
        self.base_rows = base_rows
        self._live: list[str] = []

    def mutation(self, write: Write) -> dict[str, Any]:
        if write.insert:
            self._live.append(write.token)
            return {
                "relation": WRITE_RELATION,
                "inserts": [[WRITE_ID_BASE + write.number, write.token]],
            }
        position = self.base_rows + self._live.index(write.token)
        self._live.remove(write.token)
        return {"relation": WRITE_RELATION, "deletes": [position]}


Op = Union[str, Write]


def session_ops(sessions: list[str], seed: int, write_every: int) -> list[Op]:
    """The session sequence with one write after every ``write_every``."""
    planned = iter(writes(seed, len(sessions) // write_every))
    ops: list[Op] = []
    for position, query in enumerate(sessions, start=1):
        ops.append(query)
        if position % write_every == 0:
            ops.append(next(planned))
    return ops
