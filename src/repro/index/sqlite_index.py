"""A disk-backed inverted index: the ``sqlite`` index backend.

The EMBANKS observation (PAPERS.md) is that keyword search over structured
data scales past RAM by spilling the keyword -> tuple-set structures to
disk; this module does exactly that with the stdlib ``sqlite3``:

* ``postings(token, relation, row_id, attribute)`` with that column order
  as its WITHOUT-ROWID primary key -- the PK *is* the covering index, so a
  TOKEN lookup is one b-tree range scan and never touches a heap page.
  No lookup reads ``attribute``; it stays in the key because dropping it
  would change the file format (:data:`INDEX_SCHEMA_VERSION`);
* ``vocabulary(token, relation)`` -- a small distinct-token table that
  serves SUBSTRING mode with a ``LIKE``-driven scan (the paper's
  ``LIKE '%kw%'`` read against the vocabulary instead of every cell) and
  answers ``relations_containing`` without touching postings;
* ``relation_fingerprints(relation, fingerprint)`` -- the per-relation
  content fingerprints.  On (re)open the index compares them against the
  live database and rebuilds **only the relations whose fingerprint
  changed**: the mutation-repair story of the L2 probe cache extended to
  the index tier.

The build streams each table through batched ``executemany`` inserts, so
the Python-side high-water stays flat (one batch) no matter the dataset
size.  The file lives next to the cache store inside a ``cache_dir``
(:data:`INDEX_FILENAME`), or in an owned temporary file removed on
``close()`` when no directory is given.  Durability pragmas are relaxed
(``journal_mode=MEMORY``, ``synchronous=OFF``): the index is a derived
artifact -- a torn file costs a rebuild, never correctness.

All methods are thread-safe (one internal lock around one connection):
the engine's tuple-set provider is called from concurrent service
sessions.
"""

from __future__ import annotations

import os
import sqlite3
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

from repro.relational.database import Database
from repro.relational.predicates import MatchMode, tokenize

#: File name used inside a ``--cache-dir`` directory (next to the cache
#: store, :data:`repro.cache.CACHE_FILENAME`).
INDEX_FILENAME = "index.sqlite"

#: Bumped whenever the on-disk layout changes; mismatched files are
#: rebuilt from scratch (the index is only ever a derived artifact).
#: Version 2 renamed the fingerprint table; a version-1 file is rebuilt
#: and keeps its old table as a few dead rows.
INDEX_SCHEMA_VERSION = 2

#: Postings-table rows buffered per ``executemany`` flush during a build.
#: Kept small enough that even a 10^4-tuple snapshot fills at least one batch:
#: the build's Python high-water is then one batch regardless of dataset
#: size, which is what the scale bench's memory-ceiling gate asserts.
BUILD_BATCH_ROWS = 4096

#: SQLite bind-parameter budget per ``IN (...)`` clause.
_IN_CHUNK = 500

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT NOT NULL PRIMARY KEY,
    value TEXT NOT NULL
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS relation_fingerprints (
    relation    TEXT NOT NULL PRIMARY KEY,
    fingerprint TEXT NOT NULL
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS postings (
    token     TEXT NOT NULL,
    relation  TEXT NOT NULL,
    row_id    INTEGER NOT NULL,
    attribute TEXT NOT NULL,
    PRIMARY KEY (token, relation, row_id, attribute)
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS vocabulary (
    token    TEXT NOT NULL,
    relation TEXT NOT NULL,
    PRIMARY KEY (token, relation)
) WITHOUT ROWID
"""


class SqliteIndexError(RuntimeError):
    """Raised on operations against a closed index."""


@dataclass(frozen=True)
class IndexBuildStats:
    """Outcome of one attach/repair pass."""

    relations_built: int
    relations_reused: int
    relations_dropped: int
    postings_written: int
    build_seconds: float


def _like_pattern(needle: str) -> str:
    """``%needle%`` with LIKE metacharacters escaped (ESCAPE ``\\``)."""
    escaped = (
        needle.replace("\\", "\\\\").replace("%", "\\%").replace("_", "\\_")
    )
    return f"%{escaped}%"


def _chunks(items: Sequence[str], size: int) -> Iterator[Sequence[str]]:
    for start in range(0, len(items), size):
        yield items[start : start + size]


class SqliteInvertedIndex:
    """Token -> postings in a sqlite file instead of the Python heap."""

    def __init__(self, database: Database, path: str | Path | None = None):
        self.database = database
        self._owns_file = path is None
        if path is None:
            handle, temp_name = tempfile.mkstemp(
                prefix="repro-index-", suffix=".sqlite"
            )
            os.close(handle)
            self.path = Path(temp_name)
        else:
            self.path = Path(path)
        self._lock = threading.Lock()
        # guarded-by: _lock
        self._connection = sqlite3.connect(str(self.path), check_same_thread=False)
        self._closed = False
        self.build_stats = IndexBuildStats(0, 0, 0, 0, 0.0)
        with self._lock:
            self._configure_locked()
            self._migrate_locked()
            self._repair_locked()

    @classmethod
    def open_dir(
        cls, directory: str | Path, database: Database
    ) -> "SqliteInvertedIndex":
        """Open (or create) the index file inside a cache directory."""
        base = Path(directory)
        base.mkdir(parents=True, exist_ok=True)
        return cls(database, base / INDEX_FILENAME)

    # -------------------------------------------------------------- attach
    def _configure_locked(self) -> None:
        self._connection.execute("PRAGMA journal_mode=MEMORY")
        self._connection.execute("PRAGMA synchronous=OFF")

    def _migrate_locked(self) -> None:
        self._connection.executescript(_SCHEMA)
        cursor = self._connection.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        )
        row = cursor.fetchone()
        if row is not None and row[0] == str(INDEX_SCHEMA_VERSION):
            return
        if row is not None:
            for table in ("postings", "vocabulary", "relation_fingerprints", "meta"):
                self._connection.execute(f"DELETE FROM {table}")
        self._connection.execute(
            "INSERT OR REPLACE INTO meta (key, value) VALUES ('schema_version', ?)",
            (str(INDEX_SCHEMA_VERSION),),
        )
        self._connection.commit()

    def _repair_locked(self) -> None:
        """Rebuild exactly the relations whose content fingerprint changed."""
        started = time.perf_counter()
        current = self.database.relation_fingerprints()
        persisted = dict(
            self._connection.execute(
                "SELECT relation, fingerprint FROM relation_fingerprints"
            ).fetchall()
        )
        stale = sorted(
            name
            for name, fingerprint in current.items()
            if persisted.get(name) != fingerprint
        )
        dropped = sorted(name for name in persisted if name not in current)
        for name in (*stale, *dropped):
            self._connection.execute(
                "DELETE FROM postings WHERE relation = ?", (name,)
            )
            self._connection.execute(
                "DELETE FROM vocabulary WHERE relation = ?", (name,)
            )
            self._connection.execute(
                "DELETE FROM relation_fingerprints WHERE relation = ?", (name,)
            )
        written = 0
        for name in stale:
            written += self._build_relation_locked(name)
            self._connection.execute(
                "INSERT INTO relation_fingerprints (relation, fingerprint) "
                "VALUES (?, ?)",
                (name, current[name]),
            )
        self._connection.commit()
        self.build_stats = IndexBuildStats(
            relations_built=len(stale),
            relations_reused=len(current) - len(stale),
            relations_dropped=len(dropped),
            postings_written=written,
            build_seconds=time.perf_counter() - started,
        )

    def _build_relation_locked(self, relation: str) -> int:
        """Stream one table into the postings/vocabulary tables, batched."""
        table = self.database.table(relation)
        batch: list[tuple[str, str, int, str]] = []
        vocabulary: set[str] = set()
        written = 0

        def flush() -> None:
            nonlocal written
            if not batch:
                return
            self._connection.executemany(
                "INSERT OR IGNORE INTO postings "
                "(token, relation, row_id, attribute) VALUES (?, ?, ?, ?)",
                batch,
            )
            written += len(batch)
            batch.clear()

        for row_id in range(len(table)):
            for attribute, text in table.text_cells(row_id):
                for token in tokenize(text):
                    vocabulary.add(token)
                    batch.append((token, relation, row_id, attribute))
                    if len(batch) >= BUILD_BATCH_ROWS:
                        flush()
        flush()
        self._connection.executemany(
            "INSERT OR IGNORE INTO vocabulary (token, relation) VALUES (?, ?)",
            [(token, relation) for token in sorted(vocabulary)],
        )
        return written

    # -------------------------------------------------------------- lookup
    def _guard_locked(self) -> None:
        if self._closed:
            raise SqliteIndexError(f"index {self.path} is closed")

    def _matching_tokens(self, keyword: str, mode: MatchMode) -> list[str]:
        needle = keyword.casefold()
        with self._lock:
            self._guard_locked()
            if mode is MatchMode.TOKEN:
                row = self._connection.execute(
                    "SELECT 1 FROM vocabulary WHERE token = ? LIMIT 1", (needle,)
                ).fetchone()
                return [needle] if row is not None else []
            rows = self._connection.execute(
                "SELECT DISTINCT token FROM vocabulary "
                "WHERE token LIKE ? ESCAPE '\\' ORDER BY token",
                (_like_pattern(needle),),
            ).fetchall()
        return [token for (token,) in rows]

    @property
    def vocabulary_size(self) -> int:
        with self._lock:
            self._guard_locked()
            row = self._connection.execute(
                "SELECT COUNT(DISTINCT token) FROM vocabulary"
            ).fetchone()
        return int(row[0])

    def tokens(self) -> Iterator[str]:
        # Keyset pagination keeps each page inside a connection.execute()
        # (which scopes its own cursor) so no handle outlives the lock.
        last = ""
        while True:
            with self._lock:
                self._guard_locked()
                rows = self._connection.execute(
                    "SELECT DISTINCT token FROM vocabulary "
                    "WHERE token > ? ORDER BY token LIMIT 1024",
                    (last,),
                ).fetchall()
            if not rows:
                return
            for (token,) in rows:
                yield token
            last = rows[-1][0]

    def relations_containing(
        self, keyword: str, mode: MatchMode = MatchMode.TOKEN
    ) -> tuple[str, ...]:
        """Relations with at least one row matching ``keyword`` (sorted)."""
        needle = keyword.casefold()
        if mode is MatchMode.TOKEN:
            sql = "SELECT DISTINCT relation FROM vocabulary WHERE token = ?"
            params: tuple[str, ...] = (needle,)
        else:
            sql = (
                "SELECT DISTINCT relation FROM vocabulary "
                "WHERE token LIKE ? ESCAPE '\\'"
            )
            params = (_like_pattern(needle),)
        with self._lock:
            self._guard_locked()
            rows = self._connection.execute(sql, params).fetchall()
        return tuple(sorted(relation for (relation,) in rows))

    def tuple_set(
        self, relation: str, keyword: str, mode: MatchMode = MatchMode.TOKEN
    ) -> frozenset[int]:
        """Row ids of ``relation`` matching ``keyword`` under ``mode``."""
        ids: set[int] = set()
        for tokens in _chunks(self._matching_tokens(keyword, mode), _IN_CHUNK):
            marks = ", ".join("?" for _ in tokens)
            with self._lock:
                self._guard_locked()
                rows = self._connection.execute(
                    f"SELECT DISTINCT row_id FROM postings "
                    f"WHERE token IN ({marks}) AND relation = ?",
                    (*tokens, relation),
                ).fetchall()
            ids.update(row_id for (row_id,) in rows)
        return frozenset(ids)

    def tuple_set_size(
        self, relation: str, keyword: str, mode: MatchMode = MatchMode.TOKEN
    ) -> int:
        """Tuple-set cardinality without materializing a Python set."""
        tokens = self._matching_tokens(keyword, mode)
        if not tokens:
            return 0
        if len(tokens) <= _IN_CHUNK:
            marks = ", ".join("?" for _ in tokens)
            with self._lock:
                self._guard_locked()
                row = self._connection.execute(
                    f"SELECT COUNT(DISTINCT row_id) FROM postings "
                    f"WHERE token IN ({marks}) AND relation = ?",
                    (*tokens, relation),
                ).fetchone()
            return int(row[0])
        return len(self.tuple_set(relation, keyword, mode))

    def iter_tuple_set(
        self, relation: str, keyword: str, mode: MatchMode = MatchMode.TOKEN
    ) -> Iterator[int]:
        """Stream row ids in ascending order without materializing the set."""
        tokens = self._matching_tokens(keyword, mode)
        if not tokens or len(tokens) > _IN_CHUNK:
            # Pathologically broad SUBSTRING needles fall back to the
            # materialized union; TOKEN mode always has <= 1 token.
            yield from sorted(self.tuple_set(relation, keyword, mode))
            return
        marks = ", ".join("?" for _ in tokens)
        # Keyset pagination on row_id: each page is one connection.execute()
        # (self-scoped cursor), so a paused generator holds no sqlite handle.
        last = -1
        while True:
            with self._lock:
                self._guard_locked()
                rows = self._connection.execute(
                    f"SELECT DISTINCT row_id FROM postings "
                    f"WHERE token IN ({marks}) AND relation = ? AND row_id > ? "
                    f"ORDER BY row_id LIMIT 1024",
                    (*tokens, relation, last),
                ).fetchall()
            if not rows:
                return
            for (row_id,) in rows:
                yield row_id
            last = rows[-1][0]

    # ------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Release the connection (and the file, when it is a temp file)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._connection.close()
        if self._owns_file:
            try:
                self.path.unlink()
            except OSError:  # pragma: no cover - already gone
                pass

    def __enter__(self) -> "SqliteInvertedIndex":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
