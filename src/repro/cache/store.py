"""The persistent cache store: one fact per query, one file.

The paper treats Phase 0 as "computed offline ... a one-time cost"
(§3.1), but probe results -- the expensive part on a DISCOVER-style
engine, where each candidate network is a real SQL round-trip -- and the
classifications Phase 3 derives from them died with the process.
:class:`ProbeCache` persists both in one sqlite file
(:data:`CACHE_FILENAME`) behind one connection and one lock:

* ``probes`` -- one row per query whose aliveness is known, keyed by the
  **canonical query key** (:func:`query_cache_key`, stable across
  processes and isomorphic relabelings).  Rules R1/R2 make a node's
  status a fact about its SQL query alone, so an executed probe and a
  classification Phase 3 inferred are the same kind of row.  The
  evaluator consults the table after missing its in-process LRU (L1)
  and writes through on every executed probe (:meth:`ProbeCache.put`);
  the debugger upserts every node a run classified
  (:meth:`ProbeCache.save`) and, before the next run of any query,
  reads the rows among its graph's keys (:meth:`ProbeCache.load`),
  replays them through R1/R2 and skips Phase 3 whenever that resolves
  the graph.
* ``snapshots`` -- each database snapshot a row was written under,
  stored once (its full state: composite, lineage, per-relation
  fingerprints and mutation counters) and referenced by id from every
  ``probes`` row.

A write to the database evicts and rewrites nothing.  Every read judges
its row against the snapshot the row was written under, by one rule
(:func:`fact_survives`, built on :func:`monotone_survives`): the paper's
monotonicity read at the dataset boundary.  A row touching no changed
relation is exact; an insert can only flip a probe dead -> alive, so
alive answers survive insert-only deltas; a delete only alive -> dead,
so dead answers survive delete-only deltas; a mixed (or undecidable)
delta keeps neither.  :meth:`ProbeCache.get` and :meth:`ProbeCache.load`
only read; snapshots are registered when :meth:`ProbeCache.put`,
:meth:`ProbeCache.save` or :meth:`ProbeCache.refresh` write.  Counts come
from explicit row lists or ``SELECT COUNT(*)`` -- never from
``cursor.rowcount``, whose ``-1`` sentinel sqlite is free to return for
any statement.

All methods are thread-safe: concurrent service sessions share one
store, and interactive sessions may probe from arbitrary threads.
"""

from __future__ import annotations

import contextlib
import json
import sqlite3
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from repro.cache.keys import query_cache_key, relations_label
from repro.relational.database import (
    Database,
    DatabaseDelta,
    DatabaseSnapshot,
    MutationDirection,
    RelationState,
)
from repro.relational.identifiers import quote_identifier
from repro.relational.jointree import BoundQuery

#: File name used inside a ``--cache-dir`` directory.
CACHE_FILENAME = "cache.sqlite"

#: Bumped whenever the on-disk layout changes; a mismatched file is
#: rebuilt from scratch (cached answers are only ever an optimization).
CACHE_SCHEMA_VERSION = 4

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT NOT NULL PRIMARY KEY,
    value TEXT NOT NULL
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS snapshots (
    id    INTEGER PRIMARY KEY AUTOINCREMENT,
    state TEXT NOT NULL UNIQUE
);
CREATE TABLE IF NOT EXISTS probes (
    query_key TEXT NOT NULL PRIMARY KEY,
    alive     INTEGER NOT NULL,
    relations TEXT NOT NULL,
    snapshot  INTEGER NOT NULL REFERENCES snapshots (id)
) WITHOUT ROWID
"""

#: The row lookup (``get``, ``load``) and the upsert (``put``, ``save``).
_SELECT = "SELECT query_key, alive, relations, snapshot FROM probes WHERE query_key "
_UPSERT = (
    "INSERT OR REPLACE INTO probes "
    "(query_key, alive, relations, snapshot) VALUES (?, ?, ?, ?)"
)


class ProbeCacheError(RuntimeError):
    """Raised on operations against a closed or unusable cache."""


@dataclass(frozen=True)
class ProbeCacheStats:
    """Probe counters of one :class:`ProbeCache` (session + file)."""

    path: str
    composite: str
    entries: int
    hits: int
    misses: int
    writes: int

    def __str__(self) -> str:
        return (
            f"{self.entries} cached probes ({self.hits} hits / "
            f"{self.misses} misses this session, {self.writes} writes)"
        )


@dataclass(frozen=True)
class StatusFact:
    """One persisted query classification: a ``probes`` row as read."""

    node_key: str
    relations: tuple[str, ...]
    alive: bool


@dataclass(frozen=True)
class StatusLoad:
    """The rows found among a graph's keys, judged against the live database.

    ``facts`` holds every row that no write since its own snapshot can
    have flipped (:func:`fact_survives`): all of them when the content
    is unchanged.  ``dropped`` counts the rows the writes cost.  The
    debugger replays the facts through R1/R2 and skips Phase 3 when they
    resolve the graph, whatever the snapshot.
    """

    facts: tuple[StatusFact, ...]
    dropped: int


def _encode_snapshot(snapshot: DatabaseSnapshot) -> str:
    return json.dumps(
        {
            "composite": snapshot.composite,
            "lineage": snapshot.lineage,
            "relations": [
                [
                    state.relation,
                    state.fingerprint,
                    state.row_count,
                    state.inserts_total,
                    state.deletes_total,
                ]
                for state in snapshot.relations
            ],
        }
    )


#: What a missing or undecodable ``snapshots`` row reads as.  It names no
#: relation, so :meth:`DatabaseDelta.between` marks every live relation
#: ``MIXED`` against it and nothing stamped with it survives.
_UNKNOWN_SNAPSHOT = DatabaseSnapshot(composite="", lineage="", relations=())


def _decode_snapshot(payload: str | None) -> DatabaseSnapshot:
    if payload is None:
        return _UNKNOWN_SNAPSHOT
    try:
        data = json.loads(payload)
        return DatabaseSnapshot(
            composite=data["composite"],
            lineage=data["lineage"],
            relations=tuple(
                RelationState(
                    relation=relation,
                    fingerprint=fingerprint,
                    row_count=row_count,
                    inserts_total=inserts,
                    deletes_total=deletes,
                )
                for relation, fingerprint, row_count, inserts, deletes in data[
                    "relations"
                ]
            ),
        )
    except (ValueError, KeyError, TypeError):
        return _UNKNOWN_SNAPSHOT


def _fact(key: str, alive: int, label: str) -> StatusFact:
    """A stored row as the rule reads it."""
    return StatusFact(
        node_key=key,
        relations=tuple(label.split(",")) if label else (),
        alive=bool(alive),
    )


def monotone_survives(
    alive: bool,
    relations: Iterable[str],
    directions: Mapping[str, MutationDirection],
) -> bool:
    """The monotone rule: does an answer survive the changes on its join path?

    An alive answer survives iff every changed relation among
    ``relations`` moved insert-only, a dead one iff every one moved
    delete-only.  An answer touching no changed relation proves nothing
    here and gets False; :func:`fact_survives` decides what that case
    means.
    """
    touched = {directions[name] for name in relations if name in directions}
    wanted = MutationDirection.INSERT_ONLY if alive else MutationDirection.DELETE_ONLY
    return touched == {wanted}


def fact_survives(
    fact: StatusFact, directions: Mapping[str, MutationDirection]
) -> bool:
    """Whether a persisted fact or probe row still holds under ``directions``.

    ``directions`` are the changes since the snapshot the row was
    written under.  A row touching no changed relation is still exact:
    its join path holds the content it was computed on.  Otherwise
    :func:`monotone_survives` decides.
    """
    return directions.keys().isdisjoint(fact.relations) or monotone_survives(
        fact.alive, fact.relations, directions
    )


class ProbeCache:
    """Persistent query facts with per-relation identity.

    Implements the :class:`~repro.backends.base.ProbeStore` protocol the
    evaluator consumes (:meth:`get`/:meth:`put`) and the status store the
    debugger reads and writes a graph's facts through
    (:meth:`load`/:meth:`save`), over the same ``probes`` rows.
    The cache holds a reference to the live :class:`Database` and judges
    every row it reads against the database's *current* snapshot, so a
    read after an in-session mutation never returns an answer the
    mutation may have changed: it misses instead.
    """

    def __init__(self, path: str | Path, database: Database):
        self.path = Path(path)
        self.database = database
        self.schema = database.schema
        self._lock = threading.Lock()
        self._closed = False
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.saves = 0
        # Memos (guarded-by: _lock): each stored snapshot, decoded once
        # per id -- ids are never reused (AUTOINCREMENT), so an entry
        # stays sound while another process clears the file -- and, for
        # one live snapshot, the id a write registered it under and the
        # changes since each stored snapshot id.
        self._stored: dict[int, DatabaseSnapshot] = {}
        self._live: DatabaseSnapshot | None = None
        self._live_id: int | None = None
        self._changes: dict[int, Mapping[str, MutationDirection]] = {}
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            # guarded-by: _lock  (every post-init use is under the lock)
            self._connection = sqlite3.connect(
                str(self.path), check_same_thread=False
            )
            try:
                _migrate(self._connection)
            except BaseException:
                self._connection.close()
                raise
        except (OSError, sqlite3.Error) as exc:
            raise ProbeCacheError(f"cannot open cache at {path}: {exc}")

    @classmethod
    def open_dir(cls, cache_dir: str | Path, database: Database) -> "ProbeCache":
        """Open (creating if needed) the cache file inside ``cache_dir``."""
        return cls(Path(cache_dir) / CACHE_FILENAME, database)

    # ---------------------------------------------------------- snapshots
    def _track_locked(self, live: DatabaseSnapshot) -> None:
        """Start the memos afresh when the live snapshot changed."""
        if live is not self._live:
            self._live, self._live_id, self._changes = live, None, {}

    def _register_locked(self, live: DatabaseSnapshot) -> int:
        """Id of ``live``'s ``snapshots`` row, inserted on first use."""
        self._track_locked(live)
        if self._live_id is None:
            state = _encode_snapshot(live)
            self._connection.execute(
                "INSERT OR IGNORE INTO snapshots (state) VALUES (?)", (state,)
            )
            (snapshot_id,) = self._connection.execute(
                "SELECT id FROM snapshots WHERE state = ?", (state,)
            ).fetchone()
            self._live_id = int(snapshot_id)
            self._stored[self._live_id] = live
            self._changes[self._live_id] = {}
        return self._live_id

    def _changes_locked(
        self, snapshot_id: int, live: DatabaseSnapshot
    ) -> Mapping[str, MutationDirection]:
        """Relations changed between snapshot ``snapshot_id`` and ``live``."""
        self._track_locked(live)
        changes = self._changes.get(snapshot_id)
        if changes is None:
            stored = self._stored.get(snapshot_id)
            if stored is None:
                row = self._connection.execute(
                    "SELECT state FROM snapshots WHERE id = ?", (snapshot_id,)
                ).fetchone()
                stored = _decode_snapshot(None if row is None else row[0])
                self._stored[snapshot_id] = stored
            changes = DatabaseDelta.between(stored, live).directions
            self._changes[snapshot_id] = changes
        return changes

    def _survivor_locked(
        self, row: tuple[str, int, str, int], live: DatabaseSnapshot
    ) -> StatusFact | None:
        """A ``probes`` row as a fact, if it survives the writes since."""
        key, alive, label, snapshot_id = row
        fact = _fact(key, alive, label)
        if fact_survives(fact, self._changes_locked(snapshot_id, live)):
            return fact
        return None

    def refresh(self) -> None:
        """Register the live database's snapshot after a write.

        Nothing is repaired: :meth:`get` and :meth:`load` judge every row
        against the snapshot it was written under.  Registering here
        spares the first :meth:`put` or :meth:`save` after the write.
        """
        live = self.database.snapshot()
        with self._lock:
            self._ensure_open_locked()
            self._register_locked(live)
            self._connection.commit()

    # --------------------------------------------------------- ProbeStore
    def key_of(self, query: BoundQuery) -> str:
        return query_cache_key(query, self.schema)

    def get(self, query: BoundQuery) -> bool | None:
        """Cached aliveness of ``query`` if it survives the writes since, or None."""
        key = self.key_of(query)
        live = self.database.snapshot()
        with self._lock:
            self._ensure_open_locked()
            row = self._connection.execute(_SELECT + "= ?", (key,)).fetchone()
            fact = None if row is None else self._survivor_locked(row, live)
            if fact is None:
                self.misses += 1
                return None
            self.hits += 1
            return fact.alive

    def put(self, query: BoundQuery, alive: bool) -> None:
        """Record one probe result (idempotent; last write wins)."""
        key = self.key_of(query)
        label = relations_label(query.tree.relations())
        live = self.database.snapshot()
        with self._lock:
            self._ensure_open_locked()
            self._connection.execute(
                _UPSERT, (key, int(alive), label, self._register_locked(live))
            )
            self._connection.commit()
            self.writes += 1

    # ------------------------------------------------------ status facts
    def save(self, facts: Iterable[StatusFact], snapshot: DatabaseSnapshot) -> int:
        """Upsert one ``probes`` row per classified query, stamped ``snapshot``.

        ``snapshot`` is the database state the facts were computed on.
        Unless it is still the live state, a write since may have flipped
        any of them, so nothing is stored.  Each row replaces only its
        own key's, so a save never drops what an earlier one learned.
        Returns the number of rows written.
        """
        live = self.database.snapshot()
        if snapshot != live:
            return 0
        rows = [
            (fact.node_key, int(fact.alive), relations_label(fact.relations))
            for fact in facts
        ]
        with self._lock:
            self._ensure_open_locked()
            snapshot_id = self._register_locked(live)
            self._connection.executemany(
                _UPSERT, [(*row, snapshot_id) for row in rows]
            )
            self._connection.commit()
            self.saves += 1
        return len(rows)

    def load(self, keys: Iterable[str]) -> StatusLoad | None:
        """The rows among ``keys`` that survive the writes since, in one read.

        Returns None when no key has a row.  Each row is judged by
        :func:`fact_survives` against its own snapshot; for a
        cross-lineage or mixed delta that keeps only the rows touching no
        changed relation, which is exactly what remains provable, and for
        an unreadable snapshot none.
        """
        payload = json.dumps(list(keys))
        live = self.database.snapshot()
        with self._lock:
            self._ensure_open_locked()
            rows = self._connection.execute(
                _SELECT + "IN (SELECT value FROM json_each(?))", (payload,)
            ).fetchall()
            judged = [self._survivor_locked(row, live) for row in rows]
        if not rows:
            return None
        facts = tuple(fact for fact in judged if fact is not None)
        return StatusLoad(facts=facts, dropped=len(rows) - len(facts))

    # ------------------------------------------------------- housekeeping
    def _ensure_open_locked(self) -> None:
        if self._closed:
            raise ProbeCacheError("cache is closed")

    def counts(self) -> dict[str, int]:
        """Rows held: ``probes``, one per query whose aliveness is known."""
        with self._lock:
            self._ensure_open_locked()
            return _count_rows(self._connection)

    def clear(self) -> dict[str, int]:
        """Drop every probe row and snapshot; returns :meth:`counts` from
        before."""
        with self._lock:
            self._ensure_open_locked()
            self._live = None
            return _clear_rows(self._connection)

    def stats(self) -> ProbeCacheStats:
        # One lock acquisition for the whole snapshot: the session
        # counters and the entry count must be read consistently.
        with self._lock:
            self._ensure_open_locked()
            return ProbeCacheStats(
                path=str(self.path),
                composite=self.database.fingerprint(),
                entries=_count_rows(self._connection)["probes"],
                hits=self.hits,
                misses=self.misses,
                writes=self.writes,
            )

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._connection.commit()
            self._connection.close()

    def __enter__(self) -> "ProbeCache":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


#: The status-store name of :class:`ProbeCache`.  ``perfbench/tracing.py``
#: imports both names and wraps ``ProbeCache.get/put/refresh`` and
#: ``StatusCache.load/save``; the alias keeps that harness working.
StatusCache = ProbeCache


# ---------------------------------------------------------- file-level ops
def _tables(connection: sqlite3.Connection) -> list[str]:
    """The file's own tables: sqlite's ``sqlite_*`` ones cannot be dropped."""
    return [
        name
        for (name,) in connection.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'"
        )
        if not name.startswith("sqlite_")
    ]


def _layout_version(connection: sqlite3.Connection) -> int | None:
    """The layout version a cache file records in ``meta``, if any."""
    if "meta" not in _tables(connection):
        return None
    row = connection.execute(
        "SELECT value FROM meta WHERE key = 'schema_version'"
    ).fetchone()
    return int(row[0]) if row is not None and str(row[0]).isdigit() else None


def _migrate(connection: sqlite3.Connection) -> None:
    """Create the current layout, rebuilding a file of another version empty.

    A mismatched file loses every table it holds, whatever its name.
    """
    tables = _tables(connection)
    if tables and _layout_version(connection) != CACHE_SCHEMA_VERSION:
        for name in tables:
            connection.execute(f"DROP TABLE {quote_identifier(name)}")
    connection.executescript(_SCHEMA)
    connection.execute(
        "INSERT OR REPLACE INTO meta (key, value) VALUES ('schema_version', ?)",
        (str(CACHE_SCHEMA_VERSION),),
    )
    connection.commit()


def _count_rows(connection: sqlite3.Connection) -> dict[str, int]:
    (probes,) = connection.execute("SELECT COUNT(*) FROM probes").fetchone()
    return {"probes": int(probes)}


def _clear_rows(connection: sqlite3.Connection) -> dict[str, int]:
    """Empty the answer and snapshot tables, counting first (``rowcount``
    may be -1)."""
    counts = _count_rows(connection)
    for table in ("probes", "snapshots"):
        connection.execute(f"DELETE FROM {table}")
    connection.commit()
    return counts


def _cache_file(cache_dir: str | Path) -> Path:
    """The cache file of ``cache_dir``, which must not be a regular file."""
    directory = Path(cache_dir)
    if directory.exists() and not directory.is_dir():
        raise ProbeCacheError(f"cache dir {directory} is not a directory")
    return directory / CACHE_FILENAME


@contextlib.contextmanager
def _open_file(path: Path) -> Iterator[sqlite3.Connection]:
    connection = sqlite3.connect(str(path))
    try:
        yield connection
    except sqlite3.Error as exc:
        raise ProbeCacheError(f"{path} is not a cache file: {exc}")
    finally:
        connection.close()


def inspect_cache_dir(cache_dir: str | Path) -> dict[str, object]:
    """Summary of a cache directory without needing a live database.

    Used by ``repro cache stats``: reports the cache file, its layout
    version and its entries per join-path relation set.  A file of
    another layout version reads as empty, as :class:`ProbeCache` would
    rebuild it on open.
    """
    path = _cache_file(cache_dir)
    if not path.exists():
        return {"path": str(path), "exists": False, "entries": 0, "relations": {}}
    with _open_file(path) as connection:
        version = _layout_version(connection)
        rows = (
            connection.execute(
                "SELECT relations, COUNT(*), SUM(alive) FROM probes "
                "GROUP BY relations ORDER BY relations"
            ).fetchall()
            if version == CACHE_SCHEMA_VERSION
            else []
        )
    return {
        "path": str(path),
        "exists": True,
        "size_bytes": path.stat().st_size,
        "schema_version": version,
        "entries": sum(int(count) for _, count, _ in rows),
        "relations": {
            label: {"entries": int(count), "alive": int(alive or 0)}
            for label, count, alive in rows
        },
    }


def clear_cache_dir(cache_dir: str | Path) -> dict[str, int]:
    """Empty the cache file in ``cache_dir``; returns the rows removed.

    The count (``probes``) is what ``repro cache clear`` prints.  A file
    of another layout version is rebuilt empty at the current one first,
    so it counts none.  The index file holds no answers and stays.
    """
    path = _cache_file(cache_dir)
    if not path.exists():
        return {"probes": 0}
    with _open_file(path) as connection:
        _migrate(connection)
        return _clear_rows(connection)
