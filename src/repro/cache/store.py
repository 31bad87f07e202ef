"""The persistent cache store: L2 probe answers and status facts, one file.

The paper treats Phase 0 as "computed offline ... a one-time cost"
(§3.1), but probe results -- the expensive part on a DISCOVER-style
engine, where each candidate network is a real SQL round-trip -- and the
classifications Phase 3 derives from them died with the process.
:class:`ProbeCache` persists both in one sqlite file
(:data:`CACHE_FILENAME`) behind one connection and one lock:

* ``probes`` -- one answer per probed query, keyed by the **canonical
  query key** (:func:`query_cache_key`, stable across processes and
  isomorphic relabelings).  The evaluator consults it after missing its
  in-process LRU (L1) and writes through on every executed probe.
* ``runs`` and ``status_facts`` -- after an unconstrained traversal that
  did not exhaust its budget, or when an interactive session explains
  all or closes, the debugger saves one fact per classified exploration
  node (canonical key, join-path relations, aliveness) under a
  **workload key** (keyword multiset + match mode + lattice shape).  A
  later run replays what :meth:`ProbeCache.load` returns through R1/R2
  and skips Phase 3 whenever that resolves its graph.
* ``snapshots`` -- each database snapshot a row was written under,
  stored once (its full state: composite, lineage, per-relation
  fingerprints and mutation counters) and referenced by id from every
  ``probes`` and ``runs`` row.

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
from repro.relational.jointree import BoundQuery

#: File name used inside a ``--cache-dir`` directory.
CACHE_FILENAME = "cache.sqlite"

#: Bumped whenever the on-disk layout changes; a mismatched file is
#: rebuilt from scratch (cached answers are only ever an optimization).
CACHE_SCHEMA_VERSION = 3

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
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS runs (
    workload_key TEXT NOT NULL PRIMARY KEY,
    snapshot     INTEGER NOT NULL REFERENCES snapshots (id)
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS status_facts (
    workload_key TEXT NOT NULL,
    node_key     TEXT NOT NULL,
    alive        INTEGER NOT NULL,
    relations    TEXT NOT NULL,
    PRIMARY KEY (workload_key, node_key)
) WITHOUT ROWID
"""


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
    """One persisted node classification."""

    node_key: str
    relations: tuple[str, ...]
    alive: bool


@dataclass(frozen=True)
class StatusLoad:
    """Facts recovered for one workload, judged against the live database.

    ``facts`` holds every saved classification that no write since its
    run can have flipped (:func:`fact_survives`): all of them when the
    content is unchanged.  ``directions`` names each relation that
    changed since then and ``dropped`` counts the facts it cost.  The
    debugger replays the facts through R1/R2 and skips Phase 3 when they
    resolve the graph, whatever the snapshot.
    """

    workload_key: str
    facts: tuple[StatusFact, ...]
    directions: Mapping[str, str]
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


def _directions_label(directions: Mapping[str, MutationDirection]) -> dict[str, str]:
    return {name: direction.value for name, direction in sorted(directions.items())}


def _fact(key: str, alive: int, label: str) -> StatusFact:
    """A stored row (probe or status fact) as the rule reads it."""
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
    """Persistent probe answers and status facts with per-relation identity.

    Implements the :class:`~repro.backends.base.ProbeStore` protocol the
    evaluator consumes (:meth:`get`/:meth:`put`) and the per-workload
    status store the debugger reads and writes (:meth:`load`/:meth:`save`).
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
                self._migrate_locked()
            except BaseException:
                self._connection.close()
                raise
        except (OSError, sqlite3.Error) as exc:
            raise ProbeCacheError(f"cannot open cache at {path}: {exc}")

    @classmethod
    def open_dir(cls, cache_dir: str | Path, database: Database) -> "ProbeCache":
        """Open (creating if needed) the cache file inside ``cache_dir``."""
        return cls(Path(cache_dir) / CACHE_FILENAME, database)

    # ---------------------------------------------------------- migration
    def _migrate_locked(self) -> None:
        """Create the layout, dropping a file written under another version."""
        tables = {
            name
            for (name,) in self._connection.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
        version = None
        if "meta" in tables:
            row = self._connection.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
            version = None if row is None else row[0]
        if tables and version != str(CACHE_SCHEMA_VERSION):
            for name in ("probes", "runs", "status_facts", "snapshots", "meta"):
                self._connection.execute(f"DROP TABLE IF EXISTS {name}")
        self._connection.executescript(_SCHEMA)
        self._connection.execute(
            "INSERT OR REPLACE INTO meta (key, value) VALUES ('schema_version', ?)",
            (str(CACHE_SCHEMA_VERSION),),
        )
        self._connection.commit()

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

    def refresh(self) -> None:
        """Register the live database's snapshot after a write.

        Nothing is repaired: :meth:`get` and :meth:`load` judge every row
        against the snapshot it was written under.  Registering here
        spares the first :meth:`put` after the write.
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
            row = self._connection.execute(
                "SELECT alive, relations, snapshot FROM probes WHERE query_key = ?",
                (key,),
            ).fetchone()
            if row is not None:
                alive, label, snapshot_id = row
                fact = _fact(key, alive, label)
                if fact_survives(fact, self._changes_locked(snapshot_id, live)):
                    self.hits += 1
                    return fact.alive
            self.misses += 1
            return None

    def put(self, query: BoundQuery, alive: bool) -> None:
        """Record one probe result (idempotent; last write wins)."""
        key = self.key_of(query)
        label = relations_label(query.tree.relations())
        live = self.database.snapshot()
        with self._lock:
            self._ensure_open_locked()
            self._connection.execute(
                "INSERT OR REPLACE INTO probes "
                "(query_key, alive, relations, snapshot) VALUES (?, ?, ?, ?)",
                (key, int(alive), label, self._register_locked(live)),
            )
            self._connection.commit()
            self.writes += 1

    # ------------------------------------------------------ status facts
    def save(self, workload_key: str, facts: Iterable[StatusFact]) -> int:
        """Persist the classification facts of one run.

        Replaces whatever the workload key held before (last run wins)
        and stamps the database snapshot the run was computed against.
        Returns the number of facts stored.
        """
        rows = [
            (
                workload_key,
                fact.node_key,
                int(fact.alive),
                ",".join(sorted(fact.relations)),
            )
            for fact in facts
        ]
        live = self.database.snapshot()
        with self._lock:
            self._ensure_open_locked()
            snapshot_id = self._register_locked(live)
            self._connection.execute(
                "DELETE FROM status_facts WHERE workload_key = ?", (workload_key,)
            )
            self._connection.executemany(
                "INSERT INTO status_facts "
                "(workload_key, node_key, alive, relations) VALUES (?, ?, ?, ?)",
                rows,
            )
            self._connection.execute(
                "INSERT OR REPLACE INTO runs (workload_key, snapshot) VALUES (?, ?)",
                (workload_key, snapshot_id),
            )
            self._connection.commit()
            self.saves += 1
        return len(rows)

    def load(self, workload_key: str) -> StatusLoad | None:
        """Recover the facts of one workload that survive the writes since.

        Returns None when nothing was persisted for the key.  Facts are
        filtered through :func:`fact_survives` against the run's
        snapshot; for a cross-lineage or mixed delta that keeps only the
        untouched-relation facts, which is exactly what remains
        provable, and for an unreadable snapshot none.
        """
        live = self.database.snapshot()
        with self._lock:
            self._ensure_open_locked()
            run = self._connection.execute(
                "SELECT snapshot FROM runs WHERE workload_key = ?",
                (workload_key,),
            ).fetchone()
            if run is None:
                return None
            rows = self._connection.execute(
                "SELECT node_key, alive, relations "
                "FROM status_facts WHERE workload_key = ? ORDER BY node_key",
                (workload_key,),
            ).fetchall()
            changes = self._changes_locked(run[0], live)
        survivors = tuple(
            fact
            for fact in (_fact(*row) for row in rows)
            if fact_survives(fact, changes)
        )
        return StatusLoad(
            workload_key=workload_key,
            facts=survivors,
            directions=_directions_label(changes),
            dropped=len(rows) - len(survivors),
        )

    # ------------------------------------------------------- housekeeping
    def _ensure_open_locked(self) -> None:
        if self._closed:
            raise ProbeCacheError("cache is closed")

    def counts(self) -> dict[str, int]:
        """Rows held: ``probes``, ``workloads`` (persisted runs), ``facts``."""
        with self._lock:
            self._ensure_open_locked()
            return _count_rows(self._connection)

    def clear(self) -> dict[str, int]:
        """Drop every probe, run, fact and snapshot; returns :meth:`counts`
        from before."""
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
def _count_rows(connection: sqlite3.Connection) -> dict[str, int]:
    probes, workloads, facts = connection.execute(
        "SELECT (SELECT COUNT(*) FROM probes), (SELECT COUNT(*) FROM runs), "
        "(SELECT COUNT(*) FROM status_facts)"
    ).fetchone()
    return {"probes": int(probes), "workloads": int(workloads), "facts": int(facts)}


def _clear_rows(connection: sqlite3.Connection) -> dict[str, int]:
    """Empty the answer and snapshot tables, counting first (``rowcount``
    may be -1)."""
    counts = _count_rows(connection)
    for table in ("probes", "runs", "status_facts", "snapshots"):
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

    Used by ``repro cache stats``: reports the cache file, its probe
    entries per join-path relation set, and its persisted workloads and
    facts.
    """
    path = _cache_file(cache_dir)
    if not path.exists():
        return {
            "path": str(path),
            "exists": False,
            "entries": 0,
            "relations": {},
            "status": {"workloads": 0, "facts": 0},
        }
    with _open_file(path) as connection:
        rows = connection.execute(
            "SELECT relations, COUNT(*), SUM(alive) FROM probes "
            "GROUP BY relations ORDER BY relations"
        ).fetchall()
        counts = _count_rows(connection)
    return {
        "path": str(path),
        "exists": True,
        "size_bytes": path.stat().st_size,
        "entries": counts["probes"],
        "relations": {
            label: {"entries": int(count), "alive": int(alive or 0)}
            for label, count, alive in rows
        },
        "status": {"workloads": counts["workloads"], "facts": counts["facts"]},
    }


def clear_cache_dir(cache_dir: str | Path) -> dict[str, int]:
    """Empty the cache file in ``cache_dir``; returns the rows removed.

    The counts (``probes``, ``workloads``, ``facts``) are what ``repro
    cache clear`` prints.  A run left behind would still answer a repeat
    workload with zero probes.  The index file holds no answers and stays.
    """
    path = _cache_file(cache_dir)
    if not path.exists():
        return {"probes": 0, "workloads": 0, "facts": 0}
    with _open_file(path) as connection:
        return _clear_rows(connection)
