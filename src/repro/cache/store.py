"""The persistent probe-result store: the L2 tier of the two-tier cache.

The paper treats Phase 0 as "computed offline ... a one-time cost"
(§3.1), but probe results -- the expensive part on a DISCOVER-style
engine, where each candidate network is a real SQL round-trip -- died
with the process.  :class:`ProbeCache` persists them in a small sqlite
file keyed by

* the **relation-fingerprint vector** of the probed query's join path
  (:func:`relation_vector_key`): the namespace.  A mutation to
  ``publication`` changes only the vectors of probes touching
  ``publication``; every ``person``-only probe keeps its key and stays
  warm with no repair work at all.
* the **canonical query key** (:func:`query_cache_key`): the row key,
  stable across processes and isomorphic relabelings.

On attach (and on :meth:`refresh` after an in-session mutation) the
store compares the persisted per-relation snapshot against the live
database and **repairs** the stale rows instead of evicting them
wholesale.  The repair rule is the paper's own monotonicity read at the
dataset boundary: an insert can only flip a probe dead -> alive, so
under an insert-only delta every cached ``alive=True`` row is still
correct and is re-keyed to the new vector, while ``alive=False`` rows
touching the mutated relation are dropped; a delete-only delta is the
exact dual; a mixed (or undecidable) delta evicts both polarities.
Eviction counts are taken from the explicit row lists the repair scan
builds -- never from ``cursor.rowcount``, whose ``-1`` sentinel sqlite
is free to return for any statement.

The evaluator consults the store only after missing its in-process LRU
(L1) and writes through on every executed probe, so a second debugging
session over an unchanged database starts warm: previously probed nodes
cost zero backend queries and classifications are byte-identical.

All methods are thread-safe (one internal lock around one connection):
concurrent service sessions share one store, and interactive sessions
may probe from arbitrary threads.
"""

from __future__ import annotations

import sqlite3
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

from repro.cache.keys import query_cache_key, relation_vector_key, relations_label
from repro.cache.status import count_status_file
from repro.relational.database import (
    Database,
    DatabaseDelta,
    DatabaseSnapshot,
    MutationDirection,
    RelationState,
)
from repro.relational.jointree import BoundQuery

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.obs.trace import ProbeTracer

#: File name used inside a ``--cache-dir`` directory.
PROBE_CACHE_FILENAME = "probes.sqlite"

#: Bumped whenever the on-disk layout changes; mismatched files are
#: rebuilt from scratch (cached probes are only ever an optimization).
PROBE_CACHE_SCHEMA_VERSION = 2

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT NOT NULL PRIMARY KEY,
    value TEXT NOT NULL
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS relation_state (
    relation    TEXT NOT NULL PRIMARY KEY,
    fingerprint TEXT NOT NULL,
    row_count   INTEGER NOT NULL,
    inserts     INTEGER NOT NULL,
    deletes     INTEGER NOT NULL
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS probes (
    vector_key TEXT NOT NULL,
    query_key  TEXT NOT NULL,
    alive      INTEGER NOT NULL,
    relations  TEXT NOT NULL,
    PRIMARY KEY (vector_key, query_key)
) WITHOUT ROWID
"""


class ProbeCacheError(RuntimeError):
    """Raised on operations against a closed or unusable cache."""


@dataclass(frozen=True)
class RepairReport:
    """Outcome of one attach/refresh repair scan."""

    old_composite: str | None
    new_composite: str
    directions: Mapping[str, str]
    repaired: int
    evicted: int

    @property
    def changed(self) -> bool:
        return self.old_composite is not None and (
            self.old_composite != self.new_composite
        )


@dataclass(frozen=True)
class ProbeCacheStats:
    """Counters of one :class:`ProbeCache` (session + file)."""

    path: str
    composite: str
    entries: int
    repaired: int
    evicted: int
    hits: int
    misses: int
    writes: int

    def __str__(self) -> str:
        return (
            f"{self.entries} cached probes ({self.hits} hits / "
            f"{self.misses} misses this session, {self.writes} writes, "
            f"{self.repaired} repaired, {self.evicted} evicted)"
        )


class ProbeCache:
    """Persistent ``query -> aliveness`` store with per-relation identity.

    Implements the :class:`~repro.backends.base.ProbeStore` protocol the
    evaluator consumes.  The cache holds a reference to the live
    :class:`Database` and computes every row's vector key from the
    *current* per-relation fingerprints, so reads after an in-session
    mutation can never return an answer recorded against stale content
    -- at worst they miss until :meth:`refresh` repairs the old rows.
    """

    def __init__(
        self,
        path: str | Path,
        database: Database,
        tracer: "ProbeTracer | None" = None,
    ):
        self.path = Path(path)
        self.database = database
        self.schema = database.schema
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._closed = False
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.repaired_total = 0
        self.evicted_total = 0
        self.last_repair: RepairReport | None = None
        try:
            # guarded-by: _lock  (every post-init use is under the lock)
            self._connection = sqlite3.connect(
                str(self.path), check_same_thread=False
            )
            self._migrate_locked()
            self.last_repair = self._repair_locked(tracer)
        except sqlite3.Error as exc:  # pragma: no cover - disk-level failures
            raise ProbeCacheError(f"cannot open probe cache at {path}: {exc}")

    @classmethod
    def open_dir(
        cls,
        cache_dir: str | Path,
        database: Database,
        tracer: "ProbeTracer | None" = None,
    ) -> "ProbeCache":
        """Open (creating if needed) the cache file inside ``cache_dir``."""
        return cls(Path(cache_dir) / PROBE_CACHE_FILENAME, database, tracer=tracer)

    # ---------------------------------------------------------- migration
    def _migrate_locked(self) -> None:
        """Create the v2 layout, dropping any unrecognized prior layout."""
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
            version = int(row[0]) if row else None
        if tables and version != PROBE_CACHE_SCHEMA_VERSION:
            # v1 files (fingerprint-namespaced) or anything unknown: the
            # content is only an optimization, rebuilding is always safe.
            for name in ("probes", "relation_state", "meta"):
                self._connection.execute(f"DROP TABLE IF EXISTS {name}")
        self._connection.executescript(_SCHEMA)
        self._connection.execute(
            "INSERT OR REPLACE INTO meta (key, value) VALUES ('schema_version', ?)",
            (str(PROBE_CACHE_SCHEMA_VERSION),),
        )
        self._connection.commit()

    # ------------------------------------------------------------- repair
    def _load_snapshot_locked(self) -> DatabaseSnapshot | None:
        """Snapshot persisted by the previous attach/refresh, if any."""
        meta = dict(
            self._connection.execute(
                "SELECT key, value FROM meta WHERE key IN ('composite', 'lineage')"
            ).fetchall()
        )
        if "composite" not in meta:
            return None
        states = tuple(
            RelationState(
                relation=relation,
                fingerprint=fingerprint,
                row_count=row_count,
                inserts_total=inserts,
                deletes_total=deletes,
            )
            for relation, fingerprint, row_count, inserts, deletes in (
                self._connection.execute(
                    "SELECT relation, fingerprint, row_count, inserts, deletes "
                    "FROM relation_state ORDER BY relation"
                )
            )
        )
        return DatabaseSnapshot(
            composite=meta["composite"],
            lineage=meta.get("lineage", ""),
            relations=states,
        )

    def _store_snapshot_locked(self, snapshot: DatabaseSnapshot) -> None:
        self._connection.execute(
            "INSERT OR REPLACE INTO meta (key, value) VALUES ('composite', ?)",
            (snapshot.composite,),
        )
        self._connection.execute(
            "INSERT OR REPLACE INTO meta (key, value) VALUES ('lineage', ?)",
            (snapshot.lineage,),
        )
        self._connection.execute("DELETE FROM relation_state")
        self._connection.executemany(
            "INSERT INTO relation_state "
            "(relation, fingerprint, row_count, inserts, deletes) "
            "VALUES (?, ?, ?, ?, ?)",
            [
                (
                    state.relation,
                    state.fingerprint,
                    state.row_count,
                    state.inserts_total,
                    state.deletes_total,
                )
                for state in snapshot.relations
            ],
        )

    def _repair_locked(self, tracer: "ProbeTracer | None") -> RepairReport:
        """Reconcile stored rows with the live database's current identity.

        Rows whose vector key already matches the current fingerprints
        are untouched.  Stale rows survive (re-keyed) iff the paper's
        monotonicity guarantees their answer: every changed relation
        they touch moved insert-only and the row is alive, or every one
        moved delete-only and the row is dead.  Everything else --
        mixed deltas, foreign-lineage counters, unknown relations --
        is evicted.
        """
        current = self.database.snapshot()
        persisted = self._load_snapshot_locked()
        directions: dict[str, str] = {}
        repaired = 0
        evicted = 0
        if persisted is not None and persisted.composite != current.composite:
            delta = DatabaseDelta.between(persisted, current)
            directions = {
                name: direction.value
                for name, direction in sorted(delta.directions.items())
            }
            fingerprints = {
                state.relation: state.fingerprint for state in current.relations
            }
            deletes: list[tuple[str, str]] = []
            upserts: list[tuple[str, str, int, str]] = []
            rows = self._connection.execute(
                "SELECT vector_key, query_key, alive, relations FROM probes"
            ).fetchall()
            for vector_key, query_key, alive, label in rows:
                relations = label.split(",") if label else []
                if any(name not in fingerprints for name in relations):
                    deletes.append((vector_key, query_key))
                    continue
                expected = relation_vector_key(relations, fingerprints)
                if expected == vector_key:
                    continue
                touched = {
                    delta.directions[name]
                    for name in relations
                    if name in delta.directions
                }
                survives = bool(touched) and (
                    (touched == {MutationDirection.INSERT_ONLY} and bool(alive))
                    or (
                        touched == {MutationDirection.DELETE_ONLY}
                        and not bool(alive)
                    )
                )
                deletes.append((vector_key, query_key))
                if survives:
                    upserts.append((expected, query_key, int(alive), label))
            self._connection.executemany(
                "DELETE FROM probes WHERE vector_key = ? AND query_key = ?",
                deletes,
            )
            self._connection.executemany(
                "INSERT OR REPLACE INTO probes "
                "(vector_key, query_key, alive, relations) VALUES (?, ?, ?, ?)",
                upserts,
            )
            repaired = len(upserts)
            evicted = len(deletes) - len(upserts)
        self._store_snapshot_locked(current)
        self._connection.commit()
        self.repaired_total += repaired
        self.evicted_total += evicted
        report = RepairReport(
            old_composite=None if persisted is None else persisted.composite,
            new_composite=current.composite,
            directions=directions,
            repaired=repaired,
            evicted=evicted,
        )
        if tracer is not None and report.changed:
            tracer.record_event(
                "cache_repair",
                old_composite=report.old_composite,
                new_composite=report.new_composite,
                directions=dict(directions),
                repaired=repaired,
                evicted=evicted,
            )
        return report

    def refresh(self, tracer: "ProbeTracer | None" = None) -> RepairReport:
        """Repair against the live database's *current* state.

        Call after in-session mutations to recover the still-sound rows
        recorded under the pre-mutation vector (reads were already safe:
        they key on current fingerprints and simply missed).
        """
        with self._lock:
            self._ensure_open_locked()
            report = self._repair_locked(tracer)
        self.last_repair = report
        return report

    # --------------------------------------------------------- ProbeStore
    def key_of(self, query: BoundQuery) -> str:
        return query_cache_key(query, self.schema)

    def vector_of(self, query: BoundQuery) -> str:
        """Current vector key of the relations on ``query``'s join path."""
        return relation_vector_key(
            query.tree.relations(), self.database.relation_fingerprints()
        )

    def get(self, query: BoundQuery) -> bool | None:
        """Cached aliveness of ``query`` under the current vector, or None."""
        key = self.key_of(query)
        vector = self.vector_of(query)
        with self._lock:
            self._ensure_open_locked()
            row = self._connection.execute(
                "SELECT alive FROM probes WHERE vector_key = ? AND query_key = ?",
                (vector, key),
            ).fetchone()
            if row is None:
                self.misses += 1
                return None
            self.hits += 1
            return bool(row[0])

    def put(self, query: BoundQuery, alive: bool) -> None:
        """Record one probe result (idempotent; last write wins)."""
        key = self.key_of(query)
        vector = self.vector_of(query)
        label = relations_label(query.tree.relations())
        with self._lock:
            self._ensure_open_locked()
            self._connection.execute(
                "INSERT OR REPLACE INTO probes "
                "(vector_key, query_key, alive, relations) VALUES (?, ?, ?, ?)",
                (vector, key, int(alive), label),
            )
            self._connection.commit()
            self.writes += 1

    # ------------------------------------------------------- housekeeping
    def _ensure_open_locked(self) -> None:
        if self._closed:
            raise ProbeCacheError("probe cache is closed")

    def _count_locked(self) -> int:
        self._ensure_open_locked()
        row = self._connection.execute("SELECT COUNT(*) FROM probes").fetchone()
        return int(row[0])

    def __len__(self) -> int:
        """Entries currently stored (all of them valid for some vector)."""
        with self._lock:
            return self._count_locked()

    def clear(self) -> int:
        """Drop every entry; returns rows removed (counted, not rowcount)."""
        with self._lock:
            removed = self._count_locked()
            self._connection.execute("DELETE FROM probes")
            self._connection.commit()
            return removed

    def stats(self) -> ProbeCacheStats:
        # One lock acquisition for the whole snapshot: the session
        # counters and the entry count must be read consistently.
        with self._lock:
            return ProbeCacheStats(
                path=str(self.path),
                composite=self.database.fingerprint(),
                entries=self._count_locked(),
                repaired=self.repaired_total,
                evicted=self.evicted_total,
                hits=self.hits,
                misses=self.misses,
                writes=self.writes,
            )

    def flush(self) -> None:
        with self._lock:
            self._ensure_open_locked()
            self._connection.commit()

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return f"ProbeCache({str(self.path)!r}, {state})"


# ---------------------------------------------------------- file-level ops
def inspect_cache_dir(cache_dir: str | Path) -> dict[str, object]:
    """Summary of a cache directory without needing a live database.

    Used by ``repro cache stats``: reports the probe file, total entries,
    and per-vector entry counts (one vector per distinct dataset state x
    join-path relation set seen), and the status file's counts.
    """
    path = Path(cache_dir) / PROBE_CACHE_FILENAME
    status = count_status_file(cache_dir)
    if not path.exists():
        return {
            "path": str(path),
            "exists": False,
            "entries": 0,
            "vectors": {},
            "status": status,
        }
    connection = sqlite3.connect(str(path))
    try:
        rows = connection.execute(
            "SELECT vector_key, relations, COUNT(*), SUM(alive) FROM probes "
            "GROUP BY vector_key, relations ORDER BY vector_key, relations"
        ).fetchall()
    except sqlite3.Error as exc:
        raise ProbeCacheError(f"{path} is not a probe cache file: {exc}")
    finally:
        connection.close()
    vectors: dict[str, dict[str, object]] = {}
    for vector_key, relations, count, alive in rows:
        vectors[vector_key] = {
            "relations": relations,
            "entries": int(count),
            "alive": int(alive or 0),
        }
    return {
        "path": str(path),
        "exists": True,
        "size_bytes": path.stat().st_size,
        "entries": sum(int(entry["entries"]) for entry in vectors.values()),
        "vectors": vectors,
        "status": status,
    }


def clear_cache_dir(cache_dir: str | Path) -> dict[str, int]:
    """Empty the probe file and the status file in ``cache_dir``.

    Returns the rows removed (``probes``, ``workloads``, ``facts``).  A
    status file left behind would still answer a repeat workload with
    zero probes.  The index file holds no answers and stays.

    The counts come from ``SELECT COUNT(*)`` *before* the delete:
    ``cursor.rowcount`` is documented to be ``-1`` whenever sqlite does
    not track the statement, which silently read as "0 evicted".
    """
    status = count_status_file(cache_dir, clear=True)
    path = Path(cache_dir) / PROBE_CACHE_FILENAME
    if not path.exists():
        return {"probes": 0, **status}
    connection = sqlite3.connect(str(path))
    try:
        probes = int(connection.execute("SELECT COUNT(*) FROM probes").fetchone()[0])
        connection.execute("DELETE FROM probes")
        connection.commit()
        return {"probes": probes, **status}
    except sqlite3.Error as exc:
        raise ProbeCacheError(f"{path} is not a probe cache file: {exc}")
    finally:
        connection.close()
