"""The persistent cache store: L2 probe answers and status facts, one file.

The paper treats Phase 0 as "computed offline ... a one-time cost"
(§3.1), but probe results -- the expensive part on a DISCOVER-style
engine, where each candidate network is a real SQL round-trip -- and the
classifications Phase 3 derives from them died with the process.
:class:`ProbeCache` persists both in one sqlite file
(:data:`CACHE_FILENAME`) behind one connection and one lock:

* ``probes`` -- one answer per probed query, keyed by the
  **relation-fingerprint vector** of its join path
  (:func:`relation_vector_key`, the namespace: a mutation to
  ``publication`` changes only the vectors of probes touching
  ``publication``, so every ``person``-only probe stays warm with no
  repair work at all) and the **canonical query key**
  (:func:`query_cache_key`, stable across processes and isomorphic
  relabelings).  The evaluator consults it after missing its in-process
  LRU (L1) and writes through on every executed probe.
* ``runs`` and ``status_facts`` -- after an unconstrained traversal that
  did not exhaust its budget, or when an interactive session explains
  all or closes, the debugger saves one fact per classified exploration
  node (canonical key, join-path relations, aliveness) under a
  **workload key** (keyword multiset + match mode + lattice shape),
  stamped with the database snapshot the run saw.  A later run replays
  what :meth:`ProbeCache.load` returns through R1/R2 and skips Phase 3
  whenever that resolves its graph.

A mutated database *repairs* both instead of evicting them wholesale,
by one rule (:func:`monotone_survives`): the paper's monotonicity read
at the dataset boundary.  An insert can only flip a probe dead -> alive,
so alive answers survive insert-only deltas; a delete only alive ->
dead, so dead answers survive delete-only deltas; a mixed (or
undecidable) delta keeps neither.  Probe rows are repaired on attach and
on :meth:`ProbeCache.refresh` against the file's snapshot (survivors are
re-keyed to the new vector); facts are repaired lazily at
:meth:`ProbeCache.load` against their own run's snapshot.  Both
snapshots use one JSON encoding.  Counts come from explicit row lists or
``SELECT COUNT(*)`` -- never from ``cursor.rowcount``, whose ``-1``
sentinel sqlite is free to return for any statement.

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
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

from repro.cache.keys import query_cache_key, relation_vector_key, relations_label
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
CACHE_FILENAME = "cache.sqlite"

#: Bumped whenever the on-disk layout changes; a mismatched file is
#: rebuilt from scratch (cached answers are only ever an optimization).
CACHE_SCHEMA_VERSION = 2

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT NOT NULL PRIMARY KEY,
    value TEXT NOT NULL
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS probes (
    vector_key TEXT NOT NULL,
    query_key  TEXT NOT NULL,
    alive      INTEGER NOT NULL,
    relations  TEXT NOT NULL,
    PRIMARY KEY (vector_key, query_key)
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS runs (
    workload_key TEXT NOT NULL PRIMARY KEY,
    snapshot     TEXT NOT NULL
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
    """Probe counters of one :class:`ProbeCache` (session + file)."""

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


@dataclass(frozen=True)
class StatusFact:
    """One persisted node classification."""

    node_key: str
    relations: tuple[str, ...]
    alive: bool


@dataclass(frozen=True)
class StatusLoad:
    """Facts recovered for one workload, already repaired if stale.

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


def _decode_snapshot(payload: str) -> DatabaseSnapshot:
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


def _directions_label(delta: DatabaseDelta) -> dict[str, str]:
    return {
        name: direction.value for name, direction in sorted(delta.directions.items())
    }


def monotone_survives(
    alive: bool,
    relations: Iterable[str],
    directions: Mapping[str, MutationDirection],
) -> bool:
    """The repair rule: does an answer survive the changes on its join path?

    An alive answer survives iff every changed relation among
    ``relations`` moved insert-only, a dead one iff every one moved
    delete-only.  An answer touching no changed relation proves nothing
    here and gets False; each caller decides what that case means (see
    :func:`fact_survives`, and the probe repair :meth:`ProbeCache.refresh`
    runs).
    """
    touched = {directions[name] for name in relations if name in directions}
    wanted = MutationDirection.INSERT_ONLY if alive else MutationDirection.DELETE_ONLY
    return touched == {wanted}


def fact_survives(
    fact: StatusFact, directions: Mapping[str, MutationDirection]
) -> bool:
    """Whether a persisted fact still holds under ``directions``.

    A fact touching no changed relation is still exact: it was compared
    against its own run's snapshot, so its join path holds the content
    it was computed on.  Otherwise :func:`monotone_survives` decides.
    """
    return directions.keys().isdisjoint(fact.relations) or monotone_survives(
        fact.alive, fact.relations, directions
    )


class ProbeCache:
    """Persistent probe answers and status facts with per-relation identity.

    Implements the :class:`~repro.backends.base.ProbeStore` protocol the
    evaluator consumes (:meth:`get`/:meth:`put`) and the per-workload
    status store the debugger reads and writes (:meth:`load`/:meth:`save`).
    The cache holds a reference to the live :class:`Database` and keys
    every probe on the *current* per-relation fingerprints, so reads after
    an in-session mutation can never return an answer recorded against
    stale content -- at worst they miss until :meth:`refresh` repairs the
    old rows.
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
        self.saves = 0
        self.repaired_total = 0
        self.evicted_total = 0
        self.last_repair: RepairReport | None = None
        try:
            # guarded-by: _lock  (every post-init use is under the lock)
            self._connection = sqlite3.connect(
                str(self.path), check_same_thread=False
            )
            try:
                self._migrate_locked()
                self.last_repair = self._repair_locked(tracer)
            except BaseException:
                self._connection.close()
                raise
        except sqlite3.Error as exc:
            raise ProbeCacheError(f"cannot open cache at {path}: {exc}")

    @classmethod
    def open_dir(
        cls,
        cache_dir: str | Path,
        database: Database,
        tracer: "ProbeTracer | None" = None,
    ) -> "ProbeCache":
        """Open (creating if needed) the cache file inside ``cache_dir``."""
        return cls(Path(cache_dir) / CACHE_FILENAME, database, tracer=tracer)

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
            for name in ("probes", "runs", "status_facts", "meta"):
                self._connection.execute(f"DROP TABLE IF EXISTS {name}")
        self._connection.executescript(_SCHEMA)
        self._connection.execute(
            "INSERT OR REPLACE INTO meta (key, value) VALUES ('schema_version', ?)",
            (str(CACHE_SCHEMA_VERSION),),
        )
        self._connection.commit()

    # ------------------------------------------------------------- repair
    def _repair_locked(self, tracer: "ProbeTracer | None") -> RepairReport:
        """Reconcile stored probe rows with the live database's identity.

        Rows whose vector key already matches the current fingerprints
        are untouched.  A stale row is re-keyed iff
        :func:`monotone_survives` keeps its answer.  A stale row touching
        no changed relation was recorded between two repairs, against
        content the file's snapshot never saw, so it is evicted -- as are
        rows over unknown relations and everything a mixed or
        foreign-lineage delta touches.
        """
        current = self.database.snapshot()
        row = self._connection.execute(
            "SELECT value FROM meta WHERE key = 'snapshot'"
        ).fetchone()
        persisted = None if row is None else _decode_snapshot(row[0])
        directions: dict[str, str] = {}
        repaired = 0
        evicted = 0
        if persisted is not None and persisted.composite != current.composite:
            delta = DatabaseDelta.between(persisted, current)
            directions = _directions_label(delta)
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
                deletes.append((vector_key, query_key))
                if monotone_survives(bool(alive), relations, delta.directions):
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
        self._connection.execute(
            "INSERT OR REPLACE INTO meta (key, value) VALUES ('snapshot', ?)",
            (_encode_snapshot(current),),
        )
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
        """Repair the probe rows against the live database's *current* state.

        Call after in-session mutations to recover the still-sound rows
        recorded under the pre-mutation vector (reads were already safe:
        they key on current fingerprints and simply missed).  Status
        facts need nothing here: :meth:`load` repairs them against their
        own run's snapshot.
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
        snapshot = _encode_snapshot(self.database.snapshot())
        with self._lock:
            self._ensure_open_locked()
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
                (workload_key, snapshot),
            )
            self._connection.commit()
            self.saves += 1
        return len(rows)

    def load(self, workload_key: str) -> StatusLoad | None:
        """Recover (and, if stale, repair) the facts of one workload.

        Returns None when nothing was persisted for the key.  Stale facts
        are filtered through :func:`fact_survives`; for a cross-lineage
        or mixed delta that keeps only the untouched-relation facts,
        which is exactly what remains provable.
        """
        current = self.database.snapshot()
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
        stored = _decode_snapshot(run[0])
        facts = tuple(
            StatusFact(
                node_key=node_key,
                relations=tuple(label.split(",")) if label else (),
                alive=bool(alive),
            )
            for node_key, alive, label in rows
        )
        # Equal composites give an empty delta, so every fact survives.
        delta = DatabaseDelta.between(stored, current)
        survivors = tuple(
            fact for fact in facts if fact_survives(fact, delta.directions)
        )
        return StatusLoad(
            workload_key=workload_key,
            facts=survivors,
            directions=_directions_label(delta),
            dropped=len(facts) - len(survivors),
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
        """Drop every probe, run and fact; returns :meth:`counts` from before."""
        with self._lock:
            self._ensure_open_locked()
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
                repaired=self.repaired_total,
                evicted=self.evicted_total,
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
    """Empty the answer tables, counting first (``rowcount`` may be -1)."""
    counts = _count_rows(connection)
    for table in ("probes", "runs", "status_facts"):
        connection.execute(f"DELETE FROM {table}")
    connection.commit()
    return counts


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
    entries per vector (one vector per distinct dataset state x join-path
    relation set seen), and its persisted workloads and facts.
    """
    path = Path(cache_dir) / CACHE_FILENAME
    if not path.exists():
        return {
            "path": str(path),
            "exists": False,
            "entries": 0,
            "vectors": {},
            "status": {"workloads": 0, "facts": 0},
        }
    with _open_file(path) as connection:
        rows = connection.execute(
            "SELECT vector_key, relations, COUNT(*), SUM(alive) FROM probes "
            "GROUP BY vector_key, relations ORDER BY vector_key, relations"
        ).fetchall()
        counts = _count_rows(connection)
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
        "entries": counts["probes"],
        "vectors": vectors,
        "status": {"workloads": counts["workloads"], "facts": counts["facts"]},
    }


def clear_cache_dir(cache_dir: str | Path) -> dict[str, int]:
    """Empty the cache file in ``cache_dir``; returns the rows removed.

    The counts (``probes``, ``workloads``, ``facts``) are what ``repro
    cache clear`` prints.  A run left behind would still answer a repeat
    workload with zero probes.  The index file holds no answers and stays.
    """
    path = Path(cache_dir) / CACHE_FILENAME
    if not path.exists():
        return {"probes": 0, "workloads": 0, "facts": 0}
    with _open_file(path) as connection:
        return _clear_rows(connection)
