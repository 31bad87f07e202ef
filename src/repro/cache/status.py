"""Persisted classification facts: Phase 3 survives the process.

The probe cache (:mod:`repro.cache.store`) remembers *answers*; this
module remembers *conclusions*.  After a complete, unbudgeted traversal
the debugger saves one fact per classified exploration node -- the
node's canonical query key, the relations on its join path, its
aliveness, and whether it was actually probed -- under a **workload
key** (keyword multiset + match mode + lattice shape) together with the
database snapshot the run saw.

On a later debug of the same workload:

* **exact repeat** (same composite fingerprint, complete run persisted):
  Phase 3 is skipped entirely -- the saved facts rebuild the
  :class:`~repro.core.status.StatusStore` and MPANs are recomputed from
  it, which is the same ground truth every strategy converges to.
* **mutated database**: the facts are *repaired* with the same monotone
  rule the probe cache uses (alive facts survive insert-only deltas,
  dead facts survive delete-only deltas, anything mixed or undecidable
  is dropped) and the survivors pre-seed the session's store through
  ``mark_alive``/``mark_dead``, so R1/R2 closure re-derives everything
  they imply before the first SQL query is spent.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

from repro.relational.database import (
    Database,
    DatabaseDelta,
    DatabaseSnapshot,
    MutationDirection,
    RelationState,
)

#: File name used inside a ``--cache-dir`` directory (next to the probes).
STATUS_CACHE_FILENAME = "status.sqlite"

STATUS_CACHE_SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT NOT NULL PRIMARY KEY,
    value TEXT NOT NULL
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS runs (
    workload_key TEXT NOT NULL PRIMARY KEY,
    snapshot     TEXT NOT NULL,
    complete     INTEGER NOT NULL
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS status_facts (
    workload_key TEXT NOT NULL,
    node_key     TEXT NOT NULL,
    alive        INTEGER NOT NULL,
    evaluated    INTEGER NOT NULL,
    relations    TEXT NOT NULL,
    PRIMARY KEY (workload_key, node_key)
) WITHOUT ROWID
"""


class StatusCacheError(RuntimeError):
    """Raised on operations against a closed or unusable status cache."""


@dataclass(frozen=True)
class StatusFact:
    """One persisted node classification."""

    node_key: str
    relations: tuple[str, ...]
    alive: bool
    evaluated: bool


@dataclass(frozen=True)
class StatusLoad:
    """Facts recovered for one workload, already repaired if stale.

    ``exact`` means the persisted run saw byte-identical content
    (composite fingerprints match); combined with ``complete`` it
    licenses skipping Phase 3 outright.  Otherwise ``facts`` holds only
    the classifications the monotone repair rule could keep, and
    ``dropped`` counts the casualties.
    """

    workload_key: str
    exact: bool
    complete: bool
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


def fact_survives(
    fact: StatusFact, directions: Mapping[str, MutationDirection]
) -> bool:
    """The monotone repair rule, shared with the probe cache.

    A fact touching no changed relation is still exact.  Otherwise it
    survives iff its answer is protected by monotonicity: alive facts
    under purely insert-only touched deltas, dead facts under purely
    delete-only ones.
    """
    touched = {
        directions[name] for name in fact.relations if name in directions
    }
    if not touched:
        return True
    if fact.alive:
        return touched == {MutationDirection.INSERT_ONLY}
    return touched == {MutationDirection.DELETE_ONLY}


class StatusCache:
    """Persistent per-workload classification store (sqlite, thread-safe)."""

    def __init__(self, path: str | Path, database: Database):
        self.path = Path(path)
        self.database = database
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._closed = False
        self.saves = 0
        self.exact_loads = 0
        self.repaired_loads = 0
        try:
            # guarded-by: _lock  (every post-init use is under the lock)
            self._connection = sqlite3.connect(
                str(self.path), check_same_thread=False
            )
            self._migrate_locked()
        except sqlite3.Error as exc:  # pragma: no cover - disk-level failures
            raise StatusCacheError(f"cannot open status cache at {path}: {exc}")

    @classmethod
    def open_dir(cls, cache_dir: str | Path, database: Database) -> "StatusCache":
        """Open (creating if needed) the status file inside ``cache_dir``."""
        return cls(Path(cache_dir) / STATUS_CACHE_FILENAME, database)

    def _migrate_locked(self) -> None:
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
        if tables and version != STATUS_CACHE_SCHEMA_VERSION:
            for name in ("status_facts", "runs", "meta"):
                self._connection.execute(f"DROP TABLE IF EXISTS {name}")
        self._connection.executescript(_SCHEMA)
        self._connection.execute(
            "INSERT OR REPLACE INTO meta (key, value) VALUES ('schema_version', ?)",
            (str(STATUS_CACHE_SCHEMA_VERSION),),
        )
        self._connection.commit()

    def _ensure_open_locked(self) -> None:
        if self._closed:
            raise StatusCacheError("status cache is closed")

    # -------------------------------------------------------------- saving
    def save(
        self,
        workload_key: str,
        facts: Iterable[StatusFact],
        complete: bool = True,
    ) -> int:
        """Persist the classification facts of one finished run.

        Replaces whatever the workload key held before (last run wins)
        and stamps the database snapshot the run was computed against.
        Returns the number of facts stored.
        """
        rows = [
            (
                workload_key,
                fact.node_key,
                int(fact.alive),
                int(fact.evaluated),
                ",".join(sorted(fact.relations)),
            )
            for fact in facts
        ]
        snapshot = self.database.snapshot()
        with self._lock:
            self._ensure_open_locked()
            self._connection.execute(
                "DELETE FROM status_facts WHERE workload_key = ?", (workload_key,)
            )
            self._connection.executemany(
                "INSERT INTO status_facts "
                "(workload_key, node_key, alive, evaluated, relations) "
                "VALUES (?, ?, ?, ?, ?)",
                rows,
            )
            self._connection.execute(
                "INSERT OR REPLACE INTO runs (workload_key, snapshot, complete) "
                "VALUES (?, ?, ?)",
                (workload_key, _encode_snapshot(snapshot), int(complete)),
            )
            self._connection.commit()
            self.saves += 1
        return len(rows)

    # ------------------------------------------------------------- loading
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
                "SELECT snapshot, complete FROM runs WHERE workload_key = ?",
                (workload_key,),
            ).fetchone()
            if run is None:
                return None
            rows = self._connection.execute(
                "SELECT node_key, alive, evaluated, relations "
                "FROM status_facts WHERE workload_key = ? ORDER BY node_key",
                (workload_key,),
            ).fetchall()
        stored = _decode_snapshot(run[0])
        complete = bool(run[1])
        facts = tuple(
            StatusFact(
                node_key=node_key,
                relations=tuple(label.split(",")) if label else (),
                alive=bool(alive),
                evaluated=bool(evaluated),
            )
            for node_key, alive, evaluated, label in rows
        )
        if stored.composite == current.composite:
            with self._lock:
                self.exact_loads += 1
            return StatusLoad(
                workload_key=workload_key,
                exact=True,
                complete=complete,
                facts=facts,
                directions={},
                dropped=0,
            )
        delta = DatabaseDelta.between(stored, current)
        survivors = tuple(
            fact for fact in facts if fact_survives(fact, delta.directions)
        )
        with self._lock:
            self.repaired_loads += 1
        return StatusLoad(
            workload_key=workload_key,
            exact=False,
            complete=complete,
            facts=survivors,
            directions={
                name: direction.value
                for name, direction in sorted(delta.directions.items())
            },
            dropped=len(facts) - len(survivors),
        )

    # ------------------------------------------------------- housekeeping
    def __len__(self) -> int:
        """Number of persisted facts (node classifications), all workloads."""
        with self._lock:
            self._ensure_open_locked()
            row = self._connection.execute(
                "SELECT COUNT(*) FROM status_facts"
            ).fetchone()
            return int(row[0])

    def workload_count(self) -> int:
        """Number of workloads with a persisted run."""
        with self._lock:
            self._ensure_open_locked()
            row = self._connection.execute("SELECT COUNT(*) FROM runs").fetchone()
            return int(row[0])

    def clear(self) -> int:
        """Drop every persisted run; returns facts removed (pre-counted)."""
        with self._lock:
            self._ensure_open_locked()
            removed = int(
                self._connection.execute(
                    "SELECT COUNT(*) FROM status_facts"
                ).fetchone()[0]
            )
            self._connection.execute("DELETE FROM status_facts")
            self._connection.execute("DELETE FROM runs")
            self._connection.commit()
            return removed

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._connection.commit()
            self._connection.close()

    def __enter__(self) -> "StatusCache":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return f"StatusCache({str(self.path)!r}, {state})"


def count_status_file(cache_dir: str | Path, clear: bool = False) -> dict[str, int]:
    """Workloads and facts in ``cache_dir``'s status file, emptied if ``clear``.

    Needs no database (``repro cache stats|clear``); a missing file counts
    zero of each.
    """
    path = Path(cache_dir) / STATUS_CACHE_FILENAME
    if not path.exists():
        return {"workloads": 0, "facts": 0}
    connection = sqlite3.connect(str(path))
    try:
        workloads = int(connection.execute("SELECT COUNT(*) FROM runs").fetchone()[0])
        facts = int(
            connection.execute("SELECT COUNT(*) FROM status_facts").fetchone()[0]
        )
        if clear:
            connection.execute("DELETE FROM status_facts")
            connection.execute("DELETE FROM runs")
            connection.commit()
    except sqlite3.Error as exc:
        raise StatusCacheError(f"{path} is not a status cache file: {exc}")
    finally:
        connection.close()
    return {"workloads": workloads, "facts": facts}
