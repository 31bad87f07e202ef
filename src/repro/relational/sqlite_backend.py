"""Execute generated SQL on a stdlib ``sqlite3`` database.

This backend exists to demonstrate that the system's queries are ordinary
SQL (the paper ran them on PostgreSQL via JDBC) and to cross-check the
in-memory engine: property tests assert both agree on aliveness for random
trees and databases.

The probes run on the mirror's own access paths, as they would inside
PostgreSQL.  At load the engine builds, next to each relation with
searchable text, a postings table holding each token's ascending mirror
row ids (filled from the inverted index the debugger already built, so
the text is tokenized once), indexes both ends of every foreign key, and
runs ``ANALYZE`` so the planner can cost the joins.  A token-mode keyword
predicate is then a row-id ``IN`` lookup in SQL
(:func:`~repro.relational.sql.render_keyword_condition`); only
SUBSTRING mode calls back into Python, through ``SUBSTRING_MATCH``.  A
probe is the flat join under ``SELECT EXISTS``, except on a tree with a
same-row fan-in, which runs as nested ``IN`` semi-joins
(:func:`~repro.relational.sql.render_exists_probe`).

``sqlite3`` connections must not be used by two threads at once, so a
naive single connection crashes the moment concurrent service sessions
share one engine.  The engine mirrors the database into a named shared-cache in-memory sqlite
instance and serves every read path (:meth:`is_alive`, :meth:`count`,
:meth:`fetch`) through a bounded
:class:`~repro.backends.pool.ConnectionPool`: each probe checks a
connection out, uses it exclusively, and checks it back in, so at most
``pool_size`` connections ever exist no matter how many sessions
probe concurrently -- the discipline a real DBMS backend needs, not just
an sqlite workaround.  One *anchor* connection (created at load time,
never pooled) keeps the shared-cache database alive and serves
single-threaded raw access via :attr:`connection`.
"""

from __future__ import annotations

import itertools
import json
import sqlite3
from typing import TYPE_CHECKING, Any

from repro.backends.pool import DEFAULT_POOL_SIZE, ConnectionPool, PoolStats
from repro.relational.database import Database
from repro.relational.identifiers import quote_identifier
from repro.relational.jointree import BoundQuery
from repro.relational.predicates import MatchMode, cell_matches
from repro.relational.sql import (
    postings_table,
    render_access_path_ddl,
    render_ddl,
    render_exists_probe,
    render_sql,
    rowid_name,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.index.base import IndexBackend

#: Distinguishes the shared-cache memory databases of engines living in
#: the same process (the URI name is process-global in sqlite).
_ENGINE_IDS = itertools.count()


def _substring_match(keyword: str, text: Any) -> int:
    """SQL function backing substring predicates (`SUBSTRING_MATCH(kw, col)`).

    Delegates to the same :func:`cell_matches` the in-memory engine uses
    so both backends casefold identically; sqlite's own ``LOWER()`` is
    ASCII-only and would diverge on keywords like "straße".
    """
    if text is None or not isinstance(text, str):
        return 0
    return 1 if cell_matches(keyword, text, MatchMode.SUBSTRING) else 0


class SqliteEngine:
    """Mirror of a :class:`Database` inside an in-process sqlite3 instance."""

    def __init__(
        self,
        database: Database,
        index: "IndexBackend | None" = None,
        pool_size: int = DEFAULT_POOL_SIZE,
    ):
        """Mirror ``database``; ``index`` (built over it) fills the postings.

        Without an index the engine builds an
        :class:`~repro.index.inverted.InvertedIndex` for the load and drops
        it afterwards.
        """
        self.database = database
        self.schema = database.schema
        self.pool_size = pool_size
        self._uri = (
            f"file:repro-sqlite-{next(_ENGINE_IDS)}?mode=memory&cache=shared"
        )
        self._closed = False
        for relation in self.schema.iter_relations():
            rowid_name(relation)  # raises if no row-id name is left free
        # The anchor connection keeps the shared-cache database alive (the
        # data dies with the last open connection) and is what loads it.
        self._anchor = self._connect()
        try:
            self._load(self._anchor, index)
        except BaseException:
            self._anchor.close()
            raise
        self._pool: ConnectionPool[sqlite3.Connection] = ConnectionPool(
            self._connect,
            max_size=pool_size,
            closer=lambda connection: connection.close(),
        )

    def _connect(self) -> sqlite3.Connection:
        # check_same_thread=False because the pool hands one connection to
        # one thread at a time but not always the *same* thread, and
        # close() reaps every connection from a single thread.
        connection = sqlite3.connect(
            self._uri, uri=True, check_same_thread=False
        )
        connection.create_function("SUBSTRING_MATCH", 2, _substring_match)
        return connection

    @property
    def connection(self) -> sqlite3.Connection:
        """The anchor connection, for single-threaded raw SQL access."""
        if self._closed:
            raise sqlite3.ProgrammingError("Cannot operate on a closed engine.")
        return self._anchor

    @property
    def connection_count(self) -> int:
        """Connections alive: the anchor plus everything the pool created."""
        stats = self._pool.stats()
        return 1 + stats.in_use + stats.idle

    def pool_stats(self) -> PoolStats:
        """Counters of the probe connection pool (excludes the anchor)."""
        return self._pool.stats()

    def _load(
        self, connection: sqlite3.Connection, index: "IndexBackend | None"
    ) -> None:
        # Statements go through the connection's own execute/executemany
        # (each creates and drops its cursor) so no bare cursor can outlive
        # a failed load (resource lint RES002).
        for statement in render_ddl(self.schema):
            connection.execute(statement)
        for table in self.database.iter_tables():
            if not len(table):
                continue
            placeholders = ", ".join("?" for _ in table.relation.attributes)
            # Rows are inserted in table order into an empty table, so
            # sqlite numbers them 1, 2, ...: mirror row id = table row id
            # + 1, which is what the postings list.
            connection.executemany(
                f"INSERT INTO {quote_identifier(table.relation.name)} "
                f"VALUES ({placeholders})",
                list(table),
            )
        for statement in render_access_path_ddl(self.schema):
            connection.execute(statement)
        for relation, rows in self._postings(index).items():
            connection.executemany(
                f"INSERT INTO {quote_identifier(postings_table(relation))} "
                f"VALUES (?, ?)",
                rows,
            )
        connection.execute("ANALYZE")
        connection.commit()

    def _postings(
        self, index: "IndexBackend | None"
    ) -> dict[str, list[tuple[str, str]]]:
        """``relation -> [(token, JSON array of mirror row ids)]``, by token."""
        if index is None:
            # Imported here: repro.index imports this package's modules.
            from repro.index.inverted import InvertedIndex

            index = InvertedIndex(self.database)
        postings: dict[str, list[tuple[str, str]]] = {}
        for token in sorted(index.tokens()):
            for relation in index.relations_containing(token):
                rids = [rid + 1 for rid in sorted(index.tuple_set(relation, token))]
                postings.setdefault(relation, []).append(
                    (token, json.dumps(rids, separators=(",", ":")))
                )
        return postings

    # ------------------------------------------------------------ interface
    def is_alive(self, query: BoundQuery) -> bool:
        """Run the probe as one ``SELECT EXISTS (...)`` scalar.

        The engine short-circuits the inner query on its first row and a
        single 0/1 crosses the connection -- no row fetch, no LIMIT.  The
        inner query is the flat join, or nested ``IN`` semi-joins when the
        tree has a same-row fan-in (one child row joined to two copies of
        its parent), where the flat join would loop over one copy's
        candidates once per row of the other.
        """
        sql = render_exists_probe(query, self.schema)
        with self._pool.connection() as connection:
            cursor = connection.execute(sql)
            return bool(cursor.fetchone()[0])

    def count(self, query: BoundQuery, limit: int | None = None) -> int:
        inner = render_sql(query, self.schema, select="1", limit=limit)
        with self._pool.connection() as connection:
            cursor = connection.execute(f"SELECT COUNT(*) FROM ({inner})")
            return int(cursor.fetchone()[0])

    def fetch(
        self, query: BoundQuery, limit: int | None = 100
    ) -> list[tuple[Any, ...]]:
        sql = render_sql(query, self.schema, limit=limit)
        with self._pool.connection() as connection:
            return list(connection.execute(sql))

    def close(self) -> None:
        """Close the pool and the anchor (drops the shared memory DB)."""
        if self._closed:
            return
        self._closed = True
        self._pool.close()
        self._anchor.close()

    def __enter__(self) -> "SqliteEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
