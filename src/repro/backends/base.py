"""Backend protocols and the factory that builds the two engines.

The paper's system is backend-agnostic by construction: every traversal
strategy talks to an :class:`AlivenessBackend` ("does this query return a
tuple?") through the instrumented evaluator, and nothing else about the
engine leaks upward.  This module is the contract layer: the protocols
every backend implements, plus :func:`create_backend`, which builds one of
the two engines standing in for the paper's PostgreSQL: ``memory`` (the
in-memory Yannakakis engine) or ``sqlite`` (the generated SQL on a pooled
stdlib ``sqlite3`` mirror).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.relational.jointree import BoundQuery

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.index.base import IndexBackend
    from repro.relational.database import Database

#: The names :func:`create_backend` accepts.
BACKEND_NAMES = ("memory", "sqlite")


@runtime_checkable
class AlivenessBackend(Protocol):
    """Anything that can answer "does this query return a tuple?"."""

    def is_alive(self, query: BoundQuery) -> bool:  # pragma: no cover - protocol
        ...


@runtime_checkable
class EnumeratingBackend(Protocol):
    """A backend that can also enumerate (a bounded number of) results."""

    def is_alive(self, query: BoundQuery) -> bool:  # pragma: no cover - protocol
        ...

    def count(
        self, query: BoundQuery, limit: int | None = None
    ) -> int:  # pragma: no cover - protocol
        ...


def create_backend(
    name: str, database: "Database", index: "IndexBackend | None" = None
) -> AlivenessBackend:
    """Build the ``memory`` or ``sqlite`` engine over ``database``.

    The memory engine resolves keyword predicates through ``index`` when
    one is given; when that index is the disk-backed
    :class:`~repro.index.sqlite_index.SqliteInvertedIndex` it also streams
    tuple sets larger than the materialization cap off disk instead of
    holding them on the heap.  The sqlite engine fills its postings
    tables from ``index`` (or builds an inverted index when none is given).
    """
    # Both engines import this package (protocols, pool), so they are
    # imported here rather than at module level.
    if name == "memory":
        from repro.index.sqlite_index import SqliteInvertedIndex
        from repro.relational.engine import InMemoryEngine

        return InMemoryEngine(
            database,
            tuple_set_provider=None if index is None else index.tuple_set,
            streaming_source=(
                index if isinstance(index, SqliteInvertedIndex) else None
            ),
        )
    if name == "sqlite":
        from repro.relational.sqlite_backend import SqliteEngine

        return SqliteEngine(database, index)
    raise ValueError(
        f"unknown backend {name!r}; expected one of {', '.join(BACKEND_NAMES)}"
    )
