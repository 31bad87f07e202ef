"""Index-backend protocol and the factory that builds the two indexes.

The paper builds its keyword -> tuple-set structures in Lucene once per
snapshot; this reproduction started with a dict-of-sets
(:class:`~repro.index.inverted.InvertedIndex`) that must fit in RAM.  At
million-tuple scale that dict *is* the memory ceiling, so
:func:`create_index` builds one of two implementations of the
:class:`IndexBackend` protocol:

* ``memory`` -- the original dict index (fastest lookups, linear RAM);
* ``sqlite`` -- an on-disk postings store
  (:class:`~repro.index.sqlite_index.SqliteInvertedIndex`): flat RAM,
  persistent next to the L2 probe cache, repaired per relation from the
  content fingerprints instead of rebuilt.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Protocol, runtime_checkable

from repro.index.inverted import InvertedIndex
from repro.index.sqlite_index import SqliteInvertedIndex
from repro.relational.predicates import MatchMode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.relational.database import Database

#: The names :func:`create_index` accepts.
INDEX_NAMES = ("memory", "sqlite")


@runtime_checkable
class IndexBackend(Protocol):
    """The inverted-index surface the pipeline consumes.

    Phase 1 (keyword mapping) uses :meth:`relations_containing`; the
    memory engine resolves keyword predicates through :meth:`tuple_set`
    (its ``tuple_set_provider``), and the cost model sizes a keyword
    instance as ``len(tuple_set(...))``.  ``tuple_set`` must return
    exactly the rows whose text attributes match under the shared
    :func:`~repro.relational.predicates.tokenize` casefolding, whatever
    the storage -- the conformance suite holds every backend to the
    ``memory`` implementation's answers.
    """

    database: "Database"

    @property
    def vocabulary_size(self) -> int: ...

    def tokens(self) -> Iterator[str]: ...

    def relations_containing(
        self, keyword: str, mode: MatchMode = MatchMode.TOKEN
    ) -> tuple[str, ...]: ...

    def tuple_set(
        self, relation: str, keyword: str, mode: MatchMode = MatchMode.TOKEN
    ) -> frozenset[int]: ...

    def close(self) -> None: ...


def create_index(
    name: str, database: "Database", cache_dir: str | Path | None = None
) -> IndexBackend:
    """Build the ``memory`` or ``sqlite`` index over ``database``.

    The sqlite index lives inside ``cache_dir`` when one is given (next to
    the L2 probe cache, reopened and repaired per relation by the next
    session), else in a temporary file removed on ``close()``.  The memory
    index ignores ``cache_dir``.
    """
    if name == "memory":
        return InvertedIndex(database)
    if name == "sqlite":
        if cache_dir is not None:
            return SqliteInvertedIndex.open_dir(cache_dir, database)
        return SqliteInvertedIndex(database)
    raise ValueError(
        f"unknown index backend {name!r}; expected one of {', '.join(INDEX_NAMES)}"
    )
