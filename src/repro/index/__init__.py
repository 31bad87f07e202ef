"""Full-text indexing substrate (the paper used Lucene here).

Provides the inverted index over a :class:`~repro.relational.database.Database`
used in Phase 1 to map keywords to the relations that contain them.  The
memory engine also resolves keyword predicates through the index's
``tuple_set`` instead of scanning tables.

Two implementations share the :class:`IndexBackend` protocol: ``memory`` is
the original dict-of-sets :class:`InvertedIndex`, ``sqlite`` is the
disk-backed :class:`SqliteInvertedIndex` whose RAM footprint stays flat at
million-tuple scale and which persists (and repairs per relation) next to
the cache store.  Select one with ``--index-backend`` or
:func:`create_index`.
"""

from repro.index.base import INDEX_NAMES, IndexBackend, create_index
from repro.index.inverted import InvertedIndex
from repro.index.mapper import KeywordMapper, KeywordMapping
from repro.index.sqlite_index import IndexBuildStats, SqliteInvertedIndex

__all__ = [
    "INDEX_NAMES",
    "IndexBackend",
    "IndexBuildStats",
    "InvertedIndex",
    "KeywordMapper",
    "KeywordMapping",
    "SqliteInvertedIndex",
    "create_index",
]
