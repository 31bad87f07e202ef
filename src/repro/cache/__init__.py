"""Persistent cross-session caches: one fact per query, one store.

:class:`ProbeCache` is one sqlite file per ``--cache-dir``, keyed by
canonical query code and shared by every session pointed at the
directory.  A node's status is a fact about its SQL query alone (rules
R1/R2), so every node a run probed or inferred is one row under its
query key.  Every row records the database snapshot it was written
under, and a read keeps it by one monotone rule (:func:`fact_survives`)
against the live database, so a write repairs nothing up front.  Any
later run whose graph shares keys replays the surviving rows through
R1/R2 into the status store its traversal starts from, skipping Phase 3
whenever they resolve its graph; the evaluator under the traversal
never reads the file.

See :mod:`repro.cache.store` for the store and its invalidation
semantics, and :mod:`repro.cache.keys` for the canonical key
construction.
"""

from repro.cache.keys import query_cache_key, relations_label
from repro.cache.store import (
    CACHE_FILENAME,
    CACHE_SCHEMA_VERSION,
    ProbeCache,
    ProbeCacheError,
    ProbeCacheStats,
    StatusCache,
    StatusFact,
    StatusLoad,
    clear_cache_dir,
    fact_survives,
    inspect_cache_dir,
    monotone_survives,
)

__all__ = [
    "query_cache_key",
    "relations_label",
    "CACHE_FILENAME",
    "CACHE_SCHEMA_VERSION",
    "ProbeCache",
    "ProbeCacheError",
    "ProbeCacheStats",
    "StatusCache",
    "StatusFact",
    "StatusLoad",
    "clear_cache_dir",
    "fact_survives",
    "inspect_cache_dir",
    "monotone_survives",
]
