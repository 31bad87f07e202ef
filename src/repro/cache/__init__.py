"""Persistent cross-session caches: one store for probes and status facts.

Two tiers serve aliveness probes before the backend does:

* **L1** -- the evaluator's bounded in-process LRU (what the paper calls
  *reuse*), per evaluator, dies with the process;
* **L2** -- :class:`ProbeCache`, one sqlite file per ``--cache-dir``
  keyed by canonical query code + the relation-fingerprint vector of the
  probed join path, shared by every session pointed at the directory.

The same file persists whole-run classification facts per workload, so
an exact repeat skips Phase 3 and a mutated repeat pre-seeds the status
store with everything still provable.  Mutations are *repaired* by one
monotone rule (:func:`monotone_survives`), not nuked.

See :mod:`repro.cache.store` for the store and its invalidation
semantics, and :mod:`repro.cache.keys` for the canonical key
construction.
"""

from repro.cache.keys import (
    query_cache_key,
    relation_vector_key,
    relations_label,
    workload_cache_key,
)
from repro.cache.store import (
    CACHE_FILENAME,
    CACHE_SCHEMA_VERSION,
    ProbeCache,
    ProbeCacheError,
    ProbeCacheStats,
    RepairReport,
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
    "relation_vector_key",
    "relations_label",
    "workload_cache_key",
    "CACHE_FILENAME",
    "CACHE_SCHEMA_VERSION",
    "ProbeCache",
    "ProbeCacheError",
    "ProbeCacheStats",
    "RepairReport",
    "StatusCache",
    "StatusFact",
    "StatusLoad",
    "clear_cache_dir",
    "fact_survives",
    "inspect_cache_dir",
    "monotone_survives",
]
