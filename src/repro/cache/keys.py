"""Canonical cache keys for bound queries.

The persistent probe cache must recognize "the same query" across
processes, so Python object identity and ``hash()`` (salted per process)
are both useless.  The key is built from the paper's own machinery: the
canonical label of the join tree (Algorithm 2, isomorphism-invariant and
equal iff the trees are equal for copy-labeled trees), the sorted
keyword bindings, and the match mode.  The digest of that tuple is the
row key; the **relation-fingerprint vector** of the query's own join
path (:func:`relation_vector_key`) is the namespace, so a cached answer
can never leak across dataset states -- and, because the vector covers
only the relations the probe actually touches, a mutation to one
relation leaves every probe over the untouched relations warm.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Mapping

from repro.core.canonical import canonical_code
from repro.relational.jointree import BoundQuery
from repro.relational.schema import SchemaGraph


def query_cache_key(query: BoundQuery, schema: SchemaGraph) -> str:
    """Stable hex key for ``query``: equal queries agree across processes.

    Two :class:`BoundQuery` objects that compare equal always map to the
    same key; distinct queries collide only if sha256 does.
    """
    code = canonical_code(query.tree, schema)
    bindings = sorted(
        (instance.relation, instance.copy, keyword)
        for instance, keyword in query.bindings
    )
    payload = repr((code, bindings, query.mode.value))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def relations_label(relations: Iterable[str]) -> str:
    """Sorted, comma-joined relation set -- the form stored next to a row.

    Persisted alongside every cached probe so attach-time repair can
    decide, per row, which mutated relations it touches without
    re-parsing the query.
    """
    return ",".join(sorted(set(relations)))


def relation_vector_key(
    relations: Iterable[str], fingerprints: Mapping[str, str]
) -> str:
    """Digest of the (relation, content-fingerprint) pairs of a join path.

    This is the cache namespace: two dataset states agree on a probe's
    vector key iff every relation the probe touches has identical
    content, so rows over untouched relations stay valid across a
    mutation with no repair work at all.

    Raises ``KeyError`` for a relation absent from ``fingerprints`` --
    callers own the unknown-relation policy (the repair scan evicts).
    """
    payload = "|".join(
        f"{name}:{fingerprints[name]}" for name in sorted(set(relations))
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def workload_cache_key(
    tokens: Iterable[str],
    mode: str,
    max_joins: int,
    max_keywords: int,
    free_copies: int,
) -> str:
    """Stable key for one workload query + lattice configuration.

    Namespaces the status facts :meth:`~repro.cache.ProbeCache.save` persists:
    an "exact repeat" means the same casefolded keyword multiset debugged
    under the same match mode and lattice shape parameters.
    """
    payload = repr(
        (
            sorted(token.casefold() for token in tokens),
            mode,
            max_joins,
            max_keywords,
            free_copies,
        )
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
