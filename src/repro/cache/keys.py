"""Canonical cache keys for bound queries.

The persistent probe cache must recognize "the same query" across
processes, so Python object identity and ``hash()`` (salted per process)
are both useless.  The key is built from the paper's own machinery: the
canonical label of the join tree (Algorithm 2, isomorphism-invariant and
equal iff the trees are equal for copy-labeled trees), the sorted
keyword bindings, and the match mode.  The digest of that tuple is the
row key, for an executed probe and for a status Phase 3 inferred alike:
the key names the query, wherever in whichever graph it occurs.  Dataset
state is not part of it: each row records the snapshot it was written
under, and the store judges the row against the live database at read
time (:mod:`repro.cache.store`).
"""

from __future__ import annotations

import hashlib
from typing import Iterable

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

    Persisted alongside every cached probe so a read can decide which
    changed relations the row touches without re-parsing the query.
    """
    return ",".join(sorted(set(relations)))

