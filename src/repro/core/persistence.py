"""Persistence for the offline artifacts and for debug reports.

Phase 0 is "computed offline ... a one-time cost" (§3.1): a production
deployment generates the lattice once and serves queries from it.  This
module round-trips the lattice to JSON so deployments can do exactly that,
and serializes :class:`~repro.core.debugger.DebugReport` objects so the
debugging output can feed dashboards and regression suites.

Formats are plain JSON with a version tag; loaders validate against the
provided schema graph, so a lattice file cannot silently be applied to a
different database.

Writes are **atomic**: content goes to a temporary file in the target
directory first and is moved into place with :func:`os.replace`, so a
crash mid-save leaves either the old artifact or the new one, never a
truncated JSON file.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.core.debugger import DebugReport
from repro.ioutil import atomic_write_text as _atomic_write_text
from repro.core.lattice import Lattice, LatticeStats
from repro.relational.jointree import (
    BoundQuery,
    JoinEdge,
    JoinTree,
    MatchMode,
    RelationInstance,
)
from repro.relational.schema import SchemaGraph

FORMAT_VERSION = 1


class PersistenceError(ValueError):
    """Raised on malformed or mismatched artifact files."""


# ----------------------------------------------------------- tree encoding
def encode_tree(tree: JoinTree) -> dict[str, Any]:
    return {
        "instances": [
            [i.relation, i.copy, i.free] for i in tree.sorted_instances()
        ],
        "edges": [
            [edge.fk, edge.a.relation, edge.a.copy, edge.a.free, edge.a_column,
             edge.b.relation, edge.b.copy, edge.b.free, edge.b_column]
            for edge in sorted(
                tree.edges, key=lambda e: (e.a, e.a_column, e.b, e.b_column)
            )
        ],
    }


def decode_tree(payload: dict[str, Any]) -> JoinTree:
    try:
        instances = frozenset(
            RelationInstance(relation, copy, free)
            for relation, copy, free in payload["instances"]
        )
        edges = frozenset(
            JoinEdge(
                fk,
                RelationInstance(a_rel, a_copy, a_free),
                a_col,
                RelationInstance(b_rel, b_copy, b_free),
                b_col,
            )
            for fk, a_rel, a_copy, a_free, a_col,
                b_rel, b_copy, b_free, b_col in payload["edges"]
        )
        return JoinTree(instances, edges)
    except (KeyError, TypeError, ValueError) as exc:
        raise PersistenceError(f"malformed join tree payload: {exc}") from exc


def encode_query(query: BoundQuery) -> dict[str, Any]:
    return {
        "tree": encode_tree(query.tree),
        "bindings": [
            [instance.relation, instance.copy, keyword]
            for instance, keyword in sorted(query.bindings)
        ],  # bound instances are never free, so no flag is needed here
        "mode": query.mode.value,
    }


def decode_query(payload: dict[str, Any]) -> BoundQuery:
    """Inverse of :func:`encode_query`; raises :class:`PersistenceError`."""
    try:
        tree = decode_tree(payload["tree"])
        bindings = frozenset(
            (RelationInstance(relation, copy), keyword)
            for relation, copy, keyword in payload["bindings"]
        )
        mode = MatchMode(payload["mode"])
        return BoundQuery(tree, bindings, mode)
    except PersistenceError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise PersistenceError(f"malformed bound query payload: {exc}") from exc


# -------------------------------------------------------- lattice save/load
def save_lattice(lattice: Lattice, path: str | Path) -> None:
    """Write a lattice (trees, stats, config) as JSON."""
    stats = lattice.stats
    payload = {
        "format": FORMAT_VERSION,
        "kind": "lattice",
        "max_joins": lattice.max_joins,
        "max_keywords": lattice.max_keywords,
        "distinct_slots": lattice.distinct_slots,
        "free_copies": lattice.free_copies,
        "relations": sorted(lattice.schema.relations),
        "foreign_keys": sorted(lattice.schema.foreign_keys),
        "nodes": [{"tree": encode_tree(tree)} for tree in lattice],
        "stats": {
            "levels": stats.levels,
            "nodes_per_level": stats.nodes_per_level,
            "duplicates_per_level": stats.duplicates_per_level,
            "time_per_level": stats.time_per_level,
        }
        if stats
        else None,
    }
    _atomic_write_text(path, json.dumps(payload))


def _read_artifact(path: str | Path, kind: str) -> dict[str, Any]:
    """The JSON object in ``path``, checked to be a current ``kind`` file."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise PersistenceError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise PersistenceError(f"{path} is not a JSON object")
    if payload.get("kind") != kind or payload.get("format") != FORMAT_VERSION:
        raise PersistenceError(
            f"{path} is not a v{FORMAT_VERSION} {kind.replace('_', ' ')} file"
        )
    return payload


def load_lattice(path: str | Path, schema: SchemaGraph) -> Lattice:
    """Read a lattice saved by :func:`save_lattice`.

    The file's relation/foreign-key names must match ``schema`` exactly;
    the trees keep their saved order.  Files that still carry each node's
    ``parents`` load too: the key is ignored.
    """
    payload = _read_artifact(path, "lattice")
    try:
        if payload["relations"] != sorted(schema.relations) or payload[
            "foreign_keys"
        ] != sorted(schema.foreign_keys):
            raise PersistenceError(
                f"{path} was generated for a different schema graph"
            )
        stats = payload.get("stats")
        return Lattice.from_trees(
            schema,
            payload["max_joins"],
            [decode_tree(entry["tree"]) for entry in payload["nodes"]],
            max_keywords=payload["max_keywords"],
            distinct_slots=payload["distinct_slots"],
            free_copies=payload["free_copies"],
            stats=LatticeStats(
                stats["levels"],
                stats["nodes_per_level"],
                stats["duplicates_per_level"],
                stats["time_per_level"],
            )
            if stats
            else None,
        )
    except PersistenceError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise PersistenceError(f"corrupt lattice file {path}: {exc}") from exc


# -------------------------------------------------------- report export
def report_to_dict(report: DebugReport) -> dict[str, Any]:
    """A JSON-ready summary of one debugging run."""
    payload: dict[str, Any] = {
        "format": FORMAT_VERSION,
        "kind": "debug_report",
        "query": report.query,
        "keywords": list(report.mapping.keywords),
        "missing_keywords": list(report.mapping.missing_keywords),
        "aborted": report.aborted,
        "interpretations": len(report.mapping.interpretations),
        "mtn_count": report.mtn_count,
        "timings": {
            "keyword_mapping": report.timings.keyword_mapping,
            "lattice_pruning": report.timings.lattice_pruning,
            "mtn_discovery": report.timings.mtn_discovery,
            "traversal": report.timings.traversal,
        },
    }
    if report.traversal is not None:
        payload["answers"] = [encode_query(q) for q in report.answers()]
        payload["non_answers"] = [
            {
                "query": encode_query(query),
                "mpans": [encode_query(m) for m in mpans],
            }
            for query, mpans in report.explanations()
        ]
        payload["sql_queries_executed"] = report.traversal.stats.queries_executed
        payload["strategy"] = report.traversal.strategy
    return payload


def save_report(report: DebugReport, path: str | Path) -> None:
    _atomic_write_text(path, json.dumps(report_to_dict(report), indent=2))


def load_report(path: str | Path) -> dict[str, Any]:
    """Read and validate a report saved by :func:`save_report`.

    Returns the payload dict with every embedded query decoded in place:
    ``answers`` becomes a list of :class:`BoundQuery`, and each
    ``non_answers`` entry becomes ``{"query": BoundQuery, "mpans":
    [BoundQuery, ...]}``.  Raises :class:`PersistenceError` on anything
    that is not a well-formed current-version debug report, so a
    round-trip failure is loud.
    """
    payload = _read_artifact(path, "debug_report")
    for key in (
        "query",
        "keywords",
        "missing_keywords",
        "aborted",
        "interpretations",
        "mtn_count",
        "timings",
    ):
        if key not in payload:
            raise PersistenceError(f"{path} is missing report field {key!r}")
    if "answers" in payload:
        payload["answers"] = [decode_query(q) for q in payload["answers"]]
    if "non_answers" in payload:
        payload["non_answers"] = [
            {
                "query": decode_query(entry["query"]),
                "mpans": [decode_query(m) for m in entry["mpans"]],
            }
            for entry in payload["non_answers"]
        ]
    return payload
