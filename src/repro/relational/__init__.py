"""Relational substrate: schema graph, in-memory tables, and join execution.

This package is the stand-in for the PostgreSQL instance used in the paper's
evaluation.  It provides:

* :mod:`repro.relational.schema` -- relations, attributes, and the
  key-foreign-key **schema graph** that drives lattice generation.
* :mod:`repro.relational.table` / :mod:`repro.relational.database` -- typed
  in-memory storage with hash indexes on join columns.
* :mod:`repro.relational.jointree` -- the join-tree query representation
  shared by the lattice and the executors.
* :mod:`repro.relational.engine` -- acyclic join evaluation with
  Yannakakis-style semi-join emptiness checks.
* :mod:`repro.relational.sql` -- SQL text generation for join trees.
* :mod:`repro.relational.sqlite_backend` -- executes the generated SQL on a
  stdlib ``sqlite3`` database behind a bounded connection pool, for
  cross-checking the in-memory engine.
* :mod:`repro.relational.evaluator` -- the instrumented evaluation facade
  (query counter, timings, in-process probe cache) that every traversal
  strategy talks to.

The backend protocols and the engine factory live in :mod:`repro.backends`;
the persistent cache store lives in :mod:`repro.cache`.
"""

from repro.relational.schema import (
    Attribute,
    AttributeType,
    ForeignKey,
    Relation,
    SchemaGraph,
)
from repro.relational.table import Table
from repro.relational.database import Database
from repro.relational.jointree import JoinEdge, JoinTree, RelationInstance
from repro.relational.predicates import KeywordPredicate, MatchMode
from repro.relational.engine import InMemoryEngine
from repro.relational.sql import render_sql, render_template
from repro.relational.sqlite_backend import SqliteEngine
from repro.relational.evaluator import (
    AlivenessBackend,
    EvaluationStats,
    InstrumentedEvaluator,
)

__all__ = [
    "Attribute",
    "AttributeType",
    "ForeignKey",
    "Relation",
    "SchemaGraph",
    "Table",
    "Database",
    "JoinEdge",
    "JoinTree",
    "RelationInstance",
    "KeywordPredicate",
    "MatchMode",
    "InMemoryEngine",
    "render_sql",
    "render_template",
    "SqliteEngine",
    "AlivenessBackend",
    "EvaluationStats",
    "InstrumentedEvaluator",
]
