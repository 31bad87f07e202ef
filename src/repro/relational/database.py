"""A database instance: one table per relation of a schema graph."""

from __future__ import annotations

import enum
import hashlib
import itertools
import os
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.relational.schema import SchemaError, SchemaGraph
from repro.relational.table import Table

#: Distinguishes Database instances built in the same process; combined
#: with the pid it yields a lineage token unique across the processes
#: sharing one cache file.
_LINEAGE_IDS = itertools.count()


class IntegrityError(ValueError):
    """Raised by :meth:`Database.validate` on foreign-key violations."""


class MutationDirection(enum.Enum):
    """How a relation's content moved between two snapshots.

    The direction is what lets a cached answer outlive a write instead of
    being discarded: an insert can only flip a probe dead -> alive
    (monotone upward through rule R2), a delete only alive -> dead, so
    knowing the direction tells exactly which cached answers survive.
    ``MIXED`` covers both genuine interleavings and the cases where
    direction cannot be proven (foreign lineage, counter regressions) --
    the safe fallback is that no answer through the relation survives.
    """

    INSERT_ONLY = "insert_only"
    DELETE_ONLY = "delete_only"
    MIXED = "mixed"


@dataclass(frozen=True)
class RelationState:
    """Identity of one relation at snapshot time."""

    relation: str
    fingerprint: str
    row_count: int
    inserts_total: int
    deletes_total: int


@dataclass(frozen=True)
class DatabaseSnapshot:
    """Per-relation fingerprints plus the composite, frozen at one moment.

    ``lineage`` identifies the live :class:`Database` object the snapshot
    was taken from: mutation counters are only comparable within one
    lineage (a rebuilt database restarts them), so
    :meth:`DatabaseDelta.between` downgrades cross-lineage changes to
    ``MIXED`` rather than guessing a direction.
    """

    composite: str
    lineage: str
    relations: tuple[RelationState, ...]

    def by_relation(self) -> dict[str, RelationState]:
        return {state.relation: state for state in self.relations}


@dataclass(frozen=True)
class DatabaseDelta:
    """Which relations changed between two snapshots, and in which direction."""

    old_composite: str
    new_composite: str
    directions: Mapping[str, MutationDirection]

    @property
    def empty(self) -> bool:
        return not self.directions

    @property
    def mutated_relations(self) -> frozenset[str]:
        return frozenset(self.directions)

    def direction_of(self, relation: str) -> MutationDirection | None:
        """Direction for ``relation``, or None when it did not change."""
        return self.directions.get(relation)

    @staticmethod
    def between(old: DatabaseSnapshot, new: DatabaseSnapshot) -> "DatabaseDelta":
        """Compare two snapshots relation by relation.

        A relation whose content fingerprint is unchanged is absent from
        the delta even if its counters moved (insert-then-delete of the
        same row restores identical content, and identity tracks
        content).  Directions are inferred from the monotone counters
        only when both snapshots come from the same lineage and the
        counters moved along exactly one axis; anything else is
        ``MIXED``.
        """
        directions: dict[str, MutationDirection] = {}
        old_states = old.by_relation()
        same_lineage = old.lineage == new.lineage
        for state in new.relations:
            before = old_states.get(state.relation)
            if before is None:
                directions[state.relation] = MutationDirection.MIXED
                continue
            if before.fingerprint == state.fingerprint:
                continue
            if not same_lineage:
                directions[state.relation] = MutationDirection.MIXED
            elif (
                state.inserts_total > before.inserts_total
                and state.deletes_total == before.deletes_total
            ):
                directions[state.relation] = MutationDirection.INSERT_ONLY
            elif (
                state.deletes_total > before.deletes_total
                and state.inserts_total == before.inserts_total
            ):
                directions[state.relation] = MutationDirection.DELETE_ONLY
            else:
                directions[state.relation] = MutationDirection.MIXED
        new_names = {state.relation for state in new.relations}
        for state in old.relations:
            if state.relation not in new_names:
                directions[state.relation] = MutationDirection.MIXED
        return DatabaseDelta(
            old_composite=old.composite,
            new_composite=new.composite,
            directions=directions,
        )


class Database:
    """Tables for every relation of a frozen :class:`SchemaGraph`.

    The database owns the data that both executors (the in-memory engine and
    the sqlite3 backend) and the inverted index read.  It has no update log
    or transactions, but it *does* track identity at the granularity that
    invalidation needs: every table memoizes its own content fingerprint
    (invalidated by that table's mutations only) and the composite
    :meth:`fingerprint` is derived from the per-relation digests, so one
    insert into ``publication`` never forces ``person`` to rehash -- and
    never invalidates a cached answer that only touches ``person``.
    """

    def __init__(self, schema: SchemaGraph):
        if not schema.frozen:
            raise SchemaError("database requires a frozen schema graph")
        self.schema = schema
        self.tables: dict[str, Table] = {
            name: Table(relation) for name, relation in schema.relations.items()
        }
        self.lineage = f"{os.getpid()}.{next(_LINEAGE_IDS)}"
        self._schema_digest: str | None = None
        # The last snapshot and the mutation counters it was taken at.
        self._snapshot: tuple[list[tuple[int, int]], DatabaseSnapshot] | None = None

    # -------------------------------------------------------------- loading
    def table(self, relation: str) -> Table:
        try:
            return self.tables[relation]
        except KeyError:
            raise SchemaError(f"unknown relation {relation!r}") from None

    def insert(self, relation: str, row: Sequence[Any]) -> int:
        return self.table(relation).insert(row)

    def insert_dict(self, relation: str, values: Mapping[str, Any]) -> int:
        return self.table(relation).insert_dict(dict(values))

    def delete(self, relation: str, row_id: int) -> tuple[Any, ...]:
        """Remove and return one row of ``relation`` by position."""
        return self.table(relation).delete(row_id)

    def load(self, data: Mapping[str, Iterable[Sequence[Any]]]) -> None:
        """Bulk-load ``{relation: rows}``."""
        for relation, rows in data.items():
            self.table(relation).extend(rows)

    # -------------------------------------------------------------- queries
    def __len__(self) -> int:
        """Total number of tuples across all tables."""
        return sum(len(table) for table in self.tables.values())

    def iter_tables(self) -> Iterator[Table]:
        for name in sorted(self.tables):
            yield self.tables[name]

    def cardinalities(self) -> dict[str, int]:
        return {name: len(self.tables[name]) for name in sorted(self.tables)}

    def validate(self) -> None:
        """Check every declared foreign key; raise on the first violation."""
        for foreign_key in self.schema.foreign_keys.values():
            child = self.table(foreign_key.child)
            parent = self.table(foreign_key.parent)
            violations = child.validate_foreign_key(
                foreign_key.child_column, parent, foreign_key.parent_column
            )
            if violations:
                raise IntegrityError(
                    f"foreign key {foreign_key.name!r} violated by "
                    f"{len(violations)} row(s) of {foreign_key.child!r} "
                    f"(first row id: {violations[0]})"
                )

    # --------------------------------------------------------- fingerprints
    def schema_digest(self) -> str:
        """Content hash of the schema (relations, attributes, foreign keys).

        The schema graph is frozen, so this is computed once and memoized.
        """
        if self._schema_digest is None:
            hasher = hashlib.sha256()
            for name in sorted(self.schema.relations):
                relation = self.schema.relations[name]
                hasher.update(b"R")
                hasher.update(name.encode("utf-8"))
                for attribute in relation.attributes:
                    hasher.update(
                        f"|{attribute.name}:{attribute.type.value}".encode("utf-8")
                    )
            for fk_name in sorted(self.schema.foreign_keys):
                foreign_key = self.schema.foreign_keys[fk_name]
                hasher.update(
                    f"F{fk_name}:{foreign_key.child}.{foreign_key.child_column}"
                    f"->{foreign_key.parent}.{foreign_key.parent_column}".encode(
                        "utf-8"
                    )
                )
            self._schema_digest = hasher.hexdigest()
        return self._schema_digest

    def relation_fingerprints(self) -> dict[str, str]:
        """Per-relation content digests (memoized per table, sorted keys).

        The cache store compares them between snapshots: a cached answer
        touching relations ``{person}`` stays valid across any mutation
        that leaves ``person``'s digest unchanged.
        """
        return {
            name: self.tables[name].fingerprint() for name in sorted(self.tables)
        }

    def fingerprint(self) -> str:
        """Composite content hash of the schema and every tuple (hex, stable).

        Derived from the memoized per-relation digests
        (:meth:`relation_fingerprints`), so repeated calls after a single
        insert rehash only the mutated table; two databases with the same
        schema and the same rows -- regardless of how they were built --
        share a fingerprint.
        """
        hasher = hashlib.sha256()
        hasher.update(self.schema_digest().encode("utf-8"))
        for name, digest in self.relation_fingerprints().items():
            hasher.update(f"|{name}:{digest}".encode("utf-8"))
        return hasher.hexdigest()

    def snapshot(self) -> DatabaseSnapshot:
        """Freeze the identity vector (composite + per-relation states).

        Memoized on the tables' insert/delete counters, which every
        mutation bumps after changing the rows: a call returns the same
        object until the next mutation completes.  The counters are read
        before the states are built, so a mutation racing the build only
        costs a rebuild on the next call.
        """
        counters = [
            (table.inserts_total, table.deletes_total)
            for table in self.tables.values()
        ]
        memo = self._snapshot  # one read: another thread may replace it
        if memo is not None and memo[0] == counters:
            return memo[1]
        states = tuple(
            RelationState(
                relation=name,
                fingerprint=table.fingerprint(),
                row_count=len(table),
                inserts_total=table.inserts_total,
                deletes_total=table.deletes_total,
            )
            for name, table in ((n, self.tables[n]) for n in sorted(self.tables))
        )
        snapshot = DatabaseSnapshot(
            composite=self.fingerprint(), lineage=self.lineage, relations=states
        )
        self._snapshot = (counters, snapshot)
        return snapshot

    def summary(self) -> str:
        """Human-readable one-line-per-table summary."""
        lines = [f"Database: {len(self.tables)} tables, {len(self)} tuples"]
        for name in sorted(self.tables):
            lines.append(f"  {name:<24} {len(self.tables[name]):>8} rows")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Database(tables={len(self.tables)}, tuples={len(self)})"
