"""Typed in-memory tables with hash indexes on join and text columns."""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.relational.schema import Attribute, AttributeType, Relation

Row = tuple[Any, ...]


class TableError(ValueError):
    """Raised on malformed rows or unknown columns."""


def _check_value(attribute: Attribute, value: Any) -> Any:
    """Validate (and lightly coerce) one cell against its attribute type."""
    if value is None:
        return None
    if attribute.type is AttributeType.INTEGER:
        if isinstance(value, bool) or not isinstance(value, int):
            raise TableError(
                f"column {attribute.name!r} expects an integer, got {value!r}"
            )
        return value
    if attribute.type is AttributeType.REAL:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TableError(f"column {attribute.name!r} expects a real, got {value!r}")
        return float(value)
    if not isinstance(value, str):
        raise TableError(f"column {attribute.name!r} expects text, got {value!r}")
    return value


class Table:
    """Rows of one relation, stored as tuples, with lazy hash indexes.

    Join evaluation repeatedly asks "which row ids have value ``v`` in column
    ``c``"; the table builds an index for column ``c`` on first use and keeps
    it until rows change.  Tables are append-mostly: the workloads in this
    repository load data once and then query it, matching the paper's setting
    (the lattice itself is computed offline against a fixed snapshot).
    """

    def __init__(self, relation: Relation, rows: Iterable[Sequence[Any]] = ()):
        self.relation = relation
        # (name, position) of each searchable attribute, resolved once:
        # text_cells runs for every row of every index build.
        self._text_positions = tuple(
            (attribute.name, relation.index_of(attribute.name))
            for attribute in relation.text_attributes
        )
        self._rows: list[Row] = []
        self._indexes: dict[str, dict[Any, list[int]]] = {}
        # Memoized content digest: None while dirty, recomputed lazily by
        # :meth:`fingerprint`.  ``digest_computations`` counts the actual
        # rehashes (the regression tests assert one insert rehashes only
        # the mutated table); the lifetime insert/delete counters feed
        # :class:`~repro.relational.database.DatabaseDelta` direction
        # inference and are *not* part of the content digest.
        self._digest: str | None = None
        self.digest_computations = 0
        self.inserts_total = 0
        self.deletes_total = 0
        self.extend(rows)

    # ----------------------------------------------------------- mutation
    def insert(self, row: Sequence[Any]) -> int:
        """Append one row; returns its row id (position)."""
        attributes = self.relation.attributes
        if len(row) != len(attributes):
            raise TableError(
                f"relation {self.relation.name!r} has {len(attributes)} columns, "
                f"row has {len(row)}"
            )
        checked = tuple(
            _check_value(attribute, value)
            for attribute, value in zip(attributes, row)
        )
        # Invalidate the digest memo on *both* sides of the list append: a
        # concurrent fingerprint() may memoize a pre-append digest between
        # the two clears, and the trailing clear discards it, so any
        # fingerprint() started after insert() returns sees the new row.
        self._digest = None
        self._rows.append(checked)
        self._indexes.clear()
        self._digest = None
        self.inserts_total += 1
        return len(self._rows) - 1

    def delete(self, row_id: int) -> Row:
        """Remove and return the row at position ``row_id``.

        Positions of later rows shift down, so any structure keyed by row
        id (inverted index postings, cached tuple sets) is stale after a
        delete -- sessions over a mutated database must rebuild them
        (:meth:`~repro.core.debugger.NonAnswerDebugger.refresh_after_mutation`).
        """
        if not 0 <= row_id < len(self._rows):
            raise TableError(
                f"relation {self.relation.name!r} has {len(self._rows)} rows, "
                f"no row {row_id}"
            )
        self._digest = None
        removed = self._rows.pop(row_id)
        self._indexes.clear()
        self._digest = None
        self.deletes_total += 1
        return removed

    def insert_dict(self, values: dict[str, Any]) -> int:
        """Append one row given as a ``{column: value}`` mapping.

        Missing columns become ``NULL``; unknown columns raise.
        """
        unknown = set(values) - set(self.relation.attribute_names)
        if unknown:
            raise TableError(
                f"unknown columns for {self.relation.name!r}: {sorted(unknown)}"
            )
        row = tuple(values.get(name) for name in self.relation.attribute_names)
        return self.insert(row)

    def extend(self, rows: Iterable[Sequence[Any]]) -> None:
        for row in rows:
            self.insert(row)

    # -------------------------------------------------------------- access
    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def row(self, row_id: int) -> Row:
        return self._rows[row_id]

    def value(self, row_id: int, column: str) -> Any:
        return self._rows[row_id][self.relation.index_of(column)]

    def column_values(self, column: str) -> list[Any]:
        position = self.relation.index_of(column)
        return [row[position] for row in self._rows]

    def rows_as_dicts(self, row_ids: Iterable[int] | None = None) -> list[dict[str, Any]]:
        names = self.relation.attribute_names
        if row_ids is None:
            return [dict(zip(names, row)) for row in self._rows]
        return [dict(zip(names, self._rows[row_id])) for row_id in row_ids]

    # ------------------------------------------------------------- indexes
    def index_on(self, column: str) -> dict[Any, list[int]]:
        """Hash index ``value -> [row ids]`` for ``column`` (built lazily).

        ``NULL`` values are excluded: a NULL never joins (SQL semantics).
        """
        index = self._indexes.get(column)
        if index is None:
            position = self.relation.index_of(column)
            index = {}
            for row_id, row in enumerate(self._rows):
                value = row[position]
                if value is None:
                    continue
                index.setdefault(value, []).append(row_id)
            self._indexes[column] = index
        return index

    def matching_ids(self, column: str, value: Any) -> list[int]:
        """Row ids whose ``column`` equals ``value`` (empty for NULL)."""
        if value is None:
            return []
        return self.index_on(column).get(value, [])

    def select_ids(self, predicate: Callable[[Row], bool]) -> list[int]:
        """Row ids satisfying an arbitrary row predicate (full scan)."""
        return [row_id for row_id, row in enumerate(self._rows) if predicate(row)]

    def text_cells(self, row_id: int) -> Iterator[tuple[str, str]]:
        """Yield ``(column, text)`` for the searchable cells of one row."""
        row = self._rows[row_id]
        for name, position in self._text_positions:
            value = row[position]
            if value is not None:
                yield name, value

    # --------------------------------------------------------- fingerprint
    def fingerprint(self) -> str:
        """Memoized content hash of this table's rows (hex, stable).

        Two tables of the same relation holding the same rows in the same
        order share a fingerprint regardless of how they were built; any
        :meth:`insert` or :meth:`delete` invalidates the memo, so the
        rehash cost is paid once per mutation burst instead of once per
        call.  The lifetime mutation counters are deliberately excluded:
        identity tracks *content*, the counters only witness direction.
        """
        if self._digest is None:
            hasher = hashlib.sha256()
            hasher.update(
                f"T{self.relation.name}:{len(self._rows)}".encode("utf-8")
            )
            for row in self._rows:
                hasher.update(repr(row).encode("utf-8"))
            self._digest = hasher.hexdigest()
            self.digest_computations += 1
        return self._digest

    def validate_foreign_key(
        self, column: str, parent: "Table", parent_column: str
    ) -> list[int]:
        """Row ids violating ``self.column -> parent.parent_column`` (NULLs pass)."""
        parent_values = set(parent.index_on(parent_column))
        position = self.relation.index_of(column)
        return [
            row_id
            for row_id, row in enumerate(self._rows)
            if row[position] is not None and row[position] not in parent_values
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table({self.relation.name!r}, rows={len(self)})"
