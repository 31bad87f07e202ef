"""A pure-Python inverted index over the text attributes of a database.

The index is built once per database snapshot (the paper's Lucene indexes
play the same role) and supports the two match modes of
:class:`~repro.relational.predicates.MatchMode`:

* ``TOKEN`` -- direct postings lookup;
* ``SUBSTRING`` -- the paper's ``LIKE '%kw%'``: resolved by scanning the
  vocabulary for tokens containing the keyword and unioning their postings.
  This is exact as long as keywords are single tokens (multi-word input is
  split into separate keywords upstream).

This is the ``memory`` implementation of the
:class:`~repro.index.base.IndexBackend` protocol: every structure is a
Python dict, so lookups cost microseconds but RAM grows linearly with the
dataset (the ``sqlite`` backend is the flat-memory alternative).
"""

from __future__ import annotations

from typing import Iterator

from repro.relational.database import Database
from repro.relational.predicates import MatchMode, tokenize


class InvertedIndex:
    """Token -> relation -> row ids over the text attributes of every table.

    Postings keep no attribute name: the pipeline only asks which rows
    of a relation match a keyword, never where in the row it occurs.
    """

    def __init__(self, database: Database):
        self.database = database
        # token -> relation -> set of row ids
        self._postings: dict[str, dict[str, set[int]]] = {}
        self._build()

    def _build(self) -> None:
        for table in self.database.iter_tables():
            relation = table.relation.name
            for row_id in range(len(table)):
                for _attribute, text in table.text_cells(row_id):
                    for token in tokenize(text):
                        by_relation = self._postings.setdefault(token, {})
                        by_relation.setdefault(relation, set()).add(row_id)

    # --------------------------------------------------------------- lookup
    @property
    def vocabulary_size(self) -> int:
        return len(self._postings)

    def tokens(self) -> Iterator[str]:
        return iter(self._postings)

    def _matching_tokens(self, keyword: str, mode: MatchMode) -> list[str]:
        # casefold, not lower: the index tokens are casefolded by
        # tokenize(), so a lookup normalized any other way ("STRASSE" vs
        # an indexed "straße" -> "strasse") would silently miss.
        needle = keyword.casefold()
        if mode is MatchMode.TOKEN:
            return [needle] if needle in self._postings else []
        return [token for token in self._postings if needle in token]

    def relations_containing(self, keyword: str, mode: MatchMode = MatchMode.TOKEN) -> tuple[str, ...]:
        """Relations with at least one row matching ``keyword`` (sorted)."""
        relations: set[str] = set()
        for token in self._matching_tokens(keyword, mode):
            relations.update(self._postings[token])
        return tuple(sorted(relations))

    def tuple_set(
        self, relation: str, keyword: str, mode: MatchMode = MatchMode.TOKEN
    ) -> frozenset[int]:
        """Row ids of ``relation`` matching ``keyword`` under ``mode``."""
        ids: set[int] = set()
        for token in self._matching_tokens(keyword, mode):
            ids.update(self._postings[token].get(relation, ()))
        return frozenset(ids)

    def close(self) -> None:
        """Nothing to release; present for :class:`IndexBackend` symmetry."""
