"""Keyword predicates applied to the text attributes of a relation instance.

The paper instantiates each lattice node's WHERE clause with predicates of the
form ``R.a LIKE '%kw%'`` (substring match) while mapping keywords to tables
through a Lucene index (token match).  Both semantics are supported here and
selected by :class:`MatchMode`; the inverted index and the executors must be
configured with the *same* mode so that "keyword k maps to relation R" and
"the predicate on R matches at least one row" stay consistent.

Every engine matches through :func:`tokenize` and :func:`cell_matches`.
The in-memory engine reads the inverted index's tuple sets (or scans).
The sqlite backend answers TOKEN predicates from postings tables filled
from that same index, and SUBSTRING predicates through a
``SUBSTRING_MATCH`` SQL function that calls :func:`cell_matches`.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from functools import lru_cache

_TOKEN_PATTERN = re.compile(r"[a-z0-9]+")


class MatchMode(enum.Enum):
    """How a keyword matches a text cell."""

    TOKEN = "token"
    """Whole-token match after casefolding and splitting on non-alphanumerics.

    Matches the behaviour of the inverted index and is the default.
    """

    SUBSTRING = "substring"
    """Case-insensitive substring match -- the paper's ``LIKE '%kw%'``."""


def tokenize(text: str) -> list[str]:
    """Casefolded alphanumeric tokens of ``text``.

    This is the single tokenizer shared by the inverted index, the predicates
    and the dataset generators, so all components agree on what a keyword is.
    ``str.casefold()``, not ``str.lower()``: full Unicode case folding is
    what makes "STRASSE" and "straße" the same token ("strasse"), where
    lowercasing leaves the latter as "straße" and the two never meet.
    """
    return _TOKEN_PATTERN.findall(text.casefold())


@lru_cache(maxsize=4096)
def _normalized(keyword: str) -> str:
    return keyword.casefold()


def cell_matches(keyword: str, text: str, mode: MatchMode) -> bool:
    """True if ``keyword`` matches one text cell under ``mode``."""
    needle = _normalized(keyword)
    if mode is MatchMode.SUBSTRING:
        return needle in text.casefold()
    return needle in tokenize(text)


@dataclass(frozen=True)
class KeywordPredicate:
    """``keyword`` must occur in at least one searchable attribute of a row.

    This is the disjunction the paper writes as
    ``R.a1 LIKE '%kw%' OR R.a2 LIKE '%kw%' OR ...`` over the text attributes
    of ``R``.  The predicate is attached to a relation *instance* of a join
    tree, not to the relation itself, because two instances of the same
    relation can carry different keywords.
    """

    keyword: str
    mode: MatchMode = MatchMode.TOKEN

    def __post_init__(self) -> None:
        if not self.keyword or not self.keyword.strip():
            raise ValueError("keyword predicate requires a non-empty keyword")

    def matches_row(self, cells: list[tuple[str, str]]) -> bool:
        """Evaluate against ``(column, text)`` pairs of one row."""
        return any(cell_matches(self.keyword, text, self.mode) for _, text in cells)

    def sql_condition(self, alias: str, columns: tuple[str, ...]) -> str:
        """Render the SUBSTRING-mode disjunction as a SQL condition for ``alias``.

        Each column is tested by ``SUBSTRING_MATCH``, a SQL function the
        sqlite backend registers that delegates to :func:`cell_matches`, so
        the Python engine and the SQL backend share one matching semantics
        -- including Unicode case folding, which sqlite's ASCII-only
        ``LOWER()``/``LIKE`` cannot express (the paper's ``LIKE '%kw%'``
        form survives in spirit as the substring semantics of
        :func:`cell_matches`).  TOKEN mode has no per-row form: it reads the
        sqlite mirror's postings tables
        (:func:`repro.relational.sql.render_keyword_condition`).
        """
        if self.mode is not MatchMode.SUBSTRING:
            raise ValueError(
                "token-mode predicates render against the postings tables; "
                "use repro.relational.sql.render_keyword_condition"
            )
        if not columns:
            return "0 = 1"
        from repro.relational.identifiers import quote_identifier

        escaped = self.keyword.replace("'", "''")
        quoted_alias = quote_identifier(alias)
        parts = [
            f"SUBSTRING_MATCH('{escaped.casefold()}', "
            f"{quoted_alias}.{quote_identifier(column)})"
            for column in columns
        ]
        return "(" + " OR ".join(parts) + ")"
