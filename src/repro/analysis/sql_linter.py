"""Static SQL checks: reserved-identifier scanning and prepare dry-runs.

``SQL001`` scans rendered statements for *bare* reserved words that are not
part of the fixed grammar the renderers emit (``SELECT``, ``FROM``, ...).
Because schema names route through
:func:`repro.relational.identifiers.quote_identifier`, a reserved relation
or column renders double-quoted; any bare reserved word outside the allowed
grammar therefore marks a rendering site that bypassed quoting.

``SQL002`` compiles every statement with sqlite's prepare step -- via
``EXPLAIN`` on a ``:memory:`` database holding the schema's DDL, the
mirror's postings tables and foreign-key indexes, and *no data* -- so a
statement that cannot execute verbatim is a build-time diagnostic rather
than a runtime failure.  It covers the DDL itself, each lattice tree's
Phase-0 template, and each tree's executed probe
(:func:`~repro.relational.sql.render_exists_probe`) in both match modes.
"""

from __future__ import annotations

import re
import sqlite3
from typing import Iterable

from repro.analysis.diagnostics import Diagnostic, DiagnosticReport
from repro.core.lattice import Lattice
from repro.relational.identifiers import RESERVED_WORDS
from repro.relational.jointree import BoundQuery
from repro.relational.predicates import MatchMode
from repro.relational.sql import (
    render_access_path_ddl,
    render_ddl,
    render_exists_probe,
    render_template,
)
from repro.relational.schema import SchemaGraph

#: Reserved words the SQL renderers legitimately emit bare, as grammar.
GRAMMAR_KEYWORDS: frozenset[str] = frozenset(
    {
        "SELECT", "FROM", "WHERE", "AS", "AND", "OR", "LIKE", "LIMIT",
        "CREATE", "TABLE", "INSERT", "INTO", "VALUES", "NOT", "NULL",
        "IS", "EXPLAIN", "EXISTS", "IN", "INDEX", "ON", "PRIMARY", "KEY",
        "WITHOUT",
    }
)

#: The keyword bound to every keyword slot when the probes are prepared;
#: a single token, so TOKEN mode renders its postings lookup.
PROBE_KEYWORD = "kw"

_STRING_LITERAL = re.compile(r"'(?:[^']|'')*'")
_QUOTED_IDENTIFIER = re.compile(r'"(?:[^"]|"")*"')
_BARE_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _substring_match_stub(keyword: object, text: object) -> int:
    """Prepare-time stand-in for the backend's SUBSTRING_MATCH function."""
    return 0


def find_unquoted_reserved(sql: str) -> list[str]:
    """Bare reserved words in ``sql`` that are not grammar keywords.

    String literals and double-quoted identifiers are stripped first, so a
    properly quoted ``"order"`` never triggers and neither does a keyword
    inside a LIKE pattern.
    """
    stripped = _STRING_LITERAL.sub(" ", sql)
    stripped = _QUOTED_IDENTIFIER.sub(" ", stripped)
    offenders = []
    for word in _BARE_WORD.findall(stripped):
        upper = word.upper()
        if upper in RESERVED_WORDS and upper not in GRAMMAR_KEYWORDS:
            offenders.append(word)
    return offenders


class SqlDryRunner:
    """Prepare-only SQL validation against a schema with no data loaded."""

    def __init__(self, schema: SchemaGraph):
        self.schema = schema
        self.connection = sqlite3.connect(":memory:")
        # SUBSTRING predicates call SUBSTRING_MATCH; sqlite resolves
        # functions at prepare time, so register a stub for the dry run.
        self.connection.create_function(
            "SUBSTRING_MATCH", 2, _substring_match_stub
        )
        # The same statements the sqlite engine loads its mirror with.
        for statement in render_ddl(schema) + render_access_path_ddl(schema):
            self.connection.execute(statement)

    def prepare_error(self, sql: str) -> str | None:
        """The sqlite compile error for ``sql``, or ``None`` if it prepares."""
        try:
            # EXPLAIN compiles the statement to bytecode without running it
            # against any rows -- the closest sqlite3 offers to a bare
            # prepare() -- and is cheap on an empty database.
            self.connection.execute(f"EXPLAIN {sql}")
        except sqlite3.Error as exc:
            return str(exc)
        return None

    def close(self) -> None:
        self.connection.close()

    def __enter__(self) -> "SqlDryRunner":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def lint_statements(
    statements: Iterable[tuple[str, str]], schema: SchemaGraph
) -> DiagnosticReport:
    """Run SQL001 + SQL002 over ``(location, sql)`` pairs."""
    report = DiagnosticReport()
    with SqlDryRunner(schema) as runner:
        for location, sql in statements:
            for offender in find_unquoted_reserved(sql):
                report.add(
                    Diagnostic(
                        "SQL001",
                        f"reserved word {offender!r} appears as a bare "
                        f"identifier",
                        location,
                        hint="route identifiers through quote_identifier()",
                    )
                )
            error = runner.prepare_error(sql)
            if error is not None:
                report.add(
                    Diagnostic(
                        "SQL002",
                        f"sqlite cannot prepare the statement: {error}",
                        location,
                        hint=f"generated SQL was: {sql}",
                    )
                )
    return report


def lint_ddl(schema: SchemaGraph) -> DiagnosticReport:
    """Verify the mirror's DDL on a fresh database.

    The schema's CREATE TABLE statements come first, then the postings
    tables and foreign-key indexes, numbered on from them.
    """
    report = DiagnosticReport()
    connection = sqlite3.connect(":memory:")
    try:
        statements = render_ddl(schema) + render_access_path_ddl(schema)
        for index, statement in enumerate(statements):
            location = f"ddl statement {index}"
            for offender in find_unquoted_reserved(statement):
                report.add(
                    Diagnostic(
                        "SQL001",
                        f"reserved word {offender!r} appears as a bare "
                        f"identifier",
                        location,
                        hint="route identifiers through quote_identifier()",
                    )
                )
            try:
                connection.execute(statement)
            except sqlite3.Error as exc:
                report.add(
                    Diagnostic(
                        "SQL002",
                        f"sqlite rejects the DDL: {exc}",
                        location,
                        hint=f"generated SQL was: {statement}",
                    )
                )
    finally:
        connection.close()
    return report


def lint_lattice_templates(lattice: Lattice) -> DiagnosticReport:
    """Dry-run every lattice tree's SQL template through sqlite's prepare.

    ``?kw`` placeholders live inside string literals, so templates are
    complete statements; each must compile verbatim (acceptance criterion
    for the sqlite cross-check backend).
    """

    def statements() -> Iterable[tuple[str, str]]:
        for position, tree in enumerate(lattice):
            yield (
                f"template of lattice tree {position}",
                render_template(tree, lattice.schema),
            )

    return lint_statements(statements(), lattice.schema)


def lint_lattice_probes(lattice: Lattice) -> DiagnosticReport:
    """Dry-run every lattice tree's executed probe, in both match modes.

    Each keyword slot of the tree is bound to :data:`PROBE_KEYWORD` and the
    query is rendered as the ``SELECT EXISTS`` probe the sqlite backend
    runs (:func:`~repro.relational.sql.render_exists_probe`): nested ``IN``
    semi-joins for a tree with a same-row fan-in
    (:func:`~repro.relational.sql.has_same_row_fan_in`), the flat join for
    every other tree.  Keywords are the postings lookup in TOKEN mode and
    ``SUBSTRING_MATCH`` in SUBSTRING mode.
    """

    def statements() -> Iterable[tuple[str, str]]:
        for position, tree in enumerate(lattice):
            slots = {
                instance: PROBE_KEYWORD
                for instance in tree.instances
                if not instance.is_free
            }
            for mode in MatchMode:
                query = BoundQuery.from_mapping(tree, slots, mode)
                yield (
                    f"{mode.value}-mode probe of lattice tree {position}",
                    render_exists_probe(query, lattice.schema),
                )

    return lint_statements(statements(), lattice.schema)
