"""SQL linter tests: identifier quoting, SQL001 scanning, prepare dry-runs.

Includes the reserved-word regression: a schema whose relations and columns
are named ``order``/``group``/``limit`` must survive rendering, linting,
and actual execution on the sqlite backend.
"""

from __future__ import annotations

import re

import pytest

from repro.analysis import (
    SqlDryRunner,
    find_unquoted_reserved,
    lint_built_lattice,
    lint_ddl,
    lint_lattice_probes,
    lint_lattice_templates,
)
from repro.core.lattice import generate_lattice
from repro.relational.database import Database
from repro.relational.identifiers import (
    is_reserved,
    needs_quoting,
    quote_identifier,
)
from repro.relational.jointree import BoundQuery, JoinEdge, JoinTree, RelationInstance
from repro.relational.predicates import MatchMode
from repro.relational.schema import (
    Attribute,
    AttributeType,
    ForeignKey,
    Relation,
    SchemaGraph,
)
from repro.relational.sql import (
    has_same_row_fan_in,
    render_access_path_ddl,
    render_ddl,
    render_sql,
    render_template,
)
from repro.relational.sqlite_backend import SqliteEngine

#: A child subquery of the semi-join probe form (``parent.col IN (SELECT
#: child.col FROM ...``); a postings lookup selects the bare ``value``.
SEMI_JOIN = re.compile(r"\.\w+ IN \(SELECT \w+\.\w+ FROM ")


class TestQuoteIdentifier:
    def test_plain_names_unchanged(self):
        assert quote_identifier("Person") == "Person"
        assert quote_identifier("person_id") == "person_id"

    def test_reserved_words_quoted(self):
        assert quote_identifier("order") == '"order"'
        assert quote_identifier("GROUP") == '"GROUP"'
        assert quote_identifier("Limit") == '"Limit"'

    def test_non_identifier_shapes_quoted(self):
        assert quote_identifier("2fast") == '"2fast"'

    def test_predicates(self):
        assert is_reserved("select")
        assert not is_reserved("person")
        assert needs_quoting("index")
        assert not needs_quoting("idx")


@pytest.fixture(scope="module")
def reserved_schema():
    """Relations and columns deliberately named with SQL reserved words."""
    return SchemaGraph.build(
        [
            Relation(
                "order",
                (
                    Attribute("id", AttributeType.INTEGER),
                    Attribute("group", AttributeType.INTEGER),
                    Attribute("limit", AttributeType.TEXT),
                ),
            ),
            Relation(
                "group",
                (
                    Attribute("id", AttributeType.INTEGER),
                    Attribute("select", AttributeType.TEXT),
                ),
            ),
        ],
        [ForeignKey("order_group", "order", "group", "group", "id")],
    )


@pytest.fixture(scope="module")
def reserved_query(reserved_schema):
    fk = reserved_schema.foreign_key("order_group")
    order, group = RelationInstance("order", 1), RelationInstance("group", 2)
    tree = JoinTree(
        frozenset([order, group]), frozenset([JoinEdge.from_fk(fk, order, group)])
    )
    return BoundQuery.from_mapping(
        tree, {group: "vip"}, MatchMode.SUBSTRING
    )


class TestReservedWordSchema:
    def test_ddl_quotes_and_executes(self, reserved_schema):
        statements = render_ddl(reserved_schema)
        assert 'CREATE TABLE "order"' in statements[1]
        assert '"group" INTEGER' in statements[1]
        report = lint_ddl(reserved_schema)
        assert report.ok, "\n" + report.render()

    def test_template_quotes_relations_and_columns(
        self, reserved_schema, reserved_query
    ):
        template = render_template(reserved_query.tree, reserved_schema)
        assert '"order" AS order_1' in template
        assert '"group" AS group_2' in template
        assert 'group_2.id = order_1."group"' in template
        assert find_unquoted_reserved(template) == []

    def test_template_prepares(self, reserved_schema, reserved_query):
        with SqlDryRunner(reserved_schema) as runner:
            template = render_template(reserved_query.tree, reserved_schema)
            assert runner.prepare_error(template) is None

    def test_bound_query_executes_on_sqlite(self, reserved_schema, reserved_query):
        database = Database(reserved_schema)
        database.insert("group", (7, "vip customers"))
        database.insert("order", (1, 7, "rush"))
        engine = SqliteEngine(database)
        try:
            assert engine.is_alive(reserved_query)
            rows = engine.fetch(reserved_query)
            assert rows == [(7, "vip customers", 1, 7, "rush")]
        finally:
            engine.close()

    def test_token_mode_sql_quotes_columns(self, reserved_schema, reserved_query):
        token_query = BoundQuery(
            reserved_query.tree, reserved_query.bindings, MatchMode.TOKEN
        )
        sql = render_sql(token_query, reserved_schema)
        assert 'group_2.id = order_1."group"' in sql
        assert (
            "group_2.rowid IN (SELECT value FROM json_each((SELECT rids FROM "
            "\"postings:group\" WHERE token = 'vip')))"
        ) in sql
        assert find_unquoted_reserved(sql) == []
        database = Database(reserved_schema)
        database.insert("group", (7, "vip customers"))
        database.insert("order", (1, 7, "rush"))
        with SqliteEngine(database) as engine:
            assert engine.is_alive(token_query)

    def test_reserved_lattice_lints_clean(self, reserved_schema):
        lattice = generate_lattice(reserved_schema, max_joins=1)
        report = lint_built_lattice(lattice)
        assert report.ok, "\n" + report.render()


class TestFindUnquotedReserved:
    def test_grammar_keywords_ignored(self):
        sql = "SELECT * FROM Item AS item_1 WHERE 1 = 1"
        assert find_unquoted_reserved(sql) == []

    def test_bare_reserved_identifier_found(self):
        sql = "SELECT * FROM order AS order_1"
        assert find_unquoted_reserved(sql) == ["order"]

    def test_quoted_identifier_ignored(self):
        sql = 'SELECT * FROM "order" AS order_1'
        assert find_unquoted_reserved(sql) == []

    def test_string_literals_ignored(self):
        sql = "SELECT * FROM t WHERE a LIKE '%order by group%'"
        assert find_unquoted_reserved(sql) == []


class TestPrepareDryRun:
    def test_all_products_templates_prepare(self, products_schema):
        lattice = generate_lattice(products_schema, max_joins=2)
        report = lint_lattice_templates(lattice)
        assert report.ok, "\n" + report.render()
        assert len(report) == 0

    def test_all_products_probes_prepare_in_both_modes(
        self, products_schema, monkeypatch
    ):
        """Both probe forms prepare: the lattice holds same-row fan-ins."""
        import repro.analysis.sql_linter as sql_linter

        prepared: list[str] = []
        lint_statements = sql_linter.lint_statements

        def recording(statements, schema):
            statements = list(statements)
            prepared.extend(sql for _, sql in statements)
            return lint_statements(statements, schema)

        monkeypatch.setattr(sql_linter, "lint_statements", recording)
        lattice = generate_lattice(products_schema, max_joins=2)
        report = lint_lattice_probes(lattice)
        assert report.ok, "\n" + report.render()
        assert len(report) == 0
        assert len(prepared) == 2 * len(lattice)
        assert any(has_same_row_fan_in(tree, products_schema) for tree in lattice)
        assert any(SEMI_JOIN.search(sql) for sql in prepared)

    def test_probe_without_postings_is_reported(
        self, products_schema, monkeypatch
    ):
        """The probes are prepared against the engine's access paths."""
        import repro.analysis.sql_linter as sql_linter

        monkeypatch.setattr(sql_linter, "render_access_path_ddl", lambda _: [])
        lattice = generate_lattice(products_schema, max_joins=1)
        report = lint_built_lattice(lattice)
        assert not report.ok
        assert {d.code for d in report} == {"SQL002"}
        assert all(d.location.startswith("token-mode probe") for d in report)
        assert any("postings:" in d.message for d in report)

    def test_ddl_covers_postings_and_foreign_key_indexes(self, products_schema):
        statements = render_ddl(products_schema) + render_access_path_ddl(
            products_schema
        )
        assert len(statements) == 4 + 4 + 6
        assert 'CREATE INDEX "index:Item.ptype" ON Item (ptype)' in statements
        report = lint_ddl(products_schema)
        assert report.ok and len(report) == 0, "\n" + report.render()

    def test_broken_template_is_reported(self, products_schema):
        with SqlDryRunner(products_schema) as runner:
            error = runner.prepare_error("SELECT * FROM NoSuchTable")
            assert error is not None
            assert "NoSuchTable" in error

    def test_dry_runner_accepts_token_match(self, products_schema):
        with SqlDryRunner(products_schema) as runner:
            sql = (
                "SELECT 1 FROM Item WHERE Item.rowid IN (SELECT value FROM "
                "json_each((SELECT rids FROM \"postings:Item\" "
                "WHERE token = 'kw')))"
            )
            assert runner.prepare_error(sql) is None
            sql = "SELECT 1 FROM Item WHERE SUBSTRING_MATCH('kw', Item.name)"
            assert runner.prepare_error(sql) is None
