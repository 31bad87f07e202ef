"""Unit tests for SQL text generation (templates and instantiated queries)."""

import pytest

from repro.relational.jointree import BoundQuery, JoinEdge, JoinTree, RelationInstance
from repro.relational.predicates import MatchMode
from repro.relational.sql import (
    KEYWORD_PLACEHOLDER,
    render_ddl,
    render_existence_check,
    render_sql,
    render_template,
)


def inst(relation, copy):
    return RelationInstance(relation, copy)


@pytest.fixture(scope="module")
def schema(products_db):
    return products_db.schema


@pytest.fixture(scope="module")
def two_table_query(schema):
    fk = schema.foreign_key("item_ptype")
    item, ptype = inst("Item", 1), inst("ProductType", 2)
    tree = JoinTree(
        frozenset([item, ptype]),
        frozenset([JoinEdge.from_fk(fk, item, ptype)]),
    )
    return BoundQuery.from_mapping(
        tree, {ptype: "candle"}, MatchMode.SUBSTRING
    )


class TestTemplates:
    def test_template_contains_join_and_placeholder(self, schema, two_table_query):
        template = render_template(two_table_query.tree, schema)
        assert "FROM Item AS item_1, ProductType AS producttype_2" in template
        assert "item_1.ptype = producttype_2.id" in template
        assert KEYWORD_PLACEHOLDER in template

    def test_template_skips_free_instances(self, schema):
        tree = JoinTree.single(inst("Item", 0))
        template = render_template(tree, schema)
        assert KEYWORD_PLACEHOLDER not in template

    def test_single_table_no_conditions(self, schema):
        tree = JoinTree.single(inst("Attribute", 0))
        assert render_template(tree, schema).endswith("WHERE 1 = 1")


class TestRenderSql:
    def test_instantiated_query(self, schema, two_table_query):
        sql = render_sql(two_table_query, schema)
        assert sql.startswith("SELECT *")
        assert "SUBSTRING_MATCH('candle'" in sql
        assert "producttype_2.name" in sql

    def test_existence_check_form(self, schema, two_table_query):
        sql = render_existence_check(two_table_query, schema)
        assert sql.startswith("SELECT 1")
        assert sql.endswith("LIMIT 1")

    def test_token_mode_reads_postings(self, schema, two_table_query):
        token_query = BoundQuery(
            two_table_query.tree, two_table_query.bindings, MatchMode.TOKEN
        )
        sql = render_sql(token_query, schema)
        assert "SUBSTRING_MATCH" not in sql
        assert (
            "producttype_2.rowid IN (SELECT value FROM json_each((SELECT rids "
            "FROM \"postings:ProductType\" WHERE token = 'candle')))"
        ) in sql

    def test_free_query_has_joins_only(self, schema):
        fk = schema.foreign_key("item_color")
        item, color = inst("Item", 0), inst("Color", 0)
        tree = JoinTree(
            frozenset([item, color]), frozenset([JoinEdge.from_fk(fk, item, color)])
        )
        sql = render_sql(BoundQuery.from_mapping(tree, {}), schema)
        assert "LIKE" not in sql and "postings" not in sql
        assert "color_0.id = item_0.color" in sql


class TestDdl:
    def test_one_statement_per_relation(self, schema):
        statements = render_ddl(schema)
        assert len(statements) == 4
        assert any("CREATE TABLE Item" in s for s in statements)

    def test_types_rendered(self, schema):
        item = next(s for s in render_ddl(schema) if "Item" in s)
        assert "id INTEGER" in item
        assert "name TEXT" in item
        assert "cost REAL" in item
