"""Unit tests for SQL text generation (templates and instantiated queries)."""

import pytest

from repro.relational.jointree import BoundQuery, JoinEdge, JoinTree, RelationInstance
from repro.relational.predicates import MatchMode
from repro.relational.sql import (
    KEYWORD_PLACEHOLDER,
    has_same_row_fan_in,
    render_ddl,
    render_exists_probe,
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


class TestExistsProbe:
    @pytest.fixture(scope="class")
    def fan_in_query(self, schema):
        """``Color[1]{red} ← Item[0] → Color[2]{pink}``, both on ``Item.color``."""
        fk = schema.foreign_key("item_color")
        item, red, pink = inst("Item", 0), inst("Color", 1), inst("Color", 2)
        tree = JoinTree(
            frozenset([item, red, pink]),
            frozenset(
                [JoinEdge.from_fk(fk, item, red), JoinEdge.from_fk(fk, item, pink)]
            ),
        )
        return BoundQuery.from_mapping(tree, {red: "red", pink: "pink"})

    def test_other_trees_keep_the_flat_join(self, schema, two_table_query):
        assert not has_same_row_fan_in(two_table_query.tree, schema)
        assert render_exists_probe(two_table_query, schema) == (
            f"SELECT EXISTS ({render_sql(two_table_query, schema, select='1')})"
        )

    def test_same_row_fan_in_is_probed_as_semi_joins(self, schema, fan_in_query):
        assert has_same_row_fan_in(fan_in_query.tree, schema)

        def postings(token):
            return (
                "IN (SELECT value FROM json_each((SELECT rids FROM "
                f"\"postings:Color\" WHERE token = '{token}')))"
            )

        assert render_exists_probe(fan_in_query, schema) == (
            "SELECT EXISTS (SELECT 1 FROM Color AS color_1 WHERE "
            f"color_1.rowid {postings('red')} AND "
            "color_1.id IN (SELECT item_0.color FROM Item AS item_0 WHERE "
            "item_0.color IN (SELECT color_2.id FROM Color AS color_2 WHERE "
            f"color_2.rowid {postings('pink')})))"
        )

    def test_two_rows_on_either_end_are_no_fan_in(self, schema, dblife_db):
        """A parent joined to two child copies, or a child joined to two
        parents through two columns (``Coauthor``), links two rows."""
        fk = schema.foreign_key("item_color")
        color, first, second = inst("Color", 1), inst("Item", 0), inst("Item", 1)
        star = JoinTree(
            frozenset([color, first, second]),
            frozenset(
                [
                    JoinEdge.from_fk(fk, first, color),
                    JoinEdge.from_fk(fk, second, color),
                ]
            ),
        )
        assert not has_same_row_fan_in(star, schema)
        dblife = dblife_db.schema
        coauthor, one, two = inst("Coauthor", 0), inst("Person", 1), inst("Person", 2)
        pair = JoinTree(
            frozenset([coauthor, one, two]),
            frozenset(
                [
                    JoinEdge.from_fk(dblife.foreign_key("coauthor_p1"), coauthor, one),
                    JoinEdge.from_fk(dblife.foreign_key("coauthor_p2"), coauthor, two),
                ]
            ),
        )
        assert not has_same_row_fan_in(pair, dblife)


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
