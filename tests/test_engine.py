"""Unit tests for the in-memory join engine (aliveness + enumeration)."""

import pytest

from repro.index.inverted import InvertedIndex
from repro.relational.engine import InMemoryEngine
from repro.relational.jointree import BoundQuery, JoinEdge, JoinTree, RelationInstance
from repro.relational.predicates import MatchMode


def inst(relation, copy):
    return RelationInstance(relation, copy)


def make_query(schema, spec, bindings, mode=MatchMode.TOKEN):
    """Build a BoundQuery from ``[(fk_name, child_inst, parent_inst), ...]``."""
    edges = set()
    instances = set()
    for fk_name, child, parent in spec:
        fk = schema.foreign_key(fk_name)
        edges.add(JoinEdge.from_fk(fk, child, parent))
        instances.update((child, parent))
    if not spec:
        instances = set(bindings) or instances
    tree = JoinTree(frozenset(instances), frozenset(edges))
    return BoundQuery.from_mapping(tree, bindings, mode)


@pytest.fixture(scope="module")
def engine(products_db):
    return InMemoryEngine(products_db)


@pytest.fixture(scope="module")
def schema(products_db):
    return products_db.schema


class TestTupleSets:
    def test_scan_matches_keyword(self, engine):
        assert engine.tuple_set("ProductType", "candle", MatchMode.TOKEN) == {1}

    def test_scan_is_cached(self, engine):
        first = engine.tuple_set("Item", "scented", MatchMode.TOKEN)
        assert engine.tuple_set("Item", "scented", MatchMode.TOKEN) is first

    def test_substring_wider_than_token(self, engine):
        token = engine.tuple_set("Item", "scent", MatchMode.TOKEN)
        substring = engine.tuple_set("Item", "scent", MatchMode.SUBSTRING)
        assert token <= substring
        assert substring  # "scented" contains "scent"

    def test_provider_used(self, products_db):
        calls = []

        def recording_provider(relation, keyword, mode):
            calls.append((relation, keyword))
            return {0}

        engine = InMemoryEngine(products_db, tuple_set_provider=recording_provider)
        assert engine.tuple_set("Item", "anything", MatchMode.TOKEN) == {0}
        assert calls == [("Item", "anything")]

    def test_provider_receives_normalized_keyword(self, products_db):
        """Regression: the cache is keyed by the lowercased keyword, so the
        provider must see it lowercased too -- a case-sensitive provider
        would otherwise make the cache first-caller-wins inconsistent."""
        calls = []

        def case_sensitive_provider(relation, keyword, mode):
            calls.append(keyword)
            # Simulates a provider with exact-case postings: only the
            # lowercase spelling has a tuple set.
            return {0} if keyword == "candle" else set()

        engine = InMemoryEngine(
            products_db, tuple_set_provider=case_sensitive_provider
        )
        upper = engine.tuple_set("Item", "CANDLE", MatchMode.TOKEN)
        lower = engine.tuple_set("Item", "candle", MatchMode.TOKEN)
        assert upper == lower == {0}
        assert calls == ["candle"]  # one normalized call, then the cache

    def test_mixed_case_lookups_agree_with_inverted_index(self, products_db):
        """Mixed-case lookups through the real inverted-index provider give
        the same tuple sets as lowercase ones, in either call order."""
        index = InvertedIndex(products_db)
        for first, second in (("Scented", "scented"), ("candle", "CANDLE")):
            engine = InMemoryEngine(products_db, tuple_set_provider=index.tuple_set)
            expected = index.tuple_set("Item", first.lower(), MatchMode.TOKEN)
            assert expected
            assert engine.tuple_set("Item", first, MatchMode.TOKEN) == expected
            assert engine.tuple_set("Item", second, MatchMode.TOKEN) == expected


class TestAliveness:
    def test_single_bound_alive(self, engine, schema):
        query = make_query(schema, [], {inst("ProductType", 1): "candle"})
        assert engine.is_alive(query)

    def test_single_bound_dead(self, engine, schema):
        query = make_query(schema, [], {inst("ProductType", 1): "sofa"})
        assert not engine.is_alive(query)

    def test_single_free_alive(self, engine, schema):
        tree = JoinTree.single(inst("Item", 0))
        assert engine.is_alive(BoundQuery.from_mapping(tree, {}))

    def test_example1_q1_dead(self, engine, schema):
        """P^candle ⋈ I^scented ⋈ C^saffron returns nothing (Example 1)."""
        query = make_query(
            schema,
            [
                ("item_ptype", inst("Item", 2), inst("ProductType", 3)),
                ("item_color", inst("Item", 2), inst("Color", 1)),
            ],
            {
                inst("ProductType", 3): "candle",
                inst("Item", 2): "scented",
                inst("Color", 1): "saffron",
            },
        )
        assert not engine.is_alive(query)

    def test_example1_q2_subquery_alive(self, engine, schema):
        """I^scented ⋈ A^saffron is alive (the saffron scented oil)."""
        query = make_query(
            schema,
            [("item_attr", inst("Item", 2), inst("Attribute", 1))],
            {inst("Item", 2): "scented", inst("Attribute", 1): "saffron"},
        )
        assert engine.is_alive(query)

    def test_null_fk_never_joins(self, engine, schema):
        # Item 1 has color NULL; a join keyed on it must not match.
        query = make_query(
            schema,
            [("item_color", inst("Item", 1), inst("Color", 0))],
            {inst("Item", 1): "oil"},
        )
        # Item 1 is the only 'oil' item and its color is NULL -> dead.
        assert not engine.is_alive(query)

    def test_free_join_alive(self, engine, schema):
        query = make_query(
            schema,
            [("item_ptype", inst("Item", 0), inst("ProductType", 0))],
            {},
        )
        assert engine.is_alive(query)


class TestEvaluate:
    def test_count_matches_enumeration(self, engine, schema):
        query = make_query(
            schema,
            [("item_ptype", inst("Item", 0), inst("ProductType", 1))],
            {inst("ProductType", 1): "candle"},
        )
        rows = engine.evaluate(query, limit=None)
        assert engine.count(query) == len(rows) == 3  # items 2, 3, 4

    def test_limit_respected(self, engine, schema):
        query = make_query(
            schema,
            [("item_ptype", inst("Item", 0), inst("ProductType", 1))],
            {inst("ProductType", 1): "candle"},
        )
        assert len(engine.evaluate(query, limit=2)) == 2

    def test_result_rows_carry_columns(self, engine, schema):
        query = make_query(schema, [], {inst("Color", 1): "saffron"})
        rows = engine.evaluate(query)
        assert rows[0][inst("Color", 1)]["name"] == "saffron"

    def test_dead_query_empty(self, engine, schema):
        query = make_query(schema, [], {inst("Color", 1): "turquoise"})
        assert engine.evaluate(query) == []

    def test_star_join_evaluation(self, engine, schema):
        """Item joined to all three dimension tables at once (branching)."""
        query = make_query(
            schema,
            [
                ("item_ptype", inst("Item", 0), inst("ProductType", 1)),
                ("item_color", inst("Item", 0), inst("Color", 2)),
                ("item_attr", inst("Item", 0), inst("Attribute", 3)),
            ],
            {
                inst("ProductType", 1): "candle",
                inst("Color", 2): "red",
                inst("Attribute", 3): "checkered",
            },
        )
        assert engine.is_alive(query)
        rows = engine.evaluate(query, limit=None)
        assert len(rows) == 1  # item 4: red checkered candle
        assert rows[0][inst("Item", 0)]["name"] == "red checkered candle"

    def test_alive_iff_nonempty(self, engine, schema, products_db):
        index = InvertedIndex(products_db)
        for keyword in ("candle", "saffron", "scented", "red"):
            for relation in index.relations_containing(keyword):
                query = make_query(
                    schema, [], {inst(relation, 1): keyword}
                )
                assert engine.is_alive(query) == bool(engine.evaluate(query))
