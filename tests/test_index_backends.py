"""Conformance suite for the two index backends.

Both backends must answer the same questions identically: the
``sqlite`` index is a different *representation* of the memory index, not
a different semantics.  The suite runs the full lookup surface over both
built-ins and diffs the answers, plus the backend-specific contracts
(persistence, per-relation repair, temp-file cleanup, closed-handle
errors).
"""

from __future__ import annotations

import pytest

from repro.index import (
    IndexBackend,
    InvertedIndex,
    SqliteInvertedIndex,
    create_index,
)
from repro.relational.database import Database
from repro.relational.predicates import MatchMode
from repro.relational.schema import (
    Attribute,
    AttributeType,
    Relation,
    SchemaGraph,
)

BACKENDS = ("memory", "sqlite")


@pytest.fixture(params=BACKENDS)
def backend_pair(request, products_db):
    """(reference memory index, index under test) over the toy database."""
    reference = InvertedIndex(products_db)
    index = create_index(request.param, products_db)
    yield reference, index
    index.close()


class TestRegistry:
    """``create_index`` builds exactly the two indexes."""

    def test_unknown_backend_raises(self, products_db):
        with pytest.raises(ValueError, match="index backend 'bogus'.*memory, sqlite"):
            create_index("bogus", products_db)

    def test_cache_dir_places_only_the_sqlite_index(self, products_db, tmp_path):
        memory = create_index("memory", products_db, tmp_path)
        assert isinstance(memory, InvertedIndex)
        assert list(tmp_path.iterdir()) == []
        with create_index("sqlite", products_db, tmp_path) as sqlite:
            assert sqlite.path.parent == tmp_path
        assert sqlite.path.exists()  # persisted for the next session

    def test_created_indexes_satisfy_protocol(self, backend_pair):
        _, index = backend_pair
        assert isinstance(index, IndexBackend)


class TestConformance:
    """Both backends answer the whole lookup surface identically."""

    KEYWORDS = ("saffron", "candle", "crimson", "scent", "e", "sofa", "")
    MODES = (MatchMode.TOKEN, MatchMode.SUBSTRING)

    def test_vocabulary(self, backend_pair):
        reference, index = backend_pair
        assert index.vocabulary_size == reference.vocabulary_size
        assert sorted(index.tokens()) == sorted(set(reference.tokens()))

    def test_relations_containing(self, backend_pair):
        reference, index = backend_pair
        for keyword in self.KEYWORDS:
            for mode in self.MODES:
                assert index.relations_containing(keyword, mode) == (
                    reference.relations_containing(keyword, mode)
                ), (keyword, mode)

    def test_tuple_sets_and_sizes(self, backend_pair):
        reference, index = backend_pair
        for keyword in self.KEYWORDS:
            for mode in self.MODES:
                for relation in reference.relations_containing(keyword, mode):
                    expected = reference.tuple_set(relation, keyword, mode)
                    assert index.tuple_set(relation, keyword, mode) == expected
                    if isinstance(index, SqliteInvertedIndex):
                        # The accessors the engine streams through.
                        assert index.tuple_set_size(relation, keyword, mode) == (
                            len(expected)
                        )
                        assert list(
                            index.iter_tuple_set(relation, keyword, mode)
                        ) == sorted(expected)


class TestCasefoldConformance:
    """STRASSE and straße meet under full case folding on every backend."""

    @pytest.fixture(params=BACKENDS)
    def index(self, request):
        from repro.datasets.products import product_database

        database = product_database()
        database.insert("Color", (50, "STRASSE", "eszett"))
        database.insert("Color", (51, "straße", "sharp s"))
        index = create_index(request.param, database)
        yield index
        index.close()

    def test_both_spellings_fold_to_one_token(self, index):
        expected = index.tuple_set("Color", "strasse")
        assert len(expected) == 2
        for keyword in ("straße", "STRASSE", "Strasse"):
            assert "Color" in index.relations_containing(keyword), keyword
            assert index.tuple_set("Color", keyword) == expected, keyword


class TestReservedRelationNames:
    """Relation names that are SQL keywords never reach SQL as identifiers."""

    @pytest.fixture(params=BACKENDS)
    def index(self, request):
        schema = SchemaGraph.build(
            [
                Relation(
                    "Order",
                    (Attribute("id", AttributeType.INTEGER), Attribute("select")),
                ),
                Relation(
                    "Group",
                    (Attribute("id", AttributeType.INTEGER), Attribute("where")),
                ),
            ],
            [],
        )
        database = Database(schema)
        database.insert("Order", (1, "urgent delivery"))
        database.insert("Group", (1, "delivery team"))
        index = create_index(request.param, database)
        yield index
        index.close()

    def test_lookups_work(self, index):
        assert index.relations_containing("delivery") == ("Group", "Order")
        assert index.tuple_set("Order", "urgent") == {0}
        assert index.tuple_set("Order", "delivery") == {0}
        assert index.tuple_set("Group", "delivery") == {0}
        if isinstance(index, SqliteInvertedIndex):
            assert index.tuple_set_size("Group", "delivery") == 1


class TestSqlitePersistence:
    def test_reopen_reuses_all_relations(self, tmp_path, products_db):
        with SqliteInvertedIndex.open_dir(tmp_path, products_db) as first:
            assert first.build_stats.relations_built > 0
            vocabulary = first.vocabulary_size
        with SqliteInvertedIndex.open_dir(tmp_path, products_db) as second:
            assert second.build_stats.relations_built == 0
            assert second.build_stats.relations_reused > 0
            assert second.vocabulary_size == vocabulary

    def test_mutation_repairs_only_changed_relation(self, tmp_path):
        from repro.datasets.products import product_database

        database = product_database()
        with SqliteInvertedIndex.open_dir(tmp_path, database):
            pass
        database.insert("Color", (99, "ultraviolet", "uv"))
        with SqliteInvertedIndex.open_dir(tmp_path, database) as repaired:
            assert repaired.build_stats.relations_built == 1
            assert repaired.build_stats.relations_reused == (
                len(database.tables) - 1
            )
            new_row = len(database.table("Color")) - 1
            assert new_row in repaired.tuple_set("Color", "ultraviolet")

    def test_unmanaged_index_removes_its_temp_file(self, products_db):
        index = SqliteInvertedIndex(products_db)
        path = index.path
        assert path.exists()
        index.close()
        assert not path.exists()

    def test_closed_index_raises(self, products_db):
        index = SqliteInvertedIndex(products_db)
        index.close()
        index.close()  # idempotent
        with pytest.raises(Exception, match="closed"):
            index.tuple_set("Item", "saffron")

