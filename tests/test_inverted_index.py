"""Unit tests for the inverted index and keyword mapper."""

import pytest

from repro.index.inverted import InvertedIndex
from repro.index.mapper import KeywordMapper
from repro.relational.predicates import MatchMode


class TestInvertedIndex:
    def test_relations_containing(self, products_index):
        assert products_index.relations_containing("saffron") == (
            "Attribute",
            "Color",
            "Item",
        )
        assert products_index.relations_containing("candle") == ("Item", "ProductType")
        assert products_index.relations_containing("scented") == ("Item",)

    def test_missing_keyword(self, products_index):
        assert products_index.relations_containing("sofa") == ()

    def test_tuple_set(self, products_index):
        assert products_index.tuple_set("ProductType", "candle") == {1}
        # saffron appears in Item rows 0 (name) and 2 (description)
        assert products_index.tuple_set("Item", "saffron") == {0, 2}

    def test_tuple_set_substring(self, products_index):
        token = products_index.tuple_set("Item", "scent", MatchMode.TOKEN)
        substring = products_index.tuple_set("Item", "scent", MatchMode.SUBSTRING)
        assert token == frozenset()
        assert substring == {0, 1, 2, 3}

    def test_vocabulary(self, products_index):
        assert products_index.vocabulary_size > 20
        assert "saffron" in set(products_index.tokens())


class TestCasefoldMatching:
    """Regression: index and engine agree on full Unicode case folding.

    ``"STRASSE".lower()`` happens to match the casefolded "strasse" token,
    but ``"straße".lower()`` does not -- only ``str.casefold()`` makes the
    uppercase spelling and the sharp-s spelling meet.  A row written one
    way must be found by a keyword written the other way, through both the
    inverted index and the engine's fallback table scan.
    """

    @pytest.fixture()
    def database(self):
        from repro.datasets.products import product_database

        database = product_database()
        database.insert("Color", (50, "STRASSE", "eszett"))
        database.insert("Color", (51, "straße", "sharp s"))
        return database

    def test_index_folds_both_spellings_to_one_token(self, database):
        index = InvertedIndex(database)
        for keyword in ("straße", "STRASSE", "Strasse"):
            assert "Color" in index.relations_containing(keyword), keyword
            ids = index.tuple_set("Color", keyword)
            assert len(ids) == 2, keyword

    def test_engine_matches_via_index_and_via_scan(self, database):
        from repro.relational.engine import InMemoryEngine
        from repro.relational.jointree import BoundQuery, JoinTree, RelationInstance

        instance = RelationInstance("Color", 1)
        probe = BoundQuery.from_mapping(
            JoinTree.single(instance), {instance: "straße"}, MatchMode.TOKEN
        )
        index = InvertedIndex(database)
        with_index = InMemoryEngine(database, tuple_set_provider=index.tuple_set)
        scan_only = InMemoryEngine(database)
        assert with_index.is_alive(probe)
        assert scan_only.is_alive(probe)
        assert with_index.tuple_set("Color", "STRASSE", MatchMode.TOKEN) == (
            scan_only.tuple_set("Color", "STRASSE", MatchMode.TOKEN)
        )


class TestKeywordMapper:
    @pytest.fixture(scope="class")
    def mapper(self, products_index):
        return KeywordMapper(products_index)

    def test_parse_dedupes_and_lowercases(self, mapper):
        assert mapper.parse("Red red CANDLE") == ("red", "candle")

    def test_map_query_complete(self, mapper):
        mapping = mapper.map_query("saffron scented candle")
        assert mapping.complete
        assert mapping.keywords == ("saffron", "scented", "candle")
        assert len(mapping.interpretations) == 3 * 1 * 2

    def test_map_query_missing_keyword(self, mapper):
        mapping = mapper.map_query("saffron sofa")
        assert not mapping.complete
        assert mapping.missing_keywords == ("sofa",)
        assert mapping.interpretations == ()

    def test_mapping_time_recorded(self, mapper):
        assert mapper.map_query("candle").mapping_time >= 0.0

    def test_interpretation_relation_of(self, mapper):
        mapping = mapper.map_query("red candle")
        first = mapping.interpretations[0]
        assert first.relation_of("red") in ("Color", "Item")
        with pytest.raises(KeyError):
            first.relation_of("nope")

    def test_interpretation_cap(self, products_index):
        capped = KeywordMapper(products_index, max_interpretations=2)
        mapping = capped.map_query("saffron scented candle")
        assert len(mapping.interpretations) == 2

    def test_describe(self, mapper):
        mapping = mapper.map_query("saffron sofa")
        text = mapping.describe()
        assert "sofa" in text and "missing" in text
