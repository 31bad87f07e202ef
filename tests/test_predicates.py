"""Unit tests for keyword predicates and the shared tokenizer."""

import pytest

from repro.datasets.products import product_schema
from repro.relational.predicates import (
    KeywordPredicate,
    MatchMode,
    cell_matches,
    tokenize,
)
from repro.relational.schema import Attribute, AttributeType, Relation
from repro.relational.sql import render_keyword_condition


class TestTokenize:
    def test_lowercases_and_splits(self):
        assert tokenize("Saffron Scented-Candle") == ["saffron", "scented", "candle"]

    def test_numbers_kept(self):
        assert tokenize("burn time 50 hrs") == ["burn", "time", "50", "hrs"]

    def test_punctuation_dropped(self):
        assert tokenize("3.4 oz.") == ["3", "4", "oz"]

    def test_empty(self):
        assert tokenize("") == []


class TestCellMatches:
    def test_token_exact(self):
        assert cell_matches("candle", "red candle", MatchMode.TOKEN)
        assert not cell_matches("can", "red candle", MatchMode.TOKEN)

    def test_token_case_insensitive(self):
        assert cell_matches("CANDLE", "Red Candle", MatchMode.TOKEN)

    def test_substring(self):
        assert cell_matches("can", "red candle", MatchMode.SUBSTRING)
        assert cell_matches("scent", "unscented", MatchMode.SUBSTRING)
        assert not cell_matches("blue", "red candle", MatchMode.SUBSTRING)


class TestKeywordPredicate:
    def test_empty_keyword_rejected(self):
        with pytest.raises(ValueError):
            KeywordPredicate("  ")

    def test_matches_row(self):
        predicate = KeywordPredicate("saffron")
        assert predicate.matches_row([("name", "saffron oil")])
        assert not predicate.matches_row([("name", "vanilla oil")])
        assert not predicate.matches_row([])

    def test_sql_condition_substring(self):
        predicate = KeywordPredicate("saffron", MatchMode.SUBSTRING)
        sql = predicate.sql_condition("item_1", ("name", "description"))
        assert "SUBSTRING_MATCH('saffron', item_1.name)" in sql
        assert "OR" in sql

    def test_sql_condition_casefolds_keyword(self):
        predicate = KeywordPredicate("STRASSE", MatchMode.SUBSTRING)
        sql = predicate.sql_condition("item_1", ("name",))
        assert "SUBSTRING_MATCH('strasse', item_1.name)" in sql
        folded = KeywordPredicate("straße", MatchMode.SUBSTRING)
        assert folded.sql_condition("item_1", ("name",)) == sql
        # The token form looks the casefolded keyword up in the postings.
        relation = product_schema().relation("Item")
        token = render_keyword_condition(
            relation, "item_1", "STRASSE", MatchMode.TOKEN
        )
        assert "token = 'strasse'" in token
        assert render_keyword_condition(
            relation, "item_1", "straße", MatchMode.TOKEN
        ) == token

    def test_sql_condition_token(self):
        predicate = KeywordPredicate("saffron", MatchMode.TOKEN)
        with pytest.raises(ValueError, match="postings"):
            predicate.sql_condition("item_1", ("name",))
        sql = render_keyword_condition(
            product_schema().relation("Item"), "item_1", "saffron", MatchMode.TOKEN
        )
        assert sql == (
            "item_1.rowid IN (SELECT value FROM json_each((SELECT rids FROM "
            "\"postings:Item\" WHERE token = 'saffron')))"
        )

    def test_sql_condition_escapes_quotes(self):
        predicate = KeywordPredicate("o'neil", MatchMode.SUBSTRING)
        assert "o''neil" in predicate.sql_condition("t", ("name",))
        # No token holds a quote, so the token form never quotes one.
        relation = product_schema().relation("Item")
        assert render_keyword_condition(
            relation, "t", "o'neil", MatchMode.TOKEN
        ) == "0 = 1"

    def test_sql_condition_no_columns(self):
        predicate = KeywordPredicate("x", MatchMode.SUBSTRING)
        assert predicate.sql_condition("t", ()) == "0 = 1"
        no_text = Relation("Link", (Attribute("id", AttributeType.INTEGER),))
        for mode in MatchMode:
            assert render_keyword_condition(no_text, "t", "x", mode) == "0 = 1"
