"""Tests for the classic KWS-S substrate and MTN ≡ CN correspondence."""

import pytest

from repro.core.mtn import find_mtns
from repro.index.mapper import Interpretation
from repro.kws.candidate_networks import enumerate_candidate_networks
from repro.kws.discover import ClassicKWSSystem


def interp(*pairs):
    return Interpretation(tuple(pairs))


class TestCandidateNetworks:
    def test_cns_equal_mtns(self, products_debugger):
        """The lattice's MTNs are exactly DISCOVER's candidate networks."""
        binder = products_debugger.binder
        schema = products_debugger.schema
        for interpretation in (
            interp(("red", "Color"), ("candle", "ProductType")),
            interp(("saffron", "Color"), ("scented", "Item"),
                   ("candle", "ProductType")),
            interp(("saffron", "Item"), ("scented", "Item")),
            interp(("candle", "Item"),),
        ):
            pruned = binder.prune(interpretation)
            mtns = set(find_mtns(pruned))
            cns = set(
                enumerate_candidate_networks(
                    schema, pruned.binding, binder.max_joins + 1
                )
            )
            assert mtns == cns, interpretation.describe()

    def test_empty_binding(self, products_debugger):
        binding = products_debugger.binder.bind(Interpretation(()))
        assert enumerate_candidate_networks(
            products_debugger.schema, binding, 3
        ) == []

    def test_max_size_respected(self, products_debugger):
        binding = products_debugger.binder.bind(
            interp(("red", "Color"), ("candle", "ProductType"))
        )
        for tree in enumerate_candidate_networks(
            products_debugger.schema, binding, 3
        ):
            assert tree.size <= 3


class TestClassicSystem:
    @pytest.fixture(scope="class")
    def system(self, products_db):
        return ClassicKWSSystem(products_db, max_joins=2)

    def test_answers_returned(self, system):
        answer = system.search("scented candle")
        assert not answer.is_non_answer
        assert answer.candidate_networks >= len(answer.answers)
        assert answer.queries_executed > 0

    def test_non_answer_is_silent(self, system):
        """The problem the paper fixes: dead CNs simply vanish."""
        answer = system.search("pink scented")  # no pink products exist
        assert answer.is_non_answer
        assert answer.answers == []
        assert answer.queries_executed > 0  # it did the work, said nothing

    def test_sample_tuples_attached(self, system):
        answer = system.search("scented candle")
        assert answer.sample_tuples
        some = next(iter(answer.sample_tuples.values()))
        assert some

    def test_missing_keyword(self, system):
        answer = system.search("sofa")
        assert answer.is_non_answer
        assert answer.queries_executed == 0
