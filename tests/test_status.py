"""Unit tests for the status store and classification rules R1/R2."""

import pytest

from repro.core.mtn import build_exploration_graph
from repro.core.status import InconsistentStatusError, Status, StatusStore
from repro.index.mapper import Interpretation


@pytest.fixture(scope="module")
def graph(products_debugger):
    interpretation = Interpretation(
        (("saffron", "Color"), ("scented", "Item"), ("candle", "ProductType"))
    )
    pruned = products_debugger.binder.prune(interpretation)
    return build_exploration_graph([pruned])


@pytest.fixture
def store(graph):
    return StatusStore(graph)


class TestRules:
    def test_initially_possibly_alive(self, graph, store):
        for node in graph.nodes:
            assert store.status(node.index) is Status.POSSIBLY_ALIVE
        assert store.unknown_mask.bit_count() == len(graph)

    def test_r1_alive_propagates_down(self, graph, store):
        mtn = graph.mtn_indexes[0]
        store.mark_alive(mtn, evaluated=True)
        for index in graph.bits(graph.desc_mask[mtn]):
            assert store.status(index) is Status.ALIVE

    def test_r2_dead_propagates_up(self, graph, store):
        base = graph.level_indexes(1)[0]
        store.mark_dead(base, evaluated=True)
        for index in graph.bits(graph.asc_mask[base]):
            assert store.status(index) is Status.DEAD

    def test_conflicting_classification_raises(self, graph, store):
        mtn = graph.mtn_indexes[0]
        child = graph.bits(graph.desc_mask[mtn])[0]
        store.mark_dead(child, evaluated=True)  # MTN now dead via R2
        with pytest.raises(InconsistentStatusError):
            store.mark_alive(mtn, evaluated=True)

    def test_conflicting_dead_after_alive_raises(self, graph, store):
        mtn = graph.mtn_indexes[0]
        store.mark_alive(mtn, evaluated=True)
        child = graph.bits(graph.desc_mask[mtn])[0]
        with pytest.raises(InconsistentStatusError):
            store.mark_dead(child, evaluated=True)

    def test_evaluated_mask_tracks_explicit_only(self, graph, store):
        mtn = graph.mtn_indexes[0]
        store.mark_alive(mtn, evaluated=True)
        assert store.evaluated_count == 1

    def test_record_dispatches(self, graph, store):
        store.record(graph.mtn_indexes[0], alive=True)
        assert store.status(graph.mtn_indexes[0]) is Status.ALIVE


class TestDomainRestriction:
    def test_domain_limits_closure(self, products_debugger):
        # Every interpretation of the query, so MTN cones overlap: some
        # descendants of an MTN have ancestors outside its cone.
        mapping = products_debugger.map_keywords("saffron scented candle")
        graph = build_exploration_graph(products_debugger.prune(mapping))
        shared = [
            (mtn, index)
            for mtn in graph.mtn_indexes
            for index in graph.bits(graph.desc_mask[mtn])
            if graph.asc_mask[index] & ~graph.desc_plus(mtn)
        ]
        assert shared
        for mtn, index in shared:
            store = StatusStore(graph, domain=graph.desc_plus(mtn))
            store.mark_dead(index, evaluated=True)
            # R2 closes inside the domain; ancestors outside it stay
            # untouched.
            assert store.status(mtn) is Status.DEAD
            outside = graph.bits(graph.asc_mask[index] & ~graph.desc_plus(mtn))
            for ancestor in outside:
                assert store.status(ancestor) is Status.POSSIBLY_ALIVE


class TestMpans:
    def test_mpans_definition(self, graph, products_debugger):
        """Compute MPANs by brute force and compare."""
        evaluator = products_debugger.make_evaluator(use_cache=True)
        store = StatusStore(graph)
        for node in graph.nodes:  # classify everything explicitly
            if not store.is_known(node.index):
                store.record(node.index, evaluator.is_alive(node.query))
        for mtn_index in graph.mtn_indexes:
            if store.status(mtn_index) is not Status.DEAD:
                continue
            mpans = set(store.mpans_of(mtn_index))
            desc = graph.bits(graph.desc_mask[mtn_index])
            expected = {
                index
                for index in desc
                if store.status(index) is Status.ALIVE
                and not any(
                    store.status(anc) is Status.ALIVE
                    for anc in graph.bits(
                        graph.asc_mask[index] & graph.desc_mask[mtn_index]
                    )
                )
            }
            assert mpans == expected
            for index in mpans:
                assert not graph.node(index).is_mtn
                assert graph.node(index).tree.is_subtree_of(
                    graph.node(mtn_index).tree
                )
