"""Unit tests for Phase 2: MTN discovery and the exploration graph."""

import json
import os
import subprocess
import sys

import pytest

from repro.core.binding import KeywordBinder
from repro.core.mtn import (
    build_exploration_graph,
    find_mtns,
    is_minimal_total,
)
from repro.index.mapper import Interpretation
from repro.relational.jointree import RelationInstance


def interp(*pairs):
    return Interpretation(tuple(pairs))


RED_CANDLE = interp(("red", "Color"), ("candle", "ProductType"))
SAFFRON_Q1 = interp(
    ("saffron", "Color"), ("scented", "Item"), ("candle", "ProductType")
)


@pytest.fixture(scope="module")
def pruned(products_debugger):
    return products_debugger.binder.prune(RED_CANDLE)


@pytest.fixture(scope="module")
def graph(products_debugger, pruned):
    return build_exploration_graph([pruned])


@pytest.fixture(scope="module")
def deep_graph(products_db):
    """Level 4: non-MTN nodes of three instances have grandchildren."""
    binder = KeywordBinder(schema=products_db.schema, max_joins=3)
    return build_exploration_graph([binder.prune_for_mtns(SAFFRON_Q1)])


class TestFindMtns:
    def test_red_candle_has_the_connecting_mtn(self, pruned):
        """'red candle' needs the free Item table to connect C and P (§2.3)."""
        mtns = find_mtns(pruned)
        descriptions = {tree.describe() for tree in mtns}
        assert "Color[1] ⋈ Item[0] ⋈ ProductType[2]" in descriptions

    def test_mtns_are_total_with_bound_leaves(self, pruned):
        for tree in find_mtns(pruned):
            assert pruned.binding.instances <= tree.instances
            assert all(leaf in pruned.binding.instances for leaf in tree.leaves())

    def test_no_mtn_contains_another(self, pruned):
        mtns = find_mtns(pruned)
        for one in mtns:
            for other in mtns:
                if one is not other:
                    assert not one.is_subtree_of(other)

    def test_is_minimal_total_rejects_partial(self, pruned):
        binding = pruned.binding
        partial = next(
            tree for tree in pruned.retained
            if not binding.instances <= tree.instances
        )
        assert not is_minimal_total(partial, binding)


class TestExplorationGraph:
    def test_contains_all_subtrees(self, graph):
        for mtn in graph.mtns():
            for subtree in mtn.tree.connected_subtrees():
                matches = [
                    node for node in graph.nodes if node.tree == subtree
                ]
                assert matches

    def test_masks_match_structure(self, graph, deep_graph):
        """Every mask member is a strict sub- or super-query, and every
        strict sub-query in the graph is in the descendant mask."""
        for explored in (graph, deep_graph):
            for node in explored.nodes:
                for other_index in explored.bits(explored.desc_mask[node.index]):
                    other = explored.node(other_index)
                    assert other.tree.is_subtree_of(node.tree)
                for other_index in explored.bits(explored.asc_mask[node.index]):
                    other = explored.node(other_index)
                    assert node.tree.is_subtree_of(other.tree)
                for other in explored.nodes:
                    if (
                        other.index != node.index
                        and other.tree.is_subtree_of(node.tree)
                        and node.query.subquery(other.tree) == other.query
                    ):
                        assert (explored.desc_mask[node.index] >> other.index) & 1

    def test_mtns_are_maximal(self, graph):
        """No exploration node strictly contains an MTN (minimality)."""
        for mtn_index in graph.mtn_indexes:
            assert graph.asc_mask[mtn_index] == 0

    def test_desc_asc_are_transposes(self, graph):
        for node in graph.nodes:
            for other in graph.bits(graph.desc_mask[node.index]):
                assert (graph.asc_mask[other] >> node.index) & 1

    def test_bits_roundtrip(self, graph):
        mask = sum(1 << i for i in (0, 3, 5) if i < len(graph))
        assert graph.bits(mask) == [i for i in (0, 3, 5) if i < len(graph)]

    def test_descendant_counts(self, graph):
        total, unique = graph.descendant_counts()
        assert unique <= total
        assert 0.0 <= graph.reuse_percentage() <= 100.0

    def test_same_tree_different_keywords_distinct_nodes(self, products_debugger):
        """Regression: interning must key on bound queries, not trees.

        'saffron' and 'scented' both map to Item; slot 1 carries 'saffron'
        in one interpretation and e.g. 'red' in another query's -- within a
        single graph two interpretations can disagree on what slot 1 of a
        relation means only via different keywords, which must not collide.
        """
        binder = products_debugger.binder
        one = binder.prune(interp(("saffron", "Item"), ("candle", "ProductType")))
        two = binder.prune(interp(("scented", "Item"), ("candle", "ProductType")))
        graph = build_exploration_graph([one, two])
        single_item_nodes = [
            node.query.describe()
            for node in graph.nodes
            if node.tree.instances == frozenset({RelationInstance("Item", 1)})
        ]
        assert sorted(single_item_nodes) == ["Item[1]{saffron}", "Item[1]{scented}"]

    def test_multi_interpretation_graph_shares_subqueries(
        self, products_debugger
    ):
        """q1 and q2 of Example 1 share P^candle ⋈ I^scented."""
        binder = products_debugger.binder
        q1 = binder.prune(SAFFRON_Q1)
        q2 = binder.prune(
            interp(("saffron", "Attribute"), ("scented", "Item"),
                   ("candle", "ProductType"))
        )
        graph = build_exploration_graph([q1, q2])
        shared = [
            node
            for node in graph.nodes
            if node.query.keywords == frozenset({"scented", "candle"})
            and node.tree.size == 2
        ]
        assert len(shared) == 1  # one node, referenced by both MTNs
        mask = 1 << shared[0].index
        covering_mtns = [
            mtn for mtn in graph.mtn_indexes if graph.desc_mask[mtn] & mask
        ]
        assert len(covering_mtns) >= 2


class TestOrderAcrossHashSeeds:
    """The graph's numbering, which steers SBH's tie-breaks, is a function of
    the retained set alone.  ``retained`` is a frozenset, so its iteration
    order moves with ``PYTHONHASHSEED``; a sort key that left tied MTNs
    (same instances, e.g. Coauthor joined on person1_id or person2_id) in
    that order would number them differently per process."""

    SNIPPET = (
        "import json\n"
        "from repro.core.binding import KeywordBinder\n"
        "from repro.core.mtn import build_exploration_graph\n"
        "from repro.datasets.dblife import dblife_schema\n"
        "from repro.index.mapper import Interpretation\n"
        "binder = KeywordBinder(schema=dblife_schema(), max_joins=3)\n"
        "names = ('agrawal', 'chaudhuri', 'das')\n"
        "pruned = binder.prune_for_mtns(\n"
        "    Interpretation(tuple((name, 'Person') for name in names))\n"
        ")\n"
        "graph = build_exploration_graph([pruned])\n"
        "print(json.dumps({\n"
        "    'nodes': [node.query.describe_full() for node in graph.nodes],\n"
        "    'mtns': [node.query.describe() for node in graph.mtns()],\n"
        "}))\n"
    )

    def _graph(self, hashseed: str) -> dict:
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hashseed
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.abspath("src"), env.get("PYTHONPATH", "")]
        )
        result = subprocess.run(
            [sys.executable, "-c", self.SNIPPET],
            capture_output=True,
            text=True,
            env=env,
            check=True,
            timeout=120,
        )
        return json.loads(result.stdout)

    def test_tied_mtns_keep_one_order(self):
        first = self._graph("0")
        assert len(set(first["mtns"])) < len(first["mtns"])  # ties exist
        assert self._graph("1") == first
