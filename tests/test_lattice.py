"""Unit tests for lattice generation (Phase 0, Algorithm 1)."""

import pytest

from repro.core.lattice import generate_lattice
from repro.relational.jointree import RelationInstance
from repro.relational.schema import (
    Attribute,
    AttributeType,
    ForeignKey,
    Relation,
    SchemaGraph,
)

INT = AttributeType.INTEGER
TEXT = AttributeType.TEXT


@pytest.fixture(scope="module")
def rs_schema():
    """The paper's Example 2: R(a, b) and S(c, d) with R.b = S.c."""
    relations = [
        Relation("R", (Attribute("a", TEXT), Attribute("b", INT))),
        Relation("S", (Attribute("c", INT), Attribute("d", TEXT))),
    ]
    return SchemaGraph.build(relations, [ForeignKey("rb_sc", "R", "b", "S", "c")])


class TestExample2:
    def test_figure4_shape_without_slot_pruning(self, rs_schema):
        """m=1 without free copies or slot pruning: Figure 4 exactly."""
        lattice = generate_lattice(
            rs_schema, 1, distinct_slots=False, free_copies=False
        )
        assert lattice.stats.nodes_per_level == [4, 4]  # R1 R2 S1 S2; 4 joins
        level2 = {tree.describe() for tree in lattice if tree.size == 2}
        assert level2 == {
            "R[1] ⋈ S[1]",
            "R[1] ⋈ S[2]",
            "R[2] ⋈ S[1]",
            "R[2] ⋈ S[2]",
        }

    def test_distinct_slots_drop_unreachable_combinations(self, rs_schema):
        lattice = generate_lattice(rs_schema, 1, free_copies=False)
        level2 = {tree.describe() for tree in lattice if tree.size == 2}
        # R1⋈S1 and R2⋈S2 can never be retained by any query.
        assert level2 == {"R[1] ⋈ S[2]", "R[2] ⋈ S[1]"}

    def test_free_copies_add_r0_s0(self, rs_schema):
        lattice = generate_lattice(rs_schema, 1)
        base = {tree.describe() for tree in lattice if tree.size == 1}
        assert "R[0]" in base and "S[0]" in base

    def test_duplicates_counted(self, rs_schema):
        lattice = generate_lattice(rs_schema, 1, distinct_slots=False,
                                   free_copies=False)
        # Every level-2 tree is generated twice (once from each endpoint).
        assert lattice.stats.duplicates_per_level == [0, 4]
        assert 0 < lattice.stats.duplicate_fraction < 1


class TestInvariants:
    def test_levels_and_sizes(self, products_debugger):
        """Trees come level by level, as many per level as the stats say."""
        lattice = products_debugger.lattice
        sizes = [tree.size for tree in lattice]
        assert sizes == sorted(sizes)
        assert [sizes.count(level) for level in range(1, lattice.levels + 1)] == (
            lattice.stats.nodes_per_level
        )

    def test_every_subtree_is_a_lattice_node(self, products_debugger):
        """Downward closure: the slot-signature index is exact only with it."""
        lattice = products_debugger.lattice
        for tree in lattice:
            if tree.size == lattice.levels:
                for subtree in tree.connected_subtrees():
                    assert subtree in lattice

    def test_no_duplicate_trees(self, products_debugger):
        trees = list(products_debugger.lattice)
        assert len(set(trees)) == len(trees)

    def test_distinct_slots_enforced(self, products_debugger):
        for tree in products_debugger.lattice:
            slots = [
                instance.copy
                for instance in tree.instances
                if not instance.is_free
            ]
            assert len(slots) == len(set(slots))

    def test_max_keywords_caps_slots(self, products_db):
        lattice = generate_lattice(products_db.schema, 2, max_keywords=1)
        for tree in lattice:
            slots = {i.copy for i in tree.instances if not i.is_free}
            assert slots <= {1}

    def test_stats_consistency(self, products_debugger):
        stats = products_debugger.lattice.stats
        assert stats.total_nodes == len(products_debugger.lattice)
        assert len(stats.time_per_level) == stats.levels
        assert stats.total_time >= 0

    def test_copies_of(self, products_debugger):
        copies = products_debugger.lattice.copies_of("Item")
        assert copies[0] == RelationInstance("Item", 0)
        assert len(copies) == products_debugger.lattice.max_keywords + 1

    def test_invalid_arguments(self, products_db):
        with pytest.raises(ValueError):
            generate_lattice(products_db.schema, -1)
        with pytest.raises(ValueError):
            generate_lattice(products_db.schema, 1, max_keywords=0)
