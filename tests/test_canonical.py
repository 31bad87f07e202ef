"""Unit tests for canonical labeling (Algorithm 2)."""

import pytest

from repro.core.canonical import canonical_code, canonical_string
from repro.relational.jointree import JoinEdge, JoinTree, RelationInstance


def inst(relation, copy):
    return RelationInstance(relation, copy)


@pytest.fixture(scope="module")
def schema(products_db):
    return products_db.schema


def star(schema, center_copy=0, leaf_copies=(1, 2, 3)):
    """Item[center] joined to ProductType, Color, Attribute leaves."""
    item = inst("Item", center_copy)
    instances = {item}
    edges = set()
    for fk_name, relation, copy in zip(
        ("item_ptype", "item_color", "item_attr"),
        ("ProductType", "Color", "Attribute"),
        leaf_copies,
    ):
        leaf = inst(relation, copy)
        instances.add(leaf)
        edges.add(JoinEdge.from_fk(schema.foreign_key(fk_name), item, leaf))
    return JoinTree(frozenset(instances), frozenset(edges))


class TestCanonicalCode:
    def test_equal_trees_equal_codes(self, schema):
        assert canonical_code(star(schema), schema) == canonical_code(
            star(schema), schema
        )

    def test_different_copies_different_codes(self, schema):
        assert canonical_code(star(schema, leaf_copies=(1, 2, 3)), schema) != (
            canonical_code(star(schema, leaf_copies=(2, 1, 3)), schema)
        )

    def test_construction_order_irrelevant(self, schema):
        """The same tree built in different edge orders has one code."""
        item = inst("Item", 0)
        color = inst("Color", 1)
        ptype = inst("ProductType", 2)
        e_color = JoinEdge.from_fk(schema.foreign_key("item_color"), item, color)
        e_ptype = JoinEdge.from_fk(schema.foreign_key("item_ptype"), item, ptype)
        one = JoinTree.single(item).extend(e_color, color).extend(e_ptype, ptype)
        two = JoinTree.single(item).extend(e_ptype, ptype).extend(e_color, color)
        assert canonical_code(one, schema) == canonical_code(two, schema)

    def test_single_node(self, schema):
        code = canonical_code(JoinTree.single(inst("Item", 1)), schema)
        assert code[1] == ()  # no children

    def test_code_is_hashable(self, schema):
        hash(canonical_code(star(schema), schema))


class TestCanonicalString:
    def test_paper_style_brackets(self, schema):
        text = canonical_string(star(schema), schema)
        assert text.startswith("[")
        assert text.endswith("]")
        assert "|" in text  # the root has children

    def test_leaf_has_no_delimiter(self, schema):
        text = canonical_string(JoinTree.single(inst("Item", 1)), schema)
        assert "|" not in text

    def test_contains_instance_names(self, schema):
        text = canonical_string(star(schema), schema)
        assert "Item[0]" in text
        assert "Color[2]" in text


class TestEquivalenceWithTreeEquality:
    def test_codes_separate_all_level2_lattice_nodes(self, products_debugger):
        """Within a lattice level, distinct trees have distinct codes."""
        lattice = products_debugger.lattice
        schema = lattice.schema
        codes = {}
        for tree in lattice:
            if tree.size != 2:
                continue
            code = canonical_code(tree, schema)
            assert code not in codes, (
                f"collision: {tree.describe()} vs {codes[code].describe()}"
            )
            codes[code] = tree
