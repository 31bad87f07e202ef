"""Plan linter: clean lattices lint clean, seeded corruptions are caught.

The corruption property tests exercise the linter the way a real bug
would: trees are rebuilt through ``JoinTree._unchecked`` (the validation-
skipping fast path the hot loops use), so nothing raises at construction
time and only the static analyzer stands between the corruption and the
sqlite backend.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis import (
    lint_built_lattice,
    lint_candidate_networks,
    lint_lattice,
    lint_tree,
)
from repro.core.binding import KeywordBinder
from repro.core.lattice import Lattice, generate_lattice
from repro.datasets.dblife import dblife_schema
from repro.datasets.products import product_schema
from repro.index.mapper import Interpretation
from repro.kws.candidate_networks import enumerate_candidate_networks
from repro.relational.jointree import JoinEdge, JoinTree, RelationInstance
from repro.relational.schema import (
    Attribute,
    AttributeType,
    ForeignKey,
    Relation,
    SchemaGraph,
)


def unchecked_tree(instances, edges) -> JoinTree:
    """Build a (possibly invalid) tree without constructor validation."""
    adjacency = {
        instance: tuple(e for e in edges if instance in (e.a, e.b))
        for instance in instances
    }
    return JoinTree._unchecked(frozenset(instances), frozenset(edges), adjacency)


def rename_instance(tree: JoinTree, old, new) -> JoinTree:
    instances = [new if i == old else i for i in tree.instances]
    edges = [
        JoinEdge(
            e.fk,
            new if e.a == old else e.a,
            e.a_column,
            new if e.b == old else e.b,
            e.b_column,
        )
        for e in tree.edges
    ]
    return unchecked_tree(instances, edges)


@pytest.fixture(scope="module")
def schema():
    return product_schema()


@pytest.fixture(scope="module")
def lattice(schema):
    return generate_lattice(schema, max_joins=2)


# ------------------------------------------------------------------ clean
def test_fresh_products_lattice_has_zero_diagnostics(lattice):
    report = lint_built_lattice(lattice)
    assert report.ok, "\n" + report.render()
    assert len(report) == 0


def test_fresh_dblife_lattice_has_zero_diagnostics():
    lattice = generate_lattice(dblife_schema(), max_joins=2)
    report = lint_built_lattice(lattice)
    assert report.ok, "\n" + report.render()
    assert len(report) == 0


# ----------------------------------------------------- seeded corruptions
@settings(max_examples=30, deadline=None)
@given(st.data())
def test_removed_edge_yields_disconnected_tree(lattice, data):
    eligible = [tree for tree in lattice if len(tree.edges) >= 2]
    tree = data.draw(st.sampled_from(eligible))
    doomed = data.draw(st.sampled_from(sorted(tree.edges, key=str)))
    corrupted = unchecked_tree(
        tree.instances, tree.edges - {doomed}
    )
    found = lint_tree(corrupted, lattice.schema)
    assert any(d.code == "PLAN002" for d in found)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_dangling_fk_yields_plan001(lattice, data):
    eligible = [tree for tree in lattice if tree.edges]
    tree = data.draw(st.sampled_from(eligible))
    victim = data.draw(st.sampled_from(sorted(tree.edges, key=str)))
    corrupted = unchecked_tree(
        tree.instances,
        (tree.edges - {victim}) | {replace(victim, fk="ghost_fk")},
    )
    found = lint_tree(corrupted, lattice.schema)
    assert any(d.code == "PLAN001" for d in found)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_wrong_join_column_yields_plan001(lattice, data):
    eligible = [tree for tree in lattice if tree.edges]
    tree = data.draw(st.sampled_from(eligible))
    victim = data.draw(st.sampled_from(sorted(tree.edges, key=str)))
    relation = lattice.schema.relation(victim.a.relation)
    other_columns = [
        name for name in relation.attribute_names if name != victim.a_column
    ]
    assume(other_columns)
    wrong = data.draw(st.sampled_from(other_columns))
    corrupted = unchecked_tree(
        tree.instances,
        (tree.edges - {victim}) | {replace(victim, a_column=wrong)},
    )
    found = lint_tree(corrupted, lattice.schema)
    assert any(d.code == "PLAN001" for d in found)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_swapped_slot_yields_duplicate_slot(lattice, data):
    eligible = [
        tree
        for tree in lattice
        if sum(1 for i in tree.instances if not i.is_free) >= 2
    ]
    tree = data.draw(st.sampled_from(eligible))
    bound = sorted(i for i in tree.instances if not i.is_free)
    victim = data.draw(st.sampled_from(bound))
    target = data.draw(st.sampled_from([i for i in bound if i != victim]))
    clone = RelationInstance(victim.relation, target.copy)
    assume(clone not in tree.instances)
    corrupted = rename_instance(tree, victim, clone)
    found = lint_tree(
        corrupted,
        lattice.schema,
        max_keywords=lattice.max_keywords,
        distinct_slots=True,
    )
    assert any(d.code == "PLAN004" for d in found)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_overflowing_slot_yields_unbound_keyword_slot(lattice, data):
    eligible = [
        tree for tree in lattice
        if any(not i.is_free for i in tree.instances)
    ]
    tree = data.draw(st.sampled_from(eligible))
    bound = sorted(i for i in tree.instances if not i.is_free)
    victim = data.draw(st.sampled_from(bound))
    overflow = RelationInstance(victim.relation, lattice.max_keywords + 5)
    corrupted = rename_instance(tree, victim, overflow)
    found = lint_tree(
        corrupted, lattice.schema, max_keywords=lattice.max_keywords
    )
    assert any(d.code == "PLAN005" for d in found)


def test_type_mismatched_fk_yields_plan003():
    """A schema may declare an INTEGER->REAL association; the linter flags
    any tree edge instantiating it."""
    schema = SchemaGraph.build(
        [
            Relation(
                "A",
                (
                    Attribute("id", AttributeType.INTEGER),
                    Attribute("name", AttributeType.TEXT),
                ),
            ),
            Relation(
                "B",
                (
                    Attribute("weight", AttributeType.REAL),
                    Attribute("label", AttributeType.TEXT),
                ),
            ),
        ],
        [ForeignKey("a_b", "A", "id", "B", "weight")],
    )
    a, b = RelationInstance("A", 1), RelationInstance("B", 2)
    tree = JoinTree.single(a).extend(
        JoinEdge.from_fk(schema.foreign_key("a_b"), a, b), b
    )
    found = lint_tree(tree, schema)
    assert any(d.code == "PLAN003" for d in found)


def test_corrupted_lattice_tree_is_reported(lattice):
    """lint_lattice lints every tree and names the corrupted one's position."""
    trees = list(lattice)
    position, victim = next(
        (index, tree) for index, tree in enumerate(trees) if tree.edges
    )
    edge = min(victim.edges, key=str)
    ghost = RelationInstance(edge.b.relation, lattice.max_keywords + 1)
    trees[position] = unchecked_tree(
        victim.instances, (victim.edges - {edge}) | {replace(edge, b=ghost)}
    )
    corrupted = Lattice.from_trees(lattice.schema, lattice.max_joins, trees)
    report = lint_lattice(corrupted)
    assert {"PLAN001", "PLAN002"} <= report.codes
    assert all(
        diagnostic.location.startswith(f"lattice tree {position} ")
        for diagnostic in report.diagnostics
    )


# ------------------------------------------------------ candidate networks
@pytest.fixture(scope="module")
def binding(schema):
    binder = KeywordBinder(schema=schema, max_joins=2)
    interpretation = Interpretation(
        (("candle", "Item"), ("lavender", "ProductType"))
    )
    return binder.bind(interpretation)


def test_clean_candidate_networks_lint_clean(schema, binding):
    networks = enumerate_candidate_networks(schema, binding, max_size=3)
    assert networks, "expected at least one candidate network"
    report = lint_candidate_networks(networks, binding, schema)
    assert report.ok, "\n" + report.render()
    assert len(report) == 0


def test_network_missing_bound_copy_yields_plan005(schema, binding):
    networks = enumerate_candidate_networks(schema, binding, max_size=3)
    smallest = networks[0]
    bound = sorted(i for i in smallest.instances if not i.is_free)
    # Restricting to a single bound instance drops the other keyword's copy.
    partial = JoinTree.single(bound[0])
    report = lint_candidate_networks([partial], binding, schema)
    assert "PLAN005" in report.codes


def test_network_with_free_leaf_yields_plan006(schema, binding):
    networks = enumerate_candidate_networks(schema, binding, max_size=2)
    base = networks[0]
    anchor = next(iter(base.instances))
    fk = next(
        fk
        for fk in schema.edges_of(anchor.relation)
        if fk.other(anchor.relation) != anchor.relation
    )
    other = RelationInstance(fk.other(anchor.relation), 0)
    assume_ok = other not in base.instances
    assert assume_ok
    if fk.child == anchor.relation:
        edge = JoinEdge.from_fk(fk, anchor, other)
    else:
        edge = JoinEdge.from_fk(fk, other, anchor)
    bloated = base.extend(edge, other)
    report = lint_candidate_networks([bloated], binding, schema)
    assert "PLAN006" in report.codes
