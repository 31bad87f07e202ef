"""Unit tests for Phase 1: keyword binding and lattice pruning."""

from itertools import product

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.binding import (
    BindingError,
    KeywordBinder,
    bind_tree,
    extension_over_budget,
    mtn_budget,
    over_budget,
)
from repro.core.freecopies import free_instance
from repro.core.lattice import generate_lattice
from repro.core.mtn import find_mtns
from repro.core.persistence import load_lattice, save_lattice
from repro.datasets.dblife import dblife_schema
from repro.index.mapper import Interpretation
from repro.relational.jointree import JoinEdge, RelationInstance


def interp(*pairs):
    return Interpretation(tuple(pairs))


@pytest.fixture(scope="module")
def binder(products_debugger):
    return products_debugger.binder


RED_CANDLE = interp(("red", "Color"), ("candle", "ProductType"))


class TestBind:
    def test_keyword_positions_become_slots(self, binder):
        binding = binder.bind(RED_CANDLE)
        assert binding.by_keyword == (
            ("red", RelationInstance("Color", 1)),
            ("candle", RelationInstance("ProductType", 2)),
        )

    def test_same_relation_keywords_get_distinct_slots(self, binder):
        binding = binder.bind(interp(("saffron", "Item"), ("scented", "Item")))
        assert binding.instances == {
            RelationInstance("Item", 1),
            RelationInstance("Item", 2),
        }

    def test_unknown_relation_rejected(self, binder):
        with pytest.raises(BindingError):
            binder.bind(interp(("x", "Nope")))

    def test_too_many_keywords_rejected(self, products_db):
        """The message names the limit to raise: the lattice's slots, or
        the level a query of that many keywords needs."""
        lattice = generate_lattice(products_db.schema, 1, max_keywords=1)
        binder = KeywordBinder(lattice)
        with pytest.raises(BindingError, match="regenerate the lattice"):
            binder.bind(interp(("a", "Item"), ("b", "Color")))
        direct = KeywordBinder(schema=products_db.schema, max_joins=1)
        with pytest.raises(BindingError, match="raise --level"):
            direct.bind(interp(("a", "Item"), ("b", "Color"), ("c", "Item")))

    def test_describe(self, binder):
        assert "red->Color[1]" in binder.bind(RED_CANDLE).describe()


class TestPrune:
    def test_retained_instances_are_allowed(self, binder):
        pruned = binder.prune(RED_CANDLE)
        allowed = set(pruned.binding.instances) | {
            RelationInstance(name, 0) for name in binder.schema.relations
        }
        for tree in pruned.retained:
            assert set(tree.instances) <= allowed

    def test_retained_exactly_matches_definition(self, binder):
        """The prune retains exactly the lattice trees over the alphabet."""
        pruned = binder.prune(RED_CANDLE)
        allowed = set(pruned.binding.instances) | {
            RelationInstance(name, 0) for name in binder.schema.relations
        }
        expected = {
            tree for tree in binder.lattice if set(tree.instances) <= allowed
        }
        assert set(pruned.retained) == expected

    def test_substantial_pruning(self, binder):
        pruned = binder.prune(RED_CANDLE)
        assert pruned.retained_count / len(binder.lattice) < 0.5
        assert pruned.retained_count > 0
        assert pruned.pruning_time >= 0


class TestDirectGeneration:
    def test_direct_equals_lattice_walk(self, binder, products_db):
        """prune() and prune_direct() retain identical tree sets."""
        direct_binder = KeywordBinder(
            schema=products_db.schema, max_joins=binder.max_joins,
            max_keywords=binder.max_keywords,
        )
        for interpretation in (
            RED_CANDLE,
            interp(("saffron", "Color"), ("scented", "Item"), ("candle", "ProductType")),
            interp(("saffron", "Item"), ("scented", "Item")),
        ):
            walked = set(binder.prune(interpretation).retained)
            generated = set(direct_binder.prune_direct(interpretation).retained)
            assert walked == generated

    def test_mtn_targeted_is_subset_with_same_mtns(self, binder, products_db):
        from repro.core.mtn import find_mtns

        direct_binder = KeywordBinder(
            schema=products_db.schema, max_joins=binder.max_joins,
            max_keywords=binder.max_keywords,
        )
        for interpretation in (
            RED_CANDLE,
            interp(("saffron", "Color"), ("scented", "Item"), ("candle", "ProductType")),
        ):
            complete = direct_binder.prune_direct(interpretation)
            targeted = direct_binder.prune_for_mtns(interpretation)
            assert targeted.retained <= complete.retained
            assert find_mtns(targeted) == find_mtns(complete)

    def test_binder_requires_lattice_or_schema(self):
        with pytest.raises(BindingError):
            KeywordBinder()


class TestBindTree:
    def test_bind_tree_attaches_keywords(self, binder):
        pruned = binder.prune(RED_CANDLE)
        total = next(
            tree for tree in pruned.retained
            if pruned.binding.instances <= tree.instances
        )
        assert bind_tree(total, pruned.binding).keywords == {"red", "candle"}

    def test_bind_tree_skips_missing_instances(self, binder):
        binding = binder.bind(RED_CANDLE)
        pruned = binder.prune(RED_CANDLE)
        partial = next(
            tree for tree in pruned.retained
            if not binding.instances <= tree.instances
            and any(not i.is_free for i in tree.instances)
        )
        query = bind_tree(partial, binding)
        assert 0 < len(query.bindings) < len(binding.by_keyword) + 1


# --------------------------------------------- indexed prune vs. definition
DBLIFE = dblife_schema()


@st.composite
def dblife_interpretations(draw):
    """1-3 keywords over the DBLife schema; relations may repeat."""
    relations = draw(
        st.lists(st.sampled_from(sorted(DBLIFE.relations)), min_size=1, max_size=3)
    )
    return Interpretation(tuple((f"kw{i}", name) for i, name in enumerate(relations)))


@pytest.fixture(scope="module")
def level3_lattices(tmp_path_factory):
    """Level-3 DBLife lattices under every knob setting, plus one reloaded."""
    lattices = [
        generate_lattice(
            DBLIFE, 2, max_keywords=3, distinct_slots=distinct, free_copies=free
        )
        for distinct in (True, False)
        for free in (True, False)
    ]
    path = tmp_path_factory.mktemp("lattice") / "level3.json"
    save_lattice(lattices[0], path)
    return lattices + [load_lattice(path, DBLIFE)]


class TestIndexedPruneProperty:
    """The slot-signature lookup keeps exactly the paper's retained set, and
    lattice and direct mode list their MTNs in one order."""

    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(interpretation=dblife_interpretations())
    @example(interpretation=interp(("a", "Person"), ("b", "Person")))
    @example(
        interpretation=interp(("a", "Person"), ("b", "Publication"), ("c", "Person"))
    )
    def test_matches_brute_force_and_direct_mtns(self, level3_lattices, interpretation):
        direct = KeywordBinder(schema=DBLIFE, max_joins=2, max_keywords=3)
        direct_mtns = find_mtns(direct.prune_direct(interpretation))
        for lattice in level3_lattices:
            pruned = KeywordBinder(lattice).prune(interpretation)
            allowed = pruned.binding.instances | {
                RelationInstance(name, 0) for name in DBLIFE.relations
            }
            assert pruned.retained == {
                tree for tree in lattice if tree.instances <= allowed
            }
            # Direct mode always has the free copies a lattice may lack.
            expected = [
                tree
                for tree in direct_mtns
                if lattice.free_copies or not any(i.is_free for i in tree.instances)
            ]
            assert find_mtns(pruned) == expected

    def test_every_interpretation_lists_the_same_mtns(self, level3_lattices):
        """Tied MTNs (same instances, e.g. Coauthor joined on person1_id or
        on person2_id) come out in one order from both Phase-1 paths."""
        lattice = KeywordBinder(level3_lattices[0])
        direct = KeywordBinder(schema=DBLIFE, max_joins=2, max_keywords=3)
        for size in (1, 2, 3):
            for relations in product(sorted(DBLIFE.relations), repeat=size):
                interpretation = Interpretation(
                    tuple((f"kw{i}", name) for i, name in enumerate(relations))
                )
                assert find_mtns(lattice.prune(interpretation)) == find_mtns(
                    direct.prune_for_mtns(interpretation)
                ), relations


class TestExtensionBudgetProperty:
    """MTN-targeted generation tests each one-leaf extension's budget
    before building it; the test must reject exactly the extensions whose
    built tree :func:`over_budget` rejects."""

    @settings(
        max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        interpretation=dblife_interpretations(),
        max_joins=st.sampled_from((1, 2)),
        free_copies=st.sampled_from((1, 2)),
    )
    @example(
        interpretation=interp(("a", "Person"), ("b", "Person")),
        max_joins=2,
        free_copies=2,
    )
    def test_precheck_rejects_what_the_built_tree_fails(
        self, interpretation, max_joins, free_copies
    ):
        if len(interpretation.assignments) > max_joins + 1:
            max_joins = len(interpretation.assignments) - 1
        binder = KeywordBinder(
            schema=DBLIFE, max_joins=max_joins, free_copies=free_copies
        )
        bound = binder.bind(interpretation).instances
        max_size = max_joins + 1
        checked = 0
        # The complete retained set: every tree growth can start from.
        for tree in binder.prune_direct(interpretation).retained:
            if tree.size >= max_size:
                continue
            budget = mtn_budget(tree, bound)
            for anchor in tree.instances:
                for fk in DBLIFE.edges_of(anchor.relation):
                    other = fk.other(anchor.relation)
                    candidates = [i for i in bound if i.relation == other] + [
                        free_instance(other, rank) for rank in range(free_copies)
                    ]
                    for candidate in candidates:
                        if candidate in tree.instances:
                            continue
                        if fk.child == anchor.relation:
                            edge = JoinEdge.from_fk(fk, anchor, candidate)
                        else:
                            edge = JoinEdge.from_fk(fk, candidate, anchor)
                        built = tree.extend(edge, candidate)
                        assert extension_over_budget(
                            tree, budget, anchor, candidate, max_size
                        ) == over_budget(built, bound, max_size), built.describe()
                        checked += 1
        assert checked
