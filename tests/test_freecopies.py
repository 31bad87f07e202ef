"""Tests for the multi-free-copy extension (beyond the paper).

The paper's single free copy per relation cannot express relationships that
route through the same relation twice -- connecting two authors through a
*shared publication* needs two ``Writes`` instances.  These tests build a
minimal bibliography database where that is the *only* connection between
two people, and check that ``free_copies=2`` finds it while the paper's
configuration correctly cannot.
"""

from __future__ import annotations

import pytest

from repro.core.debugger import NonAnswerDebugger
from repro.core.freecopies import (
    free_instance,
    next_free_instance,
    normalize_free_ranks,
)
from repro.relational.database import Database
from repro.relational.jointree import (
    BoundQuery,
    JoinEdge,
    JoinTree,
    JoinTreeError,
    RelationInstance,
)
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
def biblio_db():
    """Person -- Writes -- Publication; alice and bob share one paper."""
    schema = SchemaGraph.build(
        relations=[
            Relation("Person", (Attribute("id", INT), Attribute("name", TEXT))),
            Relation("Publication", (Attribute("id", INT), Attribute("title", TEXT))),
            Relation(
                "Writes",
                (
                    Attribute("id", INT),
                    Attribute("person_id", INT),
                    Attribute("pub_id", INT),
                ),
            ),
        ],
        foreign_keys=[
            ForeignKey("writes_person", "Writes", "person_id", "Person", "id"),
            ForeignKey("writes_pub", "Writes", "pub_id", "Publication", "id"),
        ],
    )
    database = Database(schema)
    database.load(
        {
            "Person": [(1, "alice"), (2, "bob"), (3, "carol")],
            "Publication": [(1, "joint work"), (2, "solo work")],
            "Writes": [(1, 1, 1), (2, 2, 1), (3, 3, 2)],
        }
    )
    database.validate()
    return database


class TestFreeInstances:
    def test_rank_zero_is_the_classic_r0(self):
        assert free_instance("R", 0) == RelationInstance("R", 0)
        assert str(free_instance("R", 0)) == "R[0]"

    def test_higher_ranks_are_distinct_and_marked(self):
        f1 = free_instance("R", 1)
        assert f1.is_free
        assert f1 != RelationInstance("R", 1)  # bound slot 1
        assert str(f1) == "R[f1]"
        assert f1.alias == "r_f1"

    def test_copy_zero_cannot_be_bound(self):
        with pytest.raises(JoinTreeError):
            RelationInstance("R", 0, free=False)

    def test_next_free_instance_prefix_rule(self):
        tree = JoinTree.single(free_instance("R", 0))
        assert next_free_instance(tree, "R", 2) == free_instance("R", 1)
        assert next_free_instance(tree, "R", 1) is None
        assert next_free_instance(tree, "S", 2) == free_instance("S", 0)

    def test_binding_to_extra_free_copy_rejected(self):
        tree = JoinTree.single(free_instance("R", 1))
        with pytest.raises(JoinTreeError):
            BoundQuery.from_mapping(tree, {free_instance("R", 1): "kw"})


class TestNormalization:
    def _path(self, biblio_db, left_rank, right_rank):
        """P1{alice} - W[left] - Pub[f0] - W[right] - P2{bob}."""
        schema = biblio_db.schema
        alice = RelationInstance("Person", 1)
        bob = RelationInstance("Person", 2)
        pub = free_instance("Publication", 0)
        w_left = free_instance("Writes", left_rank)
        w_right = free_instance("Writes", right_rank)
        wp = schema.foreign_key("writes_person")
        wb = schema.foreign_key("writes_pub")
        tree = JoinTree(
            frozenset([alice, bob, pub, w_left, w_right]),
            frozenset(
                [
                    JoinEdge.from_fk(wp, w_left, alice),
                    JoinEdge.from_fk(wb, w_left, pub),
                    JoinEdge.from_fk(wp, w_right, bob),
                    JoinEdge.from_fk(wb, w_right, pub),
                ]
            ),
        )
        return BoundQuery.from_mapping(tree, {alice: "alice", bob: "bob"})

    def test_rank_permutations_normalize_identically(self, biblio_db):
        one = normalize_free_ranks(self._path(biblio_db, 0, 1))
        two = normalize_free_ranks(self._path(biblio_db, 1, 0))
        assert one == two

    def test_normalization_is_idempotent(self, biblio_db):
        query = self._path(biblio_db, 1, 0)
        once = normalize_free_ranks(query)
        assert normalize_free_ranks(once) == once

    def test_single_free_copy_is_identity(self, products_debugger):
        report = products_debugger.debug("saffron scented candle")
        for node in report.graph.nodes:
            assert normalize_free_ranks(node.query) == node.query


class TestEndToEnd:
    def test_paper_configuration_cannot_connect(self, biblio_db):
        """With one free Writes, 'alice bob' finds no answers.

        The only candidate networks route both people through the *same*
        ``Writes`` instance (``W0.person_id`` equal to both ids), which is
        dead unless one person's name carries both keywords.  The shared
        publication is out of reach.
        """
        debugger = NonAnswerDebugger(biblio_db, max_joins=4, use_lattice=False)
        report = debugger.debug("alice bob")
        assert not report.answers()
        for mtn in report.graph.mtns():
            writes = [
                i for i in mtn.tree.instances if i.relation == "Writes"
            ]
            assert len(writes) <= 1

    def test_two_free_copies_find_the_shared_paper(self, biblio_db):
        debugger = NonAnswerDebugger(
            biblio_db, max_joins=4, use_lattice=False, free_copies=2
        )
        report = debugger.debug("alice bob")
        assert report.mtn_count > 0
        answers = report.answers()
        assert answers, "alice and bob share a publication"
        answer = answers[0]
        writes = [
            instance
            for instance in answer.tree.instances
            if instance.relation == "Writes"
        ]
        assert len(writes) == 2 and all(w.is_free for w in writes)

    def test_no_semantic_duplicates_in_graph(self, biblio_db):
        """Rank-permuted twins must collapse to single exploration nodes."""
        debugger = NonAnswerDebugger(
            biblio_db, max_joins=4, use_lattice=False, free_copies=2
        )
        report = debugger.debug("alice bob")
        descriptions = [node.query.describe() for node in report.graph.nodes]
        assert len(descriptions) == len(set(descriptions))

    def test_dead_pair_still_explained(self, biblio_db):
        """alice and carol share nothing: dead, with sensible MPANs."""
        debugger = NonAnswerDebugger(
            biblio_db, max_joins=4, use_lattice=False, free_copies=2
        )
        report = debugger.debug("alice carol")
        assert report.mtn_count > 0
        assert not report.answers()
        for _, mpans in report.explanations():
            assert mpans

    def test_strategies_agree_with_free_copies(self, biblio_db):
        signatures = set()
        for name in ("bu", "td", "buwr", "tdwr", "sbh"):
            debugger = NonAnswerDebugger(
                biblio_db, max_joins=4, use_lattice=False, free_copies=2,
                strategy=name,
            )
            report = debugger.debug("alice bob")
            signatures.add(report.traversal.classification_signature())
        assert len(signatures) == 1

    def test_lattice_mode_rejects_multi_free(self, biblio_db):
        from repro.core.binding import BindingError, KeywordBinder
        from repro.core.lattice import generate_lattice

        lattice = generate_lattice(biblio_db.schema, 2)
        with pytest.raises(BindingError):
            KeywordBinder(lattice=lattice, free_copies=2)
