"""Tests for the classic KWS-S substrate and MTN ≡ CN correspondence."""

import pytest

from repro.core.debugger import NonAnswerDebugger
from repro.core.mtn import find_mtns
from repro.index.mapper import Interpretation
from repro.kws.candidate_networks import enumerate_candidate_networks
from repro.kws.discover import ClassicKWSSystem
from repro.relational.engine import InMemoryEngine
from repro.relational.jointree import BoundQuery, JoinEdge, JoinTree, RelationInstance
from repro.relational.predicates import tokenize
from repro.relational.sql import has_same_row_fan_in
from repro.relational.sqlite_backend import SqliteEngine


def interp(*pairs):
    return Interpretation(tuple(pairs))


class TestCandidateNetworks:
    def test_cns_equal_mtns(self, products_debugger):
        """The lattice's MTNs are exactly DISCOVER's candidate networks,
        also when the binder's memo answers (each second run)."""
        binder = products_debugger.binder
        schema = products_debugger.schema
        for interpretation in (
            interp(("red", "Color"), ("candle", "ProductType")),
            interp(("saffron", "Color"), ("scented", "Item"),
                   ("candle", "ProductType")),
            interp(("saffron", "Item"), ("scented", "Item")),
            interp(("candle", "Item"),),
        ):
            for _ in range(2):
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


class TestSameRowFanIn:
    """``R ← S → R`` on one foreign key: both ``R`` copies are one row.

    DISCOVER's candidate-network generator prunes this pattern; this
    repository keeps it (DESIGN.md §2) in the lattice, in direct mode and
    in :func:`enumerate_candidate_networks` alike.
    """

    @staticmethod
    def about_fan_in(schema, first, second):
        """``About[0] ⋈ Publication[1]{first} ⋈ Publication[2]{second}``."""
        fk = schema.foreign_key("about_pub")
        about = RelationInstance("About", 0)
        one = RelationInstance("Publication", 1)
        two = RelationInstance("Publication", 2)
        tree = JoinTree(
            frozenset([about, one, two]),
            frozenset(
                [JoinEdge.from_fk(fk, about, one), JoinEdge.from_fk(fk, about, two)]
            ),
        )
        return BoundQuery.from_mapping(tree, {one: first, two: second})

    def test_q7_keeps_the_about_fan_in(self, dblife_db, dblife_debugger):
        schema = dblife_db.schema
        query = self.about_fan_in(schema, "probabilistic", "data")
        assert has_same_row_fan_in(query.tree, schema)
        with NonAnswerDebugger(dblife_db, max_joins=2) as lattice_debugger:
            for debugger in (dblife_debugger, lattice_debugger):
                report = debugger.debug("Probabilistic Data")  # Q7
                assert query in [mtn.query for mtn in report.graph.mtns()]
        binding = dblife_debugger.binder.bind(
            interp(("probabilistic", "Publication"), ("data", "Publication"))
        )
        assert query.tree in enumerate_candidate_networks(schema, binding, 3)

    @pytest.mark.parametrize(
        "first, second, alive",
        [("probabilistic", "data", True), ("probabilistic", "xml", False)],
    )
    def test_alive_iff_one_publication_holds_both(
        self, dblife_db, first, second, alive
    ):
        """Both engines answer it; a scan of ``About`` decides it.

        Each token of the dead pair occurs in a publication some ``About``
        row references, never both in one.
        """
        publications = dblife_db.table("Publication")
        position = publications.relation.index_of("id")
        tokens = {
            publications.row(row_id)[position]: {
                token
                for _, text in publications.text_cells(row_id)
                for token in tokenize(text)
            }
            for row_id in range(len(publications))
        }
        about = dblife_db.table("About")
        referenced = [
            tokens[about.row(row_id)[about.relation.index_of("pub_id")]]
            for row_id in range(len(about))
        ]
        assert any(first in held for held in referenced)
        assert any(second in held for held in referenced)
        assert any({first, second} <= held for held in referenced) is alive
        query = self.about_fan_in(dblife_db.schema, first, second)
        assert InMemoryEngine(dblife_db).is_alive(query) is alive
        with SqliteEngine(dblife_db) as engine:
            assert engine.is_alive(query) is alive


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
