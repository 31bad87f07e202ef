"""The sqlite3 backend must agree with the in-memory engine."""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.relational.engine import InMemoryEngine
from repro.relational.jointree import BoundQuery, JoinEdge, JoinTree, RelationInstance
from repro.relational.predicates import MatchMode
from repro.relational.sqlite_backend import SqliteEngine


def inst(relation, copy):
    return RelationInstance(relation, copy)


@pytest.fixture(scope="module")
def sqlite_engine(products_db):
    with SqliteEngine(products_db) as engine:
        yield engine


@pytest.fixture(scope="module")
def memory_engine(products_db):
    return InMemoryEngine(products_db)


def example1_q2(schema, mode=MatchMode.TOKEN):
    item, ptype, attr = inst("Item", 2), inst("ProductType", 3), inst("Attribute", 1)
    tree = JoinTree(
        frozenset([item, ptype, attr]),
        frozenset(
            [
                JoinEdge.from_fk(schema.foreign_key("item_ptype"), item, ptype),
                JoinEdge.from_fk(schema.foreign_key("item_attr"), item, attr),
            ]
        ),
    )
    return BoundQuery.from_mapping(
        tree, {item: "scented", ptype: "candle", attr: "saffron"}, mode
    )


class TestSqliteEngine:
    def test_row_counts_loaded(self, sqlite_engine, products_db):
        for table in products_db.iter_tables():
            count = sqlite_engine.connection.execute(
                f"SELECT COUNT(*) FROM {table.relation.name}"
            ).fetchone()[0]
            assert count == len(table)

    def test_q2_dead_on_both_backends(self, sqlite_engine, memory_engine, products_db):
        query = example1_q2(products_db.schema)
        assert sqlite_engine.is_alive(query) == memory_engine.is_alive(query) is False

    def test_subquery_alive_on_both_backends(
        self, sqlite_engine, memory_engine, products_db
    ):
        query = example1_q2(products_db.schema)
        for subtree in query.tree.child_subtrees():
            sub = query.subquery(subtree)
            assert sqlite_engine.is_alive(sub) == memory_engine.is_alive(sub)

    def test_substring_mode(self, sqlite_engine, products_db):
        query = example1_q2(products_db.schema, MatchMode.SUBSTRING)
        assert not sqlite_engine.is_alive(query)

    def test_count_and_fetch(self, sqlite_engine, products_db):
        schema = products_db.schema
        tree = JoinTree.single(inst("Item", 1))
        query = BoundQuery.from_mapping(tree, {inst("Item", 1): "scented"})
        assert sqlite_engine.count(query) == 4  # item 4: "rose scented" desc
        assert len(sqlite_engine.fetch(query, limit=2)) == 2

    def test_token_match_function_handles_null(self, sqlite_engine):
        # Item 1's color is NULL; TOKEN_MATCH on NULL must not error.
        rows = sqlite_engine.connection.execute(
            "SELECT COUNT(*) FROM Item WHERE TOKEN_MATCH('x', NULL)"
        ).fetchone()
        assert rows[0] == 0

    def test_full_workload_agreement(self, products_debugger, products_db):
        """Every exploration-graph query agrees across backends."""
        memory_engine = InMemoryEngine(products_db)
        report = products_debugger.debug("saffron scented candle")
        with SqliteEngine(products_db) as sqlite_engine:
            for node in report.graph.nodes:
                assert sqlite_engine.is_alive(node.query) == memory_engine.is_alive(
                    node.query
                ), node.query.describe()

    def test_close_releases_connection(self, products_db):
        import sqlite3

        engine = SqliteEngine(products_db)
        engine.close()
        with pytest.raises(sqlite3.ProgrammingError):
            engine.connection.execute("SELECT 1")

    def test_debugger_context_manager_closes_sqlite_backend(self, products_db):
        import sqlite3

        from repro.core.debugger import NonAnswerDebugger

        with NonAnswerDebugger(products_db, backend="sqlite") as debugger:
            report = debugger.debug("red candle")
            assert report.traversal is not None
        with pytest.raises(sqlite3.ProgrammingError):
            debugger.backend.connection.execute("SELECT 1")


class TestSqliteThreadSafety:
    def test_concurrent_is_alive_matches_serial(self, products_debugger):
        """Regression: concurrent probes must not raise ProgrammingError."""
        mapping = products_debugger.map_keywords("saffron scented candle")
        graph = products_debugger.build_graph(products_debugger.prune(mapping))
        probes = [graph.node(index).query for index in range(len(graph))]
        with SqliteEngine(products_debugger.database) as engine:
            serial = [engine.is_alive(probe) for probe in probes]
            with ThreadPoolExecutor(max_workers=8) as pool:
                concurrent = list(pool.map(engine.is_alive, probes * 4))
            assert concurrent == serial * 4

    def test_concurrent_checkouts_draw_distinct_pooled_connections(
        self, products_db
    ):
        """3 threads holding checkouts at once get 3 distinct connections."""
        with SqliteEngine(products_db, pool_size=4) as engine:
            # Only the anchor connection exists before any checkout.
            assert engine.connection_count == 1
            barrier = threading.Barrier(3)

            def checkout():
                with engine._pool.connection() as connection:
                    barrier.wait(timeout=5)  # all 3 held simultaneously
                    return id(connection)

            with ThreadPoolExecutor(max_workers=3) as pool:
                held = list(pool.map(lambda _: checkout(), range(3)))
            assert len(set(held)) == 3
            stats = engine.pool_stats()
            assert stats.created == 3
            assert stats.max_in_use == 3
            assert stats.in_use == 0  # all returned afterwards
            assert engine.connection_count == 4  # anchor + 3 idle

    def test_closed_engine_refuses_new_connections(self, products_db):
        import sqlite3

        engine = SqliteEngine(products_db)
        engine.close()
        with pytest.raises(sqlite3.ProgrammingError):
            _ = engine.connection
