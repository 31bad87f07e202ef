"""The sqlite3 backend must agree with the in-memory engine."""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.debugger import NonAnswerDebugger
from repro.datasets.products import product_database
from repro.index import create_index
from repro.relational.database import Database
from repro.relational.engine import InMemoryEngine
from repro.relational.jointree import BoundQuery, JoinEdge, JoinTree, RelationInstance
from repro.relational.predicates import MatchMode
from repro.relational.schema import (
    Attribute,
    AttributeType,
    Relation,
    SchemaError,
    SchemaGraph,
)
from repro.relational.sql import render_exists_probe, render_sql
from repro.relational.sqlite_backend import SqliteEngine
from repro.workloads import TABLE2_QUERIES


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

    def test_substring_match_function_handles_null(self, sqlite_engine):
        # Item 1's color is NULL; SUBSTRING_MATCH on NULL must not error.
        rows = sqlite_engine.connection.execute(
            "SELECT COUNT(*) FROM Item WHERE SUBSTRING_MATCH('x', NULL)"
        ).fetchone()
        assert rows[0] == 0

    @pytest.mark.parametrize("cell, alive", [("xa\x00by", True), ("xab", False)])
    def test_nul_keyword_agrees_across_engines(self, cell, alive):
        """A SUBSTRING keyword holding a NUL reaches SUBSTRING_MATCH whole."""
        database = product_database()
        database.insert("Item", (9, cell, None, None, None, 1.0, ""))
        item = inst("Item", 1)
        query = BoundQuery.from_mapping(
            JoinTree.single(item), {item: "A\x00B"}, MatchMode.SUBSTRING
        )
        with SqliteEngine(database) as engine:
            assert engine.is_alive(query) is alive
        assert InMemoryEngine(database).is_alive(query) is alive

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

        with NonAnswerDebugger(products_db, backend="sqlite") as debugger:
            report = debugger.debug("red candle")
            assert report.traversal is not None
        with pytest.raises(sqlite3.ProgrammingError):
            debugger.backend.connection.execute("SELECT 1")


def doc_database(*columns):
    """One ``Doc`` relation: the given integer columns, then a text title."""
    attributes = [Attribute(name, AttributeType.INTEGER) for name in columns]
    attributes.append(Attribute("title", AttributeType.TEXT))
    schema = SchemaGraph.build([Relation("Doc", tuple(attributes))], [])
    return Database(schema)


class TestMirrorAccessPaths:
    def test_postings_hold_mirror_row_ids(self, sqlite_engine, products_db):
        rows = dict(
            sqlite_engine.connection.execute(
                'SELECT token, rids FROM "postings:Item"'
            )
        )
        # "scented" is in the descriptions of Item rows 0-3 (ids 1-4).
        assert rows["scented"] == "[1,2,3,4]"

    @pytest.mark.parametrize(
        "cell, keyword, matches",
        [
            ("Straße", "STRASSE", True),
            ("STRASSE", "straße", True),
            ("ﬁle", "FILE", True),
            ("file", "ﬁle", True),
            ("İstanbul", "stanbul", True),
            ("İstanbul", "İstanbul", False),
            ("O'Neil", "o'neil", False),
        ],
    )
    def test_token_probe_casefolds_like_the_scan(self, cell, keyword, matches):
        database = doc_database("id")
        database.insert("Doc", (1, cell))
        doc = inst("Doc", 1)
        query = BoundQuery.from_mapping(JoinTree.single(doc), {doc: keyword})
        assert InMemoryEngine(database).is_alive(query) is matches
        with SqliteEngine(database) as engine:
            assert engine.is_alive(query) is matches

    def test_postings_are_the_same_from_either_index(self, dblife_db):
        def postings(engine):
            return {
                relation: engine.connection.execute(
                    f'SELECT token, rids FROM "postings:{relation}" ORDER BY token'
                ).fetchall()
                for relation in dblife_db.schema.searchable_relations()
            }

        with create_index("sqlite", dblife_db) as index:
            with SqliteEngine(dblife_db, index) as from_disk:
                on_disk = postings(from_disk)
        with SqliteEngine(dblife_db) as built:
            assert postings(built) == on_disk
        assert sum(len(rows) for rows in on_disk.values()) > 100

    def test_probes_use_no_automatic_index(self, dblife_db):
        """Every Q1-Q10 probe joins through a foreign-key index."""
        with NonAnswerDebugger(
            dblife_db, max_joins=2, use_lattice=False, backend="sqlite"
        ) as debugger:
            checked = 0
            for query in TABLE2_QUERIES:
                report = debugger.debug(query.text)
                if report.graph is None:
                    continue
                for node in report.graph.nodes:
                    sql = render_exists_probe(node.query, dblife_db.schema)
                    plan = debugger.backend.connection.execute(
                        f"EXPLAIN QUERY PLAN {sql}"
                    ).fetchall()
                    details = [row[3] for row in plan]
                    assert not any("AUTOMATIC" in d for d in details), (
                        node.query.describe(),
                        details,
                    )
                    checked += 1
        assert checked > 50

    def test_rowid_column_does_not_shadow_the_mirror_row(self):
        """A declared ``rowid`` column moves the lookup to ``_rowid_``."""
        database = doc_database("rowid")
        database.insert("Doc", (5, "alpha beta"))
        database.insert("Doc", (1, "gamma"))
        doc = inst("Doc", 1)
        query = BoundQuery.from_mapping(JoinTree.single(doc), {doc: "gamma"})
        assert "doc_1._rowid_ IN" in render_sql(query, database.schema)
        with SqliteEngine(database) as engine:
            assert engine.is_alive(query) == InMemoryEngine(database).is_alive(
                query
            ) is True
            assert engine.fetch(query) == [(1, "gamma")]

    def test_oid_is_the_last_row_id_name(self):
        database = doc_database("rowid", "_ROWID_")
        database.insert("Doc", (7, 8, "gamma"))
        doc = inst("Doc", 1)
        query = BoundQuery.from_mapping(JoinTree.single(doc), {doc: "gamma"})
        assert "doc_1.oid IN" in render_sql(query, database.schema)
        with SqliteEngine(database) as engine:
            assert engine.is_alive(query)

    def test_all_row_id_names_declared_raises_at_load(self):
        database = doc_database("rowid", "_rowid_", "OID")
        with pytest.raises(SchemaError, match="cannot address its rows"):
            SqliteEngine(database)


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
