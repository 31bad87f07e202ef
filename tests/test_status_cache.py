"""Tests for persisted statuses: one fact per query, repair, Phase-3 skip."""

from __future__ import annotations

import hashlib
import json
import random
import sqlite3
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache import (
    CACHE_FILENAME,
    ProbeCache,
    StatusFact,
    fact_survives,
    query_cache_key,
)
from repro.core.constraints import SearchConstraints
from repro.core.debugger import NonAnswerDebugger
from repro.core.session import DebugSession
from repro.core.traversal import STRATEGY_NAMES
from repro.datasets.dblife import DBLifeConfig, dblife_database
from repro.datasets.products import product_database
from repro.obs import ProbeBudget, ProbeTracer
from repro.relational.database import MutationDirection
from repro.workloads.queries import TABLE2_QUERIES

from tests.test_properties import (
    COLOR_WORDS,
    SETTINGS,
    VOCAB,
    product_databases,
    random_queries,
)

INS = MutationDirection.INSERT_ONLY
DEL = MutationDirection.DELETE_ONLY
MIX = MutationDirection.MIXED


def fact(relations, alive, key="k"):
    return StatusFact(node_key=key, relations=tuple(relations), alive=alive)


# -------------------------------------------------------------- repair rule
class TestFactSurvives:
    def test_untouched_fact_is_exact(self):
        assert fact_survives(fact(["A"], True), {"B": MIX})
        assert fact_survives(fact(["A"], False), {"B": MIX})

    def test_alive_survives_insert_only(self):
        assert fact_survives(fact(["A"], True), {"A": INS})
        assert not fact_survives(fact(["A"], False), {"A": INS})

    def test_dead_survives_delete_only(self):
        assert fact_survives(fact(["A"], False), {"A": DEL})
        assert not fact_survives(fact(["A"], True), {"A": DEL})

    def test_mixed_kills_both_polarities(self):
        assert not fact_survives(fact(["A"], True), {"A": MIX})
        assert not fact_survives(fact(["A"], False), {"A": MIX})

    def test_conflicting_directions_kill(self):
        """A join path touching one insert-only and one delete-only
        relation has no monotone guarantee in either polarity."""
        directions = {"A": INS, "B": DEL}
        assert not fact_survives(fact(["A", "B"], True), directions)
        assert not fact_survives(fact(["A", "B"], False), directions)

    def test_multiple_same_direction_relations_survive(self):
        directions = {"A": INS, "B": INS}
        assert fact_survives(fact(["A", "B"], True), directions)


# ------------------------------------------------------------------- store
class TestStatusCache:
    KEYS = ["n1", "n2", "n3"]

    def facts(self):
        return [
            fact(["Item"], True, key="n1"),
            fact(["Item"], False, key="n2"),
            fact(["ProductType"], True, key="n3"),
        ]

    def test_save_load_exact_roundtrip(self, tmp_path):
        database = product_database()
        with ProbeCache.open_dir(tmp_path, database) as cache:
            assert cache.load(self.KEYS) is None
            assert cache.save(self.facts(), database.snapshot()) == 3
            load = cache.load(self.KEYS + ["unknown"])
            # A saved fact is a probe row: the evaluator's L2 reads it too.
            assert cache.counts() == {"probes": 3}
        assert load.dropped == 0
        assert set(load.facts) == set(self.facts())

    def test_persists_across_reopen(self, tmp_path):
        database = product_database()
        with ProbeCache.open_dir(tmp_path, database) as cache:
            cache.save(self.facts(), database.snapshot())
        with ProbeCache.open_dir(tmp_path, database) as reopened:
            load = reopened.load(self.KEYS)
            assert reopened.load(["n2"]).facts == (self.facts()[1],)
        assert load.dropped == 0
        assert set(load.facts) == set(self.facts())

    def test_stale_load_repairs_with_directions(self, tmp_path):
        database = product_database()
        with ProbeCache.open_dir(tmp_path, database) as cache:
            cache.save(self.facts(), database.snapshot())
            database.insert("Item", list(database.table("Item"))[0])
            load = cache.load(self.KEYS)
        # Item moved insert-only: alive-through-Item and untouched facts
        # survive; dead is dropped.
        assert {f.node_key for f in load.facts} == {"n1", "n3"}
        assert load.dropped == 1

    def test_last_save_wins_per_workload(self, tmp_path):
        """A save replaces only its own keys' rows: a later run that
        classified fewer of them drops none of the others."""
        database = product_database()
        flipped = fact(["Item"], False, key="n1")
        with ProbeCache.open_dir(tmp_path, database) as cache:
            cache.save(self.facts(), database.snapshot())
            assert cache.save([flipped], database.snapshot()) == 1
            assert cache.counts() == {"probes": 3}
            load = cache.load(self.KEYS)
        assert set(load.facts) == {flipped, *self.facts()[1:]}

    def test_workloads_count_runs_and_len_counts_facts(self, tmp_path):
        """``saves`` counts the runs that stored; the row count counts
        facts, one per query key however many runs classified it."""
        database = product_database()
        with ProbeCache.open_dir(tmp_path, database) as cache:
            cache.save(self.facts(), database.snapshot())
            # Another query's run sharing the query keyed n1.
            cache.save(self.facts()[:1], database.snapshot())
            cache.save(self.facts(), database.snapshot())
            assert cache.saves == 3
            assert cache.counts() == {"probes": 3}
            assert cache.stats().entries == 3

    def test_save_after_a_write_stores_nothing(self, tmp_path):
        database = product_database()
        with ProbeCache.open_dir(tmp_path, database) as cache:
            computed_on = database.snapshot()
            database.insert("Item", list(database.table("Item"))[0])
            assert cache.save(self.facts(), computed_on) == 0
            assert cache.saves == 0
            assert cache.load(self.KEYS) is None

    def test_clear_counts_before_delete(self, tmp_path):
        database = product_database()
        with ProbeCache.open_dir(tmp_path, database) as cache:
            cache.save(self.facts(), database.snapshot())
            assert cache.clear() == {"probes": 3}
            assert cache.load(self.KEYS) is None


# ----------------------------------------------------------- e2e + property
class TestPhase3Skip:
    QUERY = "saffron scented candle"

    def test_skip_emits_trace_event(self, tmp_path):
        database = product_database()
        with NonAnswerDebugger(
            database, max_joins=2, cache_dir=tmp_path
        ) as debugger:
            debugger.debug(self.QUERY)
        tracer = ProbeTracer()
        with NonAnswerDebugger(
            product_database(), max_joins=2, cache_dir=tmp_path, tracer=tracer
        ) as warm:
            warm.debug(self.QUERY)
        events = [
            r
            for r in tracer.records
            if getattr(r, "name", None) == "phase3_skipped"
        ]
        assert len(events) == 1
        assert events[0].attrs["facts"] > 0

    def test_skip_is_strategy_independent(self, tmp_path):
        with NonAnswerDebugger(
            product_database(), max_joins=2, cache_dir=tmp_path
        ) as cold:
            baseline = cold.debug(self.QUERY, strategy="bu")
        for name in STRATEGY_NAMES:
            with NonAnswerDebugger(
                product_database(), max_joins=2, cache_dir=tmp_path
            ) as warm:
                report = warm.debug(self.QUERY, strategy=name)
            assert report.traversal.stats.queries_executed == 0
            assert (
                report.traversal.classification_signature()
                == baseline.traversal.classification_signature()
            )

    @pytest.mark.parametrize(
        "constraints",
        [
            SearchConstraints(exclude_relations=frozenset({"Color"})),
            SearchConstraints(max_explanation_level=2),
        ],
        ids=["exclude", "level"],
    )
    def test_constrained_debug_skips_after_unconstrained(self, tmp_path, constraints):
        """A constrained graph's nodes are queries the full run classified."""
        with NonAnswerDebugger(
            product_database(), max_joins=2, cache_dir=tmp_path
        ) as first:
            first.debug(self.QUERY)
        cold = NonAnswerDebugger(product_database(), max_joins=2)
        warm = NonAnswerDebugger(product_database(), max_joins=2, cache_dir=tmp_path)
        try:
            for name in STRATEGY_NAMES:
                tracer = ProbeTracer()
                report = warm.debug(
                    self.QUERY, strategy=name, constraints=constraints, tracer=tracer
                )
                reference = cold.debug(
                    self.QUERY, strategy=name, constraints=constraints
                )
                assert "phase3_skipped" in event_names(tracer), name
                assert report.traversal.stats.queries_executed == 0, name
                assert (
                    report.traversal.classification_signature()
                    == reference.traversal.classification_signature()
                ), name
                assert explanation_texts(report) == explanation_texts(reference)
        finally:
            cold.close()
            warm.close()

    def test_constrained_session_keeps_the_full_runs_facts(self, tmp_path):
        """A constrained session saves its own keys and drops no others,
        so the next unconstrained run still skips Phase 3."""
        constraints = SearchConstraints(exclude_relations=frozenset({"Color"}))
        with NonAnswerDebugger(
            product_database(), max_joins=2, cache_dir=tmp_path
        ) as debugger:
            full = debugger.debug(self.QUERY)
            with DebugSession(debugger, self.QUERY, constraints) as session:
                # Only its own graph's facts: 12 nodes, all classified.
                assert len(session.graph) < len(full.graph)
                assert session.preloaded == len(session.graph)
                session.explain_all()
            tracer = ProbeTracer()
            report = debugger.debug(self.QUERY, tracer=tracer)
        assert "phase3_skipped" in event_names(tracer)
        assert report.traversal.stats.queries_executed == 0
        assert (
            report.traversal.classification_signature()
            == full.traversal.classification_signature()
        )

    def test_budget_exhausted_run_is_persisted(self, tmp_path):
        """A partial sweep saves what it classified; the next run, with
        no budget, finishes from there and matches a cold one."""
        with NonAnswerDebugger(product_database(), max_joins=2) as plain:
            cold = plain.debug(self.QUERY)
        with NonAnswerDebugger(
            product_database(), max_joins=2, cache_dir=tmp_path
        ) as debugger:
            partial = debugger.debug(self.QUERY, budget=ProbeBudget(max_queries=3))
            assert partial.traversal.exhausted
            assert partial.traversal.dead_mtns  # at least one MTN classified
            assert debugger.cache.saves == 1
            keys = debugger.node_keys(partial.graph)
            load = debugger.cache.load(keys)
            saved = {fact.node_key: fact.alive for fact in load.facts}
            for mtn_index in partial.traversal.dead_mtns:
                assert saved[keys[mtn_index]] is False
            for mtn_index in partial.traversal.alive_mtns:
                assert saved[keys[mtn_index]] is True
            report = debugger.debug(self.QUERY)
        assert 0 < report.traversal.stats.queries_executed
        assert report.traversal.stats.queries_executed < (
            cold.traversal.stats.queries_executed
        )
        assert (
            report.traversal.classification_signature()
            == cold.traversal.classification_signature()
        )
        assert explanation_texts(report) == explanation_texts(cold)

    def test_session_left_open_across_a_write_saves_nothing(self, tmp_path):
        """Facts learned before a delete are not stamped with the state
        after it: the next run matches a cache-less one on the same rows."""
        database = product_database()
        with NonAnswerDebugger(database, max_joins=2, cache_dir=tmp_path) as debugger:
            session = DebugSession(debugger, self.QUERY)
            session.explain_all()
            database.table("Item").delete(2)
            debugger.refresh_after_mutation()
            session.close()
            report = debugger.debug(self.QUERY)
        with NonAnswerDebugger(database, max_joins=2) as plain:
            reference = plain.debug(self.QUERY)
        assert [query.describe() for query in report.answers()] == [
            query.describe() for query in reference.answers()
        ]
        assert (
            report.traversal.classification_signature()
            == reference.traversal.classification_signature()
        )
        assert explanation_texts(report) == explanation_texts(reference)


def event_names(tracer):
    return [getattr(record, "name", None) for record in tracer.records]


def explanation_texts(report):
    return [
        (query.describe_full(), [mpan.describe_full() for mpan in mpans])
        for query, mpans in report.explanations()
    ]


class TestSkipAfterWrite:
    """One rule: replayed facts that resolve the graph skip Phase 3, also
    after a write changed the database's snapshot."""

    @pytest.mark.parametrize("qid", ["Q1", "Q3"])
    def test_nonce_topic_insert_still_skips(self, tmp_path, qid):
        (text,) = [query.text for query in TABLE2_QUERIES if query.qid == qid]
        database = dblife_database(DBLifeConfig(seed=42, scale=1))
        options = dict(max_joins=3, use_lattice=False)
        with NonAnswerDebugger(database, cache_dir=tmp_path, **options) as first:
            first.debug(text)
        # The answer-neutral write perfbench sends between sessions: a
        # Topic row carrying a token no query uses.
        database.table("Topic").insert([900_000_000, "zzbenchwrite17x0"])
        cold = NonAnswerDebugger(database, **options)
        warm = NonAnswerDebugger(database, cache_dir=tmp_path, **options)
        try:
            for name in STRATEGY_NAMES:
                tracer = ProbeTracer()
                report = warm.debug(text, strategy=name, tracer=tracer)
                reference = cold.debug(text, strategy=name)
                assert "phase3_skipped" in event_names(tracer), name
                assert report.traversal.stats.queries_executed == 0
                assert (
                    report.traversal.classification_signature()
                    == reference.traversal.classification_signature()
                ), name
                assert explanation_texts(report) == explanation_texts(reference)
        finally:
            cold.close()
            warm.close()


class TestCorruptFacts:
    """A fact that disagrees with a known status discards the whole set.

    Each test flips rows no sweep reads through the L2 tier -- base nodes
    the catalog classifies, or a node the cold run inferred -- so the
    sweep after the discard still answers from the untouched probe rows.
    """

    QUERY = "saffron scented candle"

    def cold_run(self, cache_dir):
        with NonAnswerDebugger(
            product_database(), max_joins=2, cache_dir=cache_dir
        ) as cold:
            return cold.debug(self.QUERY)

    @staticmethod
    def flip(cache_dir, graph, indexes):
        schema = product_database().schema
        keys = [query_cache_key(graph.node(index).query, schema) for index in indexes]
        connection = sqlite3.connect(str(cache_dir / CACHE_FILENAME))
        try:
            connection.executemany(
                "UPDATE probes SET alive = 1 - alive WHERE query_key = ?",
                [(key,) for key in keys],
            )
            connection.commit()
        finally:
            connection.close()

    def flip_base_rows(self, cache_dir, cold):
        """Every level-1 row, which the catalog seeding contradicts."""
        self.flip(cache_dir, cold.graph, cold.graph.level_indexes(1))

    def warm_run(self, cache_dir):
        tracer = ProbeTracer()
        with NonAnswerDebugger(
            product_database(), max_joins=2, cache_dir=cache_dir, tracer=tracer
        ) as warm:
            return warm.debug(self.QUERY), event_names(tracer)

    def assert_traversed_cold(self, cold, cache_dir):
        report, names = self.warm_run(cache_dir)
        assert "phase3_skipped" not in names and "status_preload" not in names
        assert (
            report.traversal.classification_signature()
            == cold.traversal.classification_signature()
        )
        assert explanation_texts(report) == explanation_texts(cold)
        # The probed rows were left alone, so the L2 tier answers the sweep.
        assert report.traversal.stats.queries_executed == 0
        assert report.traversal.stats.l2_hits > 0

    def test_flipped_file_traverses_cold(self, tmp_path):
        cold = self.cold_run(tmp_path)
        self.flip_base_rows(tmp_path, cold)
        self.assert_traversed_cold(cold, tmp_path)

    def test_facts_contradicting_each_other_traverse_cold(self, tmp_path):
        """No base node involved: one inferred level-2 fact under an alive
        MTN."""
        cold = self.cold_run(tmp_path)
        graph = cold.graph
        (alive_mtn,) = cold.traversal.alive_mtns
        evaluated = cold.traversal.stores[alive_mtn].evaluated_mask
        child = next(
            index
            for index in graph.bits(graph.desc_mask[alive_mtn])
            if graph.node(index).level == 2 and not (evaluated >> index) & 1
        )
        self.flip(tmp_path, graph, [child])
        self.assert_traversed_cold(cold, tmp_path)

    def test_session_starts_from_its_seeded_store(self, tmp_path):
        with NonAnswerDebugger(product_database(), max_joins=2) as plain:
            with DebugSession(plain, self.QUERY) as reference:
                seeded = (reference.store.alive_mask, reference.store.dead_mask)
                expected = {
                    position: [mpan.describe_full() for mpan in mpans]
                    for position, mpans in reference.explain_all().items()
                }
        self.flip_base_rows(tmp_path, self.cold_run(tmp_path))
        with NonAnswerDebugger(
            product_database(), max_joins=2, cache_dir=tmp_path
        ) as warm:
            with DebugSession(warm, self.QUERY) as session:
                assert session.preloaded == 0
                assert (session.store.alive_mask, session.store.dead_mask) == seeded
                explained = session.explain_all()
        assert {
            position: [mpan.describe_full() for mpan in mpans]
            for position, mpans in explained.items()
        } == expected


class TestCorruptSnapshot:
    """A missing or undecodable ``snapshots`` row: nothing stamped with it
    survives, so the next run traverses cold."""

    QUERY = "saffron scented candle"

    @pytest.mark.parametrize(
        "corrupt",
        ["UPDATE snapshots SET state = '{'", "DELETE FROM snapshots"],
        ids=["undecodable", "missing"],
    )
    def test_next_debug_traverses_cold(self, tmp_path, corrupt):
        with NonAnswerDebugger(
            product_database(), max_joins=2, cache_dir=tmp_path
        ) as first:
            cold = first.debug(self.QUERY)
        connection = sqlite3.connect(str(tmp_path / CACHE_FILENAME))
        try:
            # One snapshot stamps every probe row and the run.
            assert connection.execute(
                "SELECT COUNT(*) FROM snapshots"
            ).fetchone() == (1,)
            connection.execute(corrupt)
            connection.commit()
        finally:
            connection.close()
        tracer = ProbeTracer()
        with NonAnswerDebugger(
            product_database(), max_joins=2, cache_dir=tmp_path, tracer=tracer
        ) as warm:
            report = warm.debug(self.QUERY)
        assert "phase3_skipped" not in event_names(tracer)
        stats = report.traversal.stats
        assert stats.queries_executed == cold.traversal.stats.queries_executed
        assert stats.l2_hits == 0
        assert (
            report.traversal.classification_signature()
            == cold.traversal.classification_signature()
        )
        assert explanation_texts(report) == explanation_texts(cold)


#: The version-1 layout: ``runs.complete`` and ``status_facts.evaluated``.
VERSION_ONE_SCHEMA = """
CREATE TABLE meta (key TEXT NOT NULL PRIMARY KEY, value TEXT NOT NULL)
    WITHOUT ROWID;
CREATE TABLE probes (
    vector_key TEXT NOT NULL, query_key TEXT NOT NULL,
    alive INTEGER NOT NULL, relations TEXT NOT NULL,
    PRIMARY KEY (vector_key, query_key)) WITHOUT ROWID;
CREATE TABLE runs (
    workload_key TEXT NOT NULL PRIMARY KEY, snapshot TEXT NOT NULL,
    complete INTEGER NOT NULL) WITHOUT ROWID;
CREATE TABLE status_facts (
    workload_key TEXT NOT NULL, node_key TEXT NOT NULL,
    alive INTEGER NOT NULL, evaluated INTEGER NOT NULL,
    relations TEXT NOT NULL,
    PRIMARY KEY (workload_key, node_key)) WITHOUT ROWID;
"""

#: The version-2 layout: probes keyed by (vector, query), each run's
#: snapshot stored inline.
VERSION_TWO_SCHEMA = """
CREATE TABLE meta (key TEXT NOT NULL PRIMARY KEY, value TEXT NOT NULL)
    WITHOUT ROWID;
CREATE TABLE probes (
    vector_key TEXT NOT NULL, query_key TEXT NOT NULL,
    alive INTEGER NOT NULL, relations TEXT NOT NULL,
    PRIMARY KEY (vector_key, query_key)) WITHOUT ROWID;
CREATE TABLE runs (
    workload_key TEXT NOT NULL PRIMARY KEY, snapshot TEXT NOT NULL)
    WITHOUT ROWID;
CREATE TABLE status_facts (
    workload_key TEXT NOT NULL, node_key TEXT NOT NULL,
    alive INTEGER NOT NULL, relations TEXT NOT NULL,
    PRIMARY KEY (workload_key, node_key)) WITHOUT ROWID;
"""

#: The version-3 layout: probes keyed by query alone, snapshots stored
#: once, and each workload's facts kept a second time in ``status_facts``
#: under its ``runs`` row.
VERSION_THREE_SCHEMA = """
CREATE TABLE meta (key TEXT NOT NULL PRIMARY KEY, value TEXT NOT NULL)
    WITHOUT ROWID;
CREATE TABLE snapshots (
    id INTEGER PRIMARY KEY AUTOINCREMENT, state TEXT NOT NULL UNIQUE);
CREATE TABLE probes (
    query_key TEXT NOT NULL PRIMARY KEY, alive INTEGER NOT NULL,
    relations TEXT NOT NULL,
    snapshot INTEGER NOT NULL REFERENCES snapshots (id)) WITHOUT ROWID;
CREATE TABLE runs (
    workload_key TEXT NOT NULL PRIMARY KEY,
    snapshot INTEGER NOT NULL REFERENCES snapshots (id)) WITHOUT ROWID;
CREATE TABLE status_facts (
    workload_key TEXT NOT NULL, node_key TEXT NOT NULL,
    alive INTEGER NOT NULL, relations TEXT NOT NULL,
    PRIMARY KEY (workload_key, node_key)) WITHOUT ROWID;
"""


def write_old_cache(directory, version, state, rows):
    """A ``cache.sqlite`` at layout ``version`` (1-3) holding ``rows``.

    ``rows`` are ``(query_key, alive, relations)`` triples, stored both as
    probe answers and as the facts of one workload, all under the
    database snapshot ``state``.
    """
    fingerprints = {
        relation: fingerprint
        for relation, fingerprint, *_ in json.loads(state)["relations"]
    }

    def vector(label):
        # Versions 1 and 2 namespaced each probe by the digest of the
        # (relation, fingerprint) pairs of its join path.
        payload = "|".join(f"{name}:{fingerprints[name]}" for name in label.split(","))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    directory.mkdir(parents=True, exist_ok=True)
    old = sqlite3.connect(str(directory / CACHE_FILENAME))
    try:
        facts = [("w", key, alive, label) for key, alive, label in rows]
        if version == 3:
            old.executescript(VERSION_THREE_SCHEMA)
            old.execute("INSERT INTO snapshots (id, state) VALUES (1, ?)", (state,))
            old.execute("INSERT INTO meta VALUES ('schema_version', '3')")
            old.executemany("INSERT INTO probes VALUES (?, ?, ?, 1)", rows)
            old.execute("INSERT INTO runs VALUES ('w', 1)")
            old.executemany("INSERT INTO status_facts VALUES (?, ?, ?, ?)", facts)
        else:
            old.executescript(
                VERSION_ONE_SCHEMA if version == 1 else VERSION_TWO_SCHEMA
            )
            old.executemany(
                "INSERT INTO meta VALUES (?, ?)",
                [("schema_version", str(version)), ("snapshot", state)],
            )
            old.executemany(
                "INSERT INTO probes VALUES (?, ?, ?, ?)",
                [(vector(label), key, alive, label) for key, alive, label in rows],
            )
            if version == 1:
                old.execute("INSERT INTO runs VALUES ('w', ?, 1)", (state,))
                old.executemany(
                    "INSERT INTO status_facts VALUES (?, ?, ?, 1, ?)", facts
                )
            else:
                old.execute("INSERT INTO runs VALUES ('w', ?)", (state,))
                old.executemany("INSERT INTO status_facts VALUES (?, ?, ?, ?)", facts)
        # A table no layout ever had: a mismatched file loses it too.
        old.execute("CREATE TABLE leftover (x)")
        old.commit()
    finally:
        old.close()


class TestSchemaMigration:
    QUERY = "saffron scented candle"

    def test_version_one_file_is_rebuilt(self, tmp_path):
        self.assert_rebuilt(tmp_path, 1)

    def test_version_two_file_is_rebuilt(self, tmp_path):
        self.assert_rebuilt(tmp_path, 2)

    def test_version_three_file_is_rebuilt(self, tmp_path):
        self.assert_rebuilt(tmp_path, 3)

    def assert_rebuilt(self, tmp_path, version):
        # An older file whose every answer is wrong for this database:
        # reading any of it would misclassify.
        source = tmp_path / "source"
        with NonAnswerDebugger(
            product_database(), max_joins=2, cache_dir=source
        ) as cold:
            reference = cold.debug(self.QUERY)
        current = sqlite3.connect(str(source / CACHE_FILENAME))
        try:
            rows = current.execute(
                "SELECT query_key, 1 - alive, relations FROM probes"
            ).fetchall()
            ((state,),) = current.execute("SELECT state FROM snapshots").fetchall()
        finally:
            current.close()
        target = tmp_path / f"v{version}"
        write_old_cache(target, version, state, rows)

        tracer = ProbeTracer()
        with NonAnswerDebugger(
            product_database(), max_joins=2, cache_dir=target, tracer=tracer
        ) as warm:
            assert warm.cache.counts() == {"probes": 0}
            report = warm.debug(self.QUERY)
        assert "phase3_skipped" not in event_names(tracer)
        assert "status_preload" not in event_names(tracer)
        stats = report.traversal.stats
        assert stats.queries_executed == reference.traversal.stats.queries_executed
        assert stats.l2_hits == 0
        assert (
            report.traversal.classification_signature()
            == reference.traversal.classification_signature()
        )
        rebuilt = sqlite3.connect(str(target / CACHE_FILENAME))
        try:
            stored = rebuilt.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
            tables = {
                name
                for (name,) in rebuilt.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'table'"
                )
            }
            columns = {
                table: [
                    row[1] for row in rebuilt.execute(f"PRAGMA table_info({table})")
                ]
                for table in ("probes", "snapshots")
            }
        finally:
            rebuilt.close()
        assert stored == ("4",)
        assert tables - {"sqlite_sequence"} == {"meta", "snapshots", "probes"}
        assert columns == {
            "probes": ["query_key", "alive", "relations", "snapshot"],
            "snapshots": ["id", "state"],
        }


#: Insert/delete bursts on ``Item`` (see :func:`mutate_item`).
BURSTS = st.lists(
    st.tuples(st.sampled_from(["insert", "delete"]), st.integers(0, 7)),
    max_size=3,
)


class TestMutationProperty:
    """The ISSUE's correctness bar: mutate-then-debug classifications are
    byte-identical to a cold recompute, for every strategy, across random
    insert/delete sequences, with and without budget exhaustion."""

    @SETTINGS
    @given(
        database=product_databases(),
        seed=st.integers(0, 10_000),
        mutations=st.lists(
            st.tuples(
                st.sampled_from(["insert", "delete"]),
                st.integers(0, 7),
            ),
            min_size=1,
            max_size=4,
        ),
        cap=st.integers(0, 12),
    )
    def test_repaired_sessions_match_cold_recompute(
        self, database, seed, mutations, cap
    ):
        cache_dir = tempfile.mkdtemp()
        text = random_queries(database, seed, count=1)[0]
        with NonAnswerDebugger(
            database, max_joins=2, cache_dir=cache_dir
        ) as first:
            mapping = first.map_keywords(text)
            if not mapping.complete or not mapping.keywords:
                return
            first.debug(text)

        # A random insert/delete burst on the live database between the
        # two debug sessions.
        for kind, pick in mutations:
            mutate_item(database, kind, pick)

        cold = NonAnswerDebugger(database, max_joins=2)
        warm = NonAnswerDebugger(database, max_joins=2, cache_dir=cache_dir)
        try:
            for name in STRATEGY_NAMES:
                # When the mutations removed a keyword from the database,
                # both sessions must abort identically.
                assert_same_outputs(
                    warm.debug(text, strategy=name),
                    cold.debug(text, strategy=name),
                    (text, name, mutations),
                )
            # Budgeted warm runs must stay sound prefixes of the cold
            # ground truth even when cache hits stretch the budget.
            budgeted = warm.debug(text, budget=ProbeBudget(max_queries=cap))
            assert_sound_prefix(budgeted, cold.debug(text))
        finally:
            cold.close()
            warm.close()

    @SETTINGS
    @given(
        database=product_databases(),
        seed=st.integers(0, 10_000),
        steps=st.lists(
            st.one_of(
                st.tuples(
                    st.just("debug"),
                    st.integers(0, 2),
                    st.sampled_from([None, "Color", "Attribute", "ProductType"]),
                ),
                st.tuples(st.just("budget"), st.integers(0, 2), st.integers(0, 8)),
                st.tuples(
                    st.just("session"),
                    st.integers(0, 2),
                    st.sampled_from([None, "Color", "Attribute", "ProductType"]),
                    BURSTS,
                ),
                st.tuples(st.just("write"), BURSTS),
            ),
            min_size=2,
            max_size=6,
        ),
    )
    def test_queries_sharing_one_cache_match_cold(self, database, seed, steps):
        """Facts cross queries: 2-3 queries sharing a keyword debug against
        one cache dir, interleaved with exclusion constraints, budget caps,
        interactive sessions (each closed after an optional write burst)
        and write bursts.  Every run must equal a cache-less debugger's."""
        rng = random.Random(seed)
        shared, *others = rng.sample(VOCAB + COLOR_WORDS, 4)
        queries = [
            " ".join([shared, *rng.sample(others, rng.randint(0, 2))])
            for _ in range(rng.randint(2, 3))
        ]
        cache_dir = tempfile.mkdtemp()
        cold = NonAnswerDebugger(database, max_joins=2)
        warm = NonAnswerDebugger(database, max_joins=2, cache_dir=cache_dir)

        def write(burst):
            for kind, pick in burst:
                mutate_item(database, kind, pick)
            cold.refresh_after_mutation()
            warm.refresh_after_mutation()

        try:
            for kind, *args in steps:
                if kind == "write":
                    write(args[0])
                    continue
                text = queries[args[0] % len(queries)]
                if kind == "budget":
                    budgeted = warm.debug(text, budget=ProbeBudget(max_queries=args[1]))
                    assert_sound_prefix(budgeted, cold.debug(text))
                    continue
                constraints = SearchConstraints(
                    exclude_relations=frozenset([args[1]] if args[1] else [])
                )
                if kind == "debug" or not cold.map_keywords(text).complete:
                    for name in STRATEGY_NAMES:
                        assert_same_outputs(
                            warm.debug(text, strategy=name, constraints=constraints),
                            cold.debug(text, strategy=name, constraints=constraints),
                            (queries, kind, args, name),
                        )
                    continue
                with DebugSession(warm, text, constraints) as session:
                    with DebugSession(cold, text, constraints) as reference:
                        assert session.explain_all() == reference.explain_all()
                    # A write while the session is still open: what it
                    # learned before must not be saved as current.
                    if args[2]:
                        write(args[2])
            # Whatever the sequence saved, a last unconstrained pass over
            # every query still matches.
            for text in queries:
                for name in STRATEGY_NAMES:
                    assert_same_outputs(
                        warm.debug(text, strategy=name),
                        cold.debug(text, strategy=name),
                        (queries, text, name),
                    )
        finally:
            cold.close()
            warm.close()


def mutate_item(database, kind, pick):
    """One insert or delete on ``Item``, as the mutation properties make."""
    item = database.table("Item")
    if kind == "insert" or len(item) == 0:
        word = ("saffron", "vanilla candle", "rose oil")[pick % 3]
        database.insert("Item", (len(item) + 100, word, None, None, None, 1.0, "scented"))
    else:
        database.delete("Item", pick % len(item))


def assert_same_outputs(report, expected, context):
    """Same classification signature and MPANs as the cache-less run."""
    if expected.traversal is None:
        assert report.traversal is None, context
        return
    assert (
        report.traversal.classification_signature()
        == expected.traversal.classification_signature()
    ), context
    assert sorted(report.traversal.mpans.items()) == sorted(
        expected.traversal.mpans.items()
    ), context


def assert_sound_prefix(budgeted, reference):
    """A budgeted run classifies a subset of the full run, identically."""
    if reference.traversal is None:
        assert budgeted.traversal is None
        return
    partial, full = budgeted.traversal, reference.traversal
    assert set(partial.alive_mtns) <= set(full.alive_mtns)
    assert set(partial.dead_mtns) <= set(full.dead_mtns)
    for mtn_index, mpans in partial.mpans.items():
        assert sorted(mpans) == sorted(full.mpans[mtn_index])
