"""Tests for the persisted StatusStore: save/load, repair, Phase-3 skip."""

from __future__ import annotations

import hashlib
import json
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
    workload_cache_key,
)
from repro.core.debugger import NonAnswerDebugger
from repro.core.session import DebugSession
from repro.core.traversal import STRATEGY_NAMES
from repro.datasets.dblife import DBLifeConfig, dblife_database
from repro.datasets.products import product_database
from repro.obs import ProbeBudget, ProbeTracer
from repro.relational.database import MutationDirection
from repro.workloads.queries import TABLE2_QUERIES

from tests.test_properties import SETTINGS, product_databases, random_queries

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


class TestWorkloadKey:
    def test_token_order_and_case_insensitive(self):
        one = workload_cache_key(["Saffron", "candle"], "token", 2, 3, 1)
        two = workload_cache_key(["CANDLE", "saffron"], "token", 2, 3, 1)
        assert one == two

    def test_casefold_not_just_lower(self):
        # German sharp s: casefold maps both spellings to "strasse".
        assert workload_cache_key(["STRASSE"], "token", 2, 3, 1) == (
            workload_cache_key(["straße"], "token", 2, 3, 1)
        )

    def test_lattice_shape_is_part_of_the_key(self):
        base = workload_cache_key(["a"], "token", 2, 3, 1)
        assert workload_cache_key(["a"], "substring", 2, 3, 1) != base
        assert workload_cache_key(["a"], "token", 3, 3, 1) != base
        assert workload_cache_key(["a"], "token", 2, 4, 1) != base
        assert workload_cache_key(["a"], "token", 2, 3, 2) != base


# ------------------------------------------------------------------- store
class TestStatusCache:
    def facts(self):
        return [
            fact(["Item"], True, key="n1"),
            fact(["Item"], False, key="n2"),
            fact(["ProductType"], True, key="n3"),
        ]

    def test_save_load_exact_roundtrip(self, tmp_path):
        database = product_database()
        with ProbeCache.open_dir(tmp_path, database) as cache:
            assert cache.load("w") is None
            assert cache.save("w", self.facts()) == 3
            load = cache.load("w")
        assert load.workload_key == "w"
        assert load.directions == {} and load.dropped == 0
        assert list(load.facts) == sorted(self.facts(), key=lambda f: f.node_key)

    def test_persists_across_reopen(self, tmp_path):
        database = product_database()
        with ProbeCache.open_dir(tmp_path, database) as cache:
            cache.save("w", self.facts())
        with ProbeCache.open_dir(tmp_path, database) as reopened:
            load = reopened.load("w")
        assert load.directions == {} and load.dropped == 0
        assert set(load.facts) == set(self.facts())

    def test_stale_load_repairs_with_directions(self, tmp_path):
        database = product_database()
        with ProbeCache.open_dir(tmp_path, database) as cache:
            cache.save("w", self.facts())
            database.insert("Item", list(database.table("Item"))[0])
            load = cache.load("w")
        assert load.directions == {"Item": "insert_only"}
        # Alive-through-Item and untouched facts survive; dead is dropped.
        assert {f.node_key for f in load.facts} == {"n1", "n3"}
        assert load.dropped == 1

    def test_last_save_wins_per_workload(self, tmp_path):
        database = product_database()
        with ProbeCache.open_dir(tmp_path, database) as cache:
            cache.save("w", self.facts())
            cache.save("w", self.facts()[:1])
            assert cache.counts()["facts"] == 1
            load = cache.load("w")
        assert [f.node_key for f in load.facts] == ["n1"]

    def test_workloads_count_runs_and_len_counts_facts(self, tmp_path):
        with ProbeCache.open_dir(tmp_path, product_database()) as cache:
            cache.save("w", self.facts())
            cache.save("v", self.facts()[:1])
            cache.save("w", self.facts())
            counts = cache.counts()
            assert counts["workloads"] == 2
            assert counts["facts"] == 4

    def test_clear_counts_before_delete(self, tmp_path):
        with ProbeCache.open_dir(tmp_path, product_database()) as cache:
            cache.save("w", self.facts())
            assert cache.clear() == {"probes": 0, "workloads": 1, "facts": 3}
            assert cache.load("w") is None


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

    def test_constrained_debug_never_skips_or_saves(self, tmp_path):
        from repro.core.constraints import SearchConstraints

        constraints = SearchConstraints(exclude_relations=frozenset({"Color"}))
        with NonAnswerDebugger(
            product_database(), max_joins=2, cache_dir=tmp_path
        ) as debugger:
            debugger.debug(self.QUERY, constraints=constraints)
            assert debugger.cache.saves == 0
            debugger.debug(self.QUERY)
            assert debugger.cache.saves == 1
            report = debugger.debug(self.QUERY, constraints=constraints)
            assert debugger.cache.saves == 1  # still only the full run
        # The constrained graph was traversed for real, not skipped: its
        # probes ran (answered by the L2 tier, not implied from facts).
        assert report.traversal.stats.cache_hits > 0

    def test_budget_exhausted_run_is_not_persisted(self, tmp_path):
        with NonAnswerDebugger(
            product_database(), max_joins=2, cache_dir=tmp_path
        ) as debugger:
            report = debugger.debug(self.QUERY, budget=ProbeBudget(max_queries=1))
            assert report.traversal.exhausted
            assert debugger.cache.saves == 0


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
    """A fact that disagrees with a known status discards the whole set."""

    QUERY = "saffron scented candle"

    def cold_run(self, cache_dir):
        with NonAnswerDebugger(
            product_database(), max_joins=2, cache_dir=cache_dir
        ) as cold:
            return cold.debug(self.QUERY)

    @staticmethod
    def flip(cache_dir, where="", params=()):
        connection = sqlite3.connect(str(cache_dir / CACHE_FILENAME))
        try:
            connection.execute(
                f"UPDATE status_facts SET alive = 1 - alive {where}", params
            )
            connection.commit()
        finally:
            connection.close()

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
        # The probe rows were left alone, so the L2 tier answers the sweep.
        assert report.traversal.stats.queries_executed == 0
        assert report.traversal.stats.l2_hits > 0

    def test_flipped_file_traverses_cold(self, tmp_path):
        cold = self.cold_run(tmp_path)
        self.flip(tmp_path)
        self.assert_traversed_cold(cold, tmp_path)

    def test_facts_contradicting_each_other_traverse_cold(self, tmp_path):
        """No base node involved: one level-2 fact under an alive MTN."""
        cold = self.cold_run(tmp_path)
        graph = cold.graph
        (alive_mtn,) = cold.traversal.alive_mtns
        child = next(
            index
            for index in graph.bits(graph.desc_mask[alive_mtn])
            if graph.node(index).level == 2
        )
        key = query_cache_key(graph.node(child).query, product_database().schema)
        self.flip(tmp_path, "WHERE node_key = ?", (key,))
        self.assert_traversed_cold(cold, tmp_path)

    def test_session_starts_from_its_seeded_store(self, tmp_path):
        with NonAnswerDebugger(product_database(), max_joins=2) as plain:
            with DebugSession(plain, self.QUERY) as reference:
                seeded = (reference.store.alive_mask, reference.store.dead_mask)
                expected = {
                    position: [mpan.describe_full() for mpan in mpans]
                    for position, mpans in reference.explain_all().items()
                }
        self.cold_run(tmp_path)
        self.flip(tmp_path)
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


class TestSchemaMigration:
    QUERY = "saffron scented candle"

    def test_version_one_file_is_rebuilt(self, tmp_path):
        self.assert_rebuilt(tmp_path, 1)

    def test_version_two_file_is_rebuilt(self, tmp_path):
        self.assert_rebuilt(tmp_path, 2)

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
            probes = current.execute(
                "SELECT query_key, alive, relations FROM probes"
            ).fetchall()
            runs = current.execute(
                "SELECT workload_key, state FROM runs "
                "JOIN snapshots ON snapshots.id = runs.snapshot"
            ).fetchall()
            facts = current.execute("SELECT * FROM status_facts").fetchall()
        finally:
            current.close()
        # Versions 1 and 2 namespaced each probe by the digest of the
        # (relation, fingerprint) pairs of its join path, and kept the
        # file's snapshot in ``meta``.
        ((_, state),) = runs
        fingerprints = {
            relation: fingerprint
            for relation, fingerprint, *_ in json.loads(state)["relations"]
        }

        def vector(label):
            payload = "|".join(
                f"{name}:{fingerprints[name]}" for name in label.split(",")
            )
            return hashlib.sha256(payload.encode("utf-8")).hexdigest()

        target = tmp_path / f"v{version}"
        target.mkdir()
        old = sqlite3.connect(str(target / CACHE_FILENAME))
        try:
            old.executescript(
                VERSION_ONE_SCHEMA if version == 1 else VERSION_TWO_SCHEMA
            )
            old.executemany(
                "INSERT INTO meta VALUES (?, ?)",
                [("schema_version", str(version)), ("snapshot", state)],
            )
            old.executemany(
                "INSERT INTO probes VALUES (?, ?, ?, ?)",
                [(vector(rel), key, 1 - alive, rel) for key, alive, rel in probes],
            )
            flipped = [(run, key, 1 - alive, rel) for run, key, alive, rel in facts]
            if version == 1:
                old.executemany("INSERT INTO runs VALUES (?, ?, 1)", runs)
                old.executemany(
                    "INSERT INTO status_facts VALUES (?, ?, ?, 1, ?)", flipped
                )
            else:
                old.executemany("INSERT INTO runs VALUES (?, ?)", runs)
                old.executemany(
                    "INSERT INTO status_facts VALUES (?, ?, ?, ?)", flipped
                )
            old.commit()
        finally:
            old.close()

        tracer = ProbeTracer()
        with NonAnswerDebugger(
            product_database(), max_joins=2, cache_dir=target, tracer=tracer
        ) as warm:
            assert warm.cache.counts() == {"probes": 0, "workloads": 0, "facts": 0}
            report = warm.debug(self.QUERY)
        assert "phase3_skipped" not in event_names(tracer)
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
            columns = {
                table: [
                    row[1] for row in rebuilt.execute(f"PRAGMA table_info({table})")
                ]
                for table in ("probes", "runs", "status_facts", "snapshots")
            }
        finally:
            rebuilt.close()
        assert stored == ("3",)
        assert columns == {
            "probes": ["query_key", "alive", "relations", "snapshot"],
            "runs": ["workload_key", "snapshot"],
            "status_facts": ["workload_key", "node_key", "alive", "relations"],
            "snapshots": ["id", "state"],
        }


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
        item = database.table("Item")
        for kind, pick in mutations:
            if kind == "insert" or len(item) == 0:
                row = (
                    len(item) + 100,
                    ("saffron", "vanilla candle", "rose oil")[pick % 3],
                    None,
                    None,
                    None,
                    1.0,
                    "scented",
                )
                database.insert("Item", row)
            else:
                database.delete("Item", pick % len(item))

        cold = NonAnswerDebugger(database, max_joins=2)
        warm = NonAnswerDebugger(database, max_joins=2, cache_dir=cache_dir)
        try:
            for name in STRATEGY_NAMES:
                cold_report = cold.debug(text, strategy=name)
                warm_report = warm.debug(text, strategy=name)
                if cold_report.traversal is None:
                    # The mutations removed a keyword from the database:
                    # both sessions must abort identically.
                    assert warm_report.traversal is None
                    return
                assert (
                    warm_report.traversal.classification_signature()
                    == cold_report.traversal.classification_signature()
                ), (text, name, mutations)
                assert sorted(warm_report.traversal.mpans.items()) == (
                    sorted(cold_report.traversal.mpans.items())
                ), (text, name, mutations)
            # Budgeted warm runs must stay sound prefixes of the cold
            # ground truth even when cache hits stretch the budget.
            reference = cold.debug(text)
            budgeted = warm.debug(text, budget=ProbeBudget(max_queries=cap))
            partial = budgeted.traversal
            full = reference.traversal
            assert set(partial.alive_mtns) <= set(full.alive_mtns)
            assert set(partial.dead_mtns) <= set(full.dead_mtns)
            for mtn_index, mpans in partial.mpans.items():
                assert sorted(mpans) == sorted(full.mpans[mtn_index])
        finally:
            cold.close()
            warm.close()
