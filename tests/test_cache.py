"""Tests for the persistent cache store (identity, judging, warm starts)."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.bench.context import BenchContext
from repro.cache import (
    CACHE_SCHEMA_VERSION,
    ProbeCache,
    ProbeCacheError,
    clear_cache_dir,
    inspect_cache_dir,
)
from repro.cache.keys import query_cache_key
from repro.core.debugger import NonAnswerDebugger
from repro.core.session import DebugSession
from repro.core.traversal import STRATEGY_NAMES, get_strategy
from repro.datasets.dblife import DBLifeConfig, dblife_database
from repro.datasets.products import product_database
from repro.obs import ProbeBudget, ProbeTracer
from repro.relational.database import DatabaseDelta, MutationDirection
from repro.relational.engine import InMemoryEngine
from repro.relational.evaluator import InstrumentedEvaluator
from repro.relational.jointree import BoundQuery, JoinTree, RelationInstance
from repro.relational.predicates import MatchMode

from tests.test_status_cache import explanation_texts


@pytest.fixture()
def products_probes(products_debugger):
    mapping = products_debugger.map_keywords("saffron scented candle")
    graph = products_debugger.build_graph(products_debugger.prune(mapping))
    return [graph.node(index).query for index in range(len(graph))]


def single_relation_probe(relation: str, keyword: str) -> BoundQuery:
    """A one-node bound query: enough identity for cache-policy tests."""
    instance = RelationInstance(relation, 1)
    tree = JoinTree.single(instance)
    return BoundQuery.from_mapping(tree, {instance: keyword}, MatchMode.TOKEN)


class CountingBackend:
    """Delegates to an engine, recording every query it executes."""

    def __init__(self, inner):
        self.inner = inner
        self.queries = []
        self._lock = threading.Lock()

    @property
    def calls(self):
        return len(self.queries)

    def is_alive(self, query):
        with self._lock:
            self.queries.append(query)
        return self.inner.is_alive(query)


# -------------------------------------------------------------- fingerprint
class TestFingerprint:
    def test_deterministic_across_builds(self, products_db):
        rebuilt = product_database()
        assert products_db.fingerprint() == rebuilt.fingerprint()
        assert products_db.fingerprint() == products_db.fingerprint()

    def test_mutation_changes_fingerprint(self):
        database = product_database()
        before = database.fingerprint()
        table = next(database.iter_tables())
        database.insert(table.relation.name, list(table)[0])
        assert database.fingerprint() != before

    def test_snapshot_memo_follows_writes_under_contention(self):
        """Readers race the memo while one thread writes: once a write has
        returned, the snapshot carries its counters."""
        database = product_database()
        item = database.table("Item")
        row = list(item)[0]
        done = threading.Event()
        stale = []

        def reader():
            while not done.is_set():
                database.snapshot()

        threads = [threading.Thread(target=reader) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for _ in range(200):
                database.insert("Item", row)
                state = database.snapshot().by_relation()["Item"]
                if (state.inserts_total, state.row_count) != (
                    item.inserts_total,
                    len(item),
                ):
                    stale.append(state)
        finally:
            done.set()
            for thread in threads:
                thread.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert stale == []


class TestQueryCacheKey:
    def test_equal_queries_share_a_key(self, products_db, products_probes):
        schema = products_db.schema
        for probe in products_probes:
            assert query_cache_key(probe, schema) == query_cache_key(probe, schema)

    def test_distinct_queries_get_distinct_keys(self, products_db, products_probes):
        schema = products_db.schema
        keys = {query_cache_key(probe, schema) for probe in products_probes}
        assert len(keys) == len(products_probes)


# -------------------------------------------------------------------- store
class TestProbeCache:
    def test_roundtrip_and_persistence(self, tmp_path, products_probes):
        database = product_database()
        probe = products_probes[0]
        with ProbeCache.open_dir(tmp_path, database) as cache:
            assert cache.get(probe) is None
            cache.put(probe, True)
            assert cache.get(probe) is True
            cache.put(probe, False)  # last write wins
            assert cache.get(probe) is False
            assert cache.counts()["probes"] == 1
            stats = cache.stats()
            assert stats.entries == 1
            assert stats.composite == database.fingerprint()
        # A fresh process sees the same answers.
        with ProbeCache.open_dir(tmp_path, database) as reopened:
            assert reopened.get(probe) is False
            assert reopened.counts()["probes"] == 1

    def test_clear_and_closed_errors(self, tmp_path, products_probes):
        cache = ProbeCache.open_dir(tmp_path, product_database())
        cache.put(products_probes[0], True)
        assert cache.clear() == {"probes": 1}
        assert cache.counts()["probes"] == 0
        cache.close()
        cache.close()  # idempotent
        with pytest.raises(ProbeCacheError, match="closed"):
            cache.get(products_probes[0])

    def test_dir_level_inspect_and_clear(self, tmp_path, products_probes):
        assert inspect_cache_dir(tmp_path)["exists"] is False
        assert clear_cache_dir(tmp_path) == {"probes": 0}
        with ProbeCache.open_dir(tmp_path, product_database()) as cache:
            cache.put(products_probes[0], True)
            cache.put(products_probes[1], False)
        info = inspect_cache_dir(tmp_path)
        assert info["exists"] and info["entries"] == 2
        assert info["schema_version"] == CACHE_SCHEMA_VERSION
        # Grouped by the join path recorded per row.
        assert all(info["relations"])
        assert sum(v["entries"] for v in info["relations"].values()) == 2
        assert sum(v["alive"] for v in info["relations"].values()) == 1
        assert clear_cache_dir(tmp_path) == {"probes": 2}
        assert inspect_cache_dir(tmp_path)["entries"] == 0


# ------------------------------------------------------------------ repair
class TestMonotoneRepair:
    """Reads judge each row against its own snapshot, per delta direction."""

    def seed(self, tmp_path, database):
        """Four rows: alive/dead through Item, alive/dead avoiding Item."""
        probes = {
            "item_alive": single_relation_probe("Item", "saffron"),
            "item_dead": single_relation_probe("Item", "zzz-absent"),
            "other_alive": single_relation_probe("ProductType", "candle"),
            "other_dead": single_relation_probe("ProductType", "zzz-absent"),
        }
        with ProbeCache.open_dir(tmp_path, database) as cache:
            for name, probe in probes.items():
                cache.put(probe, name.endswith("alive"))
        return probes

    def test_insert_only_delta_keeps_alive_rows(self, tmp_path):
        database = product_database()
        probes = self.seed(tmp_path, database)
        database.insert("Item", list(database.table("Item"))[0])
        with ProbeCache.open_dir(tmp_path, database) as cache:
            # Alive through the mutated relation: monotone, survives.
            assert cache.get(probes["item_alive"]) is True
            # Dead through it: an insert may have revived it -> a miss.
            assert cache.get(probes["item_dead"]) is None
            # Probes avoiding the mutated relation are exact: warm.
            assert cache.get(probes["other_alive"]) is True
            assert cache.get(probes["other_dead"]) is False

    def test_delete_only_delta_keeps_dead_rows(self, tmp_path):
        database = product_database()
        probes = self.seed(tmp_path, database)
        database.delete("Item", 0)
        with ProbeCache.open_dir(tmp_path, database) as cache:
            # Dead through the mutated relation: a delete cannot revive.
            assert cache.get(probes["item_dead"]) is False
            # Alive through it: its witness may be gone -> a miss.
            assert cache.get(probes["item_alive"]) is None
            assert cache.get(probes["other_alive"]) is True
            assert cache.get(probes["other_dead"]) is False

    def test_mixed_delta_evicts_both_polarities(self, tmp_path):
        database = product_database()
        probes = self.seed(tmp_path, database)
        database.insert("Item", list(database.table("Item"))[0])
        database.delete("Item", 0)
        # Counters moved on both axes and content differs (the deleted
        # row is not the inserted one): direction is mixed.
        with ProbeCache.open_dir(tmp_path, database) as cache:
            assert cache.get(probes["item_alive"]) is None
            assert cache.get(probes["item_dead"]) is None
            assert cache.get(probes["other_alive"]) is True
            assert cache.get(probes["other_dead"]) is False

    def test_foreign_lineage_mutation_downgrades_to_mixed(self, tmp_path):
        probes = self.seed(tmp_path, product_database())
        # A *rebuilt* database with one extra row: the counters are not
        # comparable (fresh lineage), so even a pure insert is treated
        # as mixed and both Item polarities miss.
        rebuilt = product_database()
        rebuilt.insert("Item", list(rebuilt.table("Item"))[0])
        with ProbeCache.open_dir(tmp_path, rebuilt) as cache:
            assert cache.get(probes["item_alive"]) is None
            assert cache.get(probes["item_dead"]) is None
            assert cache.get(probes["other_alive"]) is True
            assert cache.get(probes["other_dead"]) is False

    def test_identical_rebuild_stays_fully_warm(self, tmp_path):
        probes = self.seed(tmp_path, product_database())
        # Identical content under a fresh lineage: no relation changed,
        # and every row (both polarities) answers.
        with ProbeCache.open_dir(tmp_path, product_database()) as cache:
            assert cache.get(probes["item_alive"]) is True
            assert cache.get(probes["item_dead"]) is False

    def test_in_session_refresh_repairs_without_reopen(self, tmp_path):
        database = product_database()
        probe_alive = single_relation_probe("Item", "saffron")
        probe_dead = single_relation_probe("Item", "zzz-absent")
        with ProbeCache.open_dir(tmp_path, database) as cache:
            cache.put(probe_alive, True)
            cache.put(probe_dead, False)
            database.insert("Item", list(database.table("Item"))[0])
            # Reads judge rows against the live database: the alive row
            # survives the insert before refresh() runs, the dead one
            # misses, and refresh() changes neither answer.
            assert cache.get(probe_alive) is True
            assert cache.get(probe_dead) is None
            cache.refresh()
            assert cache.get(probe_alive) is True
            assert cache.get(probe_dead) is None

    def test_untouched_stale_row_is_evicted_not_rekeyed(self, tmp_path):
        """A row is judged against the snapshot it was put under.

        The row is put against an Item row that is deleted afterwards,
        which brings Item's content back to what the file saw before.
        Against the row's own snapshot Item moved delete-only, so the
        alive row misses; judging it against any earlier snapshot would
        see Item unchanged and serve a stale ``True``.
        """
        database = product_database()
        probe = single_relation_probe("Item", "zebrawood")
        with ProbeCache.open_dir(tmp_path, database) as cache:
            rows = len(database.table("Item"))
            database.insert(
                "Item", (rows + 100, "zebrawood box", None, None, None, 1.0, "")
            )
            cache.put(probe, True)
            database.insert("ProductType", (4, "soap"))
            database.delete("Item", rows)
            cache.refresh()
            assert cache.get(probe) is None
        assert InMemoryEngine(database).is_alive(probe) is False

    def test_concurrent_mutation_never_serves_stale_dead(self, tmp_path):
        """Two threads -- one inserts, one probes -- across a refresh.

        After the insert is visible (Event ordering), a get for a dead
        probe through the mutated relation must never answer ``False``
        again, before or after the refresh.  The alive probe must never
        flip and ends up answering ``True``.
        """
        database = product_database()
        probe_alive = single_relation_probe("Item", "saffron")
        probe_dead = single_relation_probe("Item", "zzz-absent")
        mutated = threading.Event()
        done = threading.Event()
        violations = []
        with ProbeCache.open_dir(tmp_path, database) as cache:
            cache.put(probe_alive, True)
            cache.put(probe_dead, False)

            def prober():
                while not done.is_set():
                    after = mutated.is_set()
                    dead_value = cache.get(probe_dead)
                    alive_value = cache.get(probe_alive)
                    if after and dead_value is False:
                        violations.append("stale dead served after insert")
                    if alive_value is False:
                        violations.append("alive row flipped")

            thread = threading.Thread(target=prober)
            thread.start()
            try:
                database.insert("Item", list(database.table("Item"))[0])
                mutated.set()
                cache.refresh()
            finally:
                done.set()
                thread.join()
            assert violations == []
            assert cache.get(probe_alive) is True
            assert cache.get(probe_dead) is None

    def test_rows_survive_a_write_cycle_that_restores_content(self, tmp_path):
        """The answer-neutral write cycle of the serve benchmark: insert a,
        insert b, delete a, delete b, each followed by refresh().  Topic's
        content ends where the rows were put, so both polarities answer
        again; in between, each answers only while its direction holds."""
        database = dblife_database(DBLifeConfig(seed=42, scale=1))
        probe_alive = single_relation_probe("Topic", "keyword")
        probe_dead = single_relation_probe("Topic", "zzz-absent")
        engine = InMemoryEngine(database)
        assert engine.is_alive(probe_alive) and not engine.is_alive(probe_dead)
        topic = database.table("Topic")
        rows = len(topic)
        with ProbeCache.open_dir(tmp_path, database) as cache:
            cache.put(probe_alive, True)
            cache.put(probe_dead, False)
            answers = []
            for step in ("insert a", "insert b", "delete a", "delete b"):
                kind, name = step.split()
                if kind == "insert":
                    topic.insert([900_000_000 + len(topic), f"zzbenchwrite{name}"])
                else:
                    topic.delete(rows)  # a sits first, b moves up after it
                cache.refresh()
                answers.append((cache.get(probe_alive), cache.get(probe_dead)))
        assert answers == [
            (True, None),
            (True, None),
            (None, None),
            (True, False),
        ]

    def test_databases_sharing_a_file_never_read_each_others_item_rows(
        self, tmp_path
    ):
        """One row per query key: two databases whose Item content differs
        overwrite each other's Item rows but never read them, while rows
        over content they share still answer across them."""
        plain = product_database()
        extended = product_database()
        rows = len(extended.table("Item"))
        extended.insert(
            "Item", (rows + 100, "zebrawood box", None, None, None, 1.0, "")
        )
        item_probe = single_relation_probe("Item", "zebrawood")
        shared_probe = single_relation_probe("ProductType", "candle")
        assert InMemoryEngine(plain).is_alive(item_probe) is False
        assert InMemoryEngine(extended).is_alive(item_probe) is True
        with ProbeCache.open_dir(tmp_path, plain) as first, ProbeCache.open_dir(
            tmp_path, extended
        ) as second:
            first.put(item_probe, False)
            first.put(shared_probe, True)
            assert second.get(item_probe) is None
            assert second.get(shared_probe) is True
            second.put(item_probe, True)
            assert first.get(item_probe) is None
            assert second.get(item_probe) is True
            first.put(item_probe, False)
            assert second.get(item_probe) is None
            assert first.get(item_probe) is False


# ----------------------------------------------------------- evaluator tiers
class TestEvaluatorTiers:
    def make(self, products_debugger, tracer=None):
        backend = CountingBackend(products_debugger.backend)
        return backend, InstrumentedEvaluator(backend, tracer=tracer)

    def test_lru_then_backend(self, products_debugger, products_probes):
        tracer = ProbeTracer()
        backend, evaluator = self.make(products_debugger, tracer)
        probe = products_probes[0]

        alive = evaluator.is_alive(probe)
        assert backend.calls == 1
        assert evaluator.is_alive(probe) is alive  # LRU hit
        assert backend.calls == 1
        assert evaluator.stats.l1_hits == evaluator.stats.cache_hits == 1
        assert evaluator.stats.cache_misses == 1

        tiers = [span.cache_tier for span in tracer.spans]
        assert tiers == ["backend", "l1"]

    def test_replayed_facts_are_budget_free(self, tmp_path):
        query = "saffron scented candle"
        with NonAnswerDebugger(
            product_database(), max_joins=2, cache_dir=tmp_path
        ) as cold:
            cold_report = cold.debug(query)
        assert cold_report.traversal.stats.queries_executed > 1
        budget = ProbeBudget(max_queries=1)
        with NonAnswerDebugger(
            product_database(), max_joins=2, cache_dir=tmp_path
        ) as warm:
            warm_report = warm.debug(query, budget=budget)
        assert budget.queries_used == 0
        assert not warm_report.exhausted
        assert (
            warm_report.traversal.classification_signature()
            == cold_report.traversal.classification_signature()
        )

    def test_trace_spans_validate_with_cache_tier(
        self, products_debugger, products_probes
    ):
        from repro.obs import validate_trace_record

        tracer = ProbeTracer()
        _, evaluator = self.make(products_debugger, tracer)
        evaluator.is_alive(products_probes[0])
        evaluator.is_alive(products_probes[0])
        for record in tracer.records:
            payload = record.to_dict()
            assert validate_trace_record(payload) == "span"
            assert payload["cache_tier"] in ("backend", "l1")


# --------------------------------------------------------- warm-start, e2e
class TestWarmStart:
    QUERY = "saffron scented candle"

    def test_exact_repeat_skips_phase3_entirely(self, tmp_path):
        cache_dir = tmp_path / "probe-cache"
        with NonAnswerDebugger(
            product_database(), max_joins=2, cache_dir=cache_dir
        ) as cold:
            cold_report = cold.debug(self.QUERY)
        assert cold_report.traversal.stats.queries_executed > 0

        with NonAnswerDebugger(
            product_database(), max_joins=2, cache_dir=cache_dir
        ) as warm:
            warm_report = warm.debug(self.QUERY)
        stats = warm_report.traversal.stats
        # Phase 3 was *skipped*, not replayed: no probes at all, so no
        # backend queries and no cache traffic either.
        assert stats.queries_executed == 0
        assert stats.cache_hits == 0
        assert (
            warm_report.traversal.classification_signature()
            == cold_report.traversal.classification_signature()
        )
        assert {q.describe() for q in warm_report.non_answers()} == {
            q.describe() for q in cold_report.non_answers()
        }
        assert [
            [m.describe() for m in mpans]
            for _, mpans in warm_report.explanations()
        ] == [
            [m.describe() for m in mpans]
            for _, mpans in cold_report.explanations()
        ]

    def test_second_session_answers_from_replayed_facts(self, tmp_path):
        cache_dir = tmp_path / "probe-cache"
        with NonAnswerDebugger(
            product_database(), max_joins=2, cache_dir=cache_dir
        ) as cold:
            cold_report = cold.debug(self.QUERY)
        # A sweep started from the replayed store, not a skip: the store
        # alone must carry the whole warm traversal.
        database = product_database()
        with NonAnswerDebugger(database, max_joins=2, cache_dir=cache_dir) as warm:
            graph = warm.build_graph(warm.prune(warm.map_keywords(self.QUERY)))
            store, facts = warm.replay_status(graph, warm.node_keys(graph))
            result = get_strategy("sbh").run(
                graph, warm.make_evaluator(), database, store=store
            )
        assert facts > 0
        assert result.stats.queries_executed == 0
        assert (
            result.classification_signature()
            == cold_report.traversal.classification_signature()
        )

    def test_insert_only_mutation_repairs_instead_of_evicting(self, tmp_path):
        cache_dir = tmp_path / "probe-cache"
        database = product_database()
        with NonAnswerDebugger(
            database, max_joins=2, cache_dir=cache_dir
        ) as cold:
            cold_report = cold.debug(self.QUERY)
        cold_executed = cold_report.traversal.stats.queries_executed
        assert cold_executed > 0

        # Duplicate an existing Item row on the *live* database: content
        # changes (fingerprint counts rows) but no probe's truth does.
        database.insert("Item", list(database.table("Item"))[0])

        tracer = ProbeTracer()
        with NonAnswerDebugger(
            database, max_joins=2, cache_dir=cache_dir, tracer=tracer
        ) as warm:
            warm_report = warm.debug(self.QUERY)
        stats = warm_report.traversal.stats
        # Dead-through-Item rows are dropped and re-probed; survivors are
        # replayed into the store the sweep starts from.
        assert 0 < stats.queries_executed < cold_executed
        (preload,) = [
            record
            for record in tracer.records
            if getattr(record, "name", None) == "status_preload"
        ]
        assert preload.attrs["applied"] > 0
        assert (
            warm_report.traversal.classification_signature()
            == cold_report.traversal.classification_signature()
        )

    def test_cross_lineage_mutation_evicts_touching_probes(self, tmp_path):
        cache_dir = tmp_path / "probe-cache"
        with NonAnswerDebugger(
            product_database(), max_joins=2, cache_dir=cache_dir
        ) as cold:
            cold.debug(self.QUERY)

        mutated = product_database()
        mutated.insert("Item", list(mutated.table("Item"))[0])
        assert mutated.fingerprint() != product_database().fingerprint()
        item_rows = sum(
            counts["entries"]
            for label, counts in inspect_cache_dir(cache_dir)["relations"].items()
            if "Item" in label.split(",")
        )
        tracer = ProbeTracer()
        with NonAnswerDebugger(
            mutated, max_joins=2, cache_dir=cache_dir, tracer=tracer
        ) as fresh:
            # Rebuilt database: the insert cannot be proven insert-only,
            # so every row through Item is dropped and its probe re-runs.
            fresh_report = fresh.debug(self.QUERY)
        (preload,) = [
            record
            for record in tracer.records
            if getattr(record, "name", None) == "status_preload"
        ]
        assert preload.attrs["dropped"] == item_rows
        with NonAnswerDebugger(mutated, max_joins=2) as plain:
            reference = plain.debug(self.QUERY)
        stats = fresh_report.traversal.stats
        assert stats.cache_hits == 0
        assert stats.queries_executed == reference.traversal.stats.queries_executed
        assert (
            fresh_report.traversal.classification_signature()
            == reference.traversal.classification_signature()
        )

    def test_debug_session_inherits_cache_and_status(self, tmp_path):
        cache_dir = tmp_path / "probe-cache"
        with NonAnswerDebugger(
            product_database(), max_joins=2, cache_dir=cache_dir
        ) as cold:
            with DebugSession(cold, self.QUERY) as cold_session:
                cold_session.explain_all()
        with NonAnswerDebugger(
            product_database(), max_joins=2, cache_dir=cache_dir
        ) as warm:
            with DebugSession(warm, self.QUERY) as warm_session:
                # The persisted StatusStore pre-classifies the whole graph.
                assert warm_session.preloaded > 0
                warm_session.explain_all()
                assert warm_session.evaluator.stats.queries_executed == 0

    def test_debugger_without_cache_dir_has_no_store(self, products_debugger):
        assert products_debugger.cache is None


# ------------------------------------------------- one home for statuses
#: (database fixture, debugger settings, query, cap of the first run).
REPLAY_SETUPS = {
    "products": ("products_db", {"max_joins": 2}, "saffron scented candle", 3),
    "dblife": (
        "dblife_db",
        {"max_joins": 3, "use_lattice": False},
        "widom trio",
        5,
    ),
}


class TestTraversalStartsFromReplay:
    """The replayed store is where a cached run's statuses live: Phase 3
    starts from it, and a capped run saves what it probed into it."""

    @pytest.mark.parametrize("strategy", STRATEGY_NAMES)
    @pytest.mark.parametrize("setup", sorted(REPLAY_SETUPS))
    def test_cached_run_never_reprobes_a_replayed_fact(
        self, request, tmp_path, setup, strategy
    ):
        fixture, settings, query, cap = REPLAY_SETUPS[setup]
        database = request.getfixturevalue(fixture)
        with NonAnswerDebugger(database, cache_dir=tmp_path, **settings) as debugger:
            capped = debugger.debug(
                query, strategy=strategy, budget=ProbeBudget(max_queries=cap)
            )
            graph = capped.graph
            replayed, _ = debugger.replay_status(graph, debugger.node_keys(graph))
            engine = debugger.backend
            debugger.backend = recording = CountingBackend(engine)
            try:
                report = debugger.debug(query, strategy=strategy)
            finally:
                debugger.backend = engine
        index_of = {node.query: index for index, node in enumerate(graph.nodes)}
        # A run the cap cut short leaves Phase 3 to do; a finished one
        # saved facts that resolve the graph, so the repeat skips it.
        assert bool(recording.queries) == capped.exhausted
        reprobed = [
            query.describe_full()
            for query in recording.queries
            if replayed.is_known(index_of[query])
        ]
        assert reprobed == []
        with NonAnswerDebugger(database, **settings) as plain:
            reference = plain.debug(query, strategy=strategy)
        assert (
            report.traversal.classification_signature()
            == reference.traversal.classification_signature()
        )
        assert explanation_texts(report) == explanation_texts(reference)

    def test_capped_run_that_classifies_no_mtn_saves_its_probes(self, tmp_path):
        query = "saffron scented candle"
        with NonAnswerDebugger(
            product_database(), max_joins=2, cache_dir=tmp_path
        ) as capped:
            partial = capped.debug(query, budget=ProbeBudget(max_queries=2))
        assert partial.exhausted
        assert partial.traversal.classified_mtn_count == 0
        tracer = ProbeTracer()
        with NonAnswerDebugger(
            product_database(), max_joins=2, cache_dir=tmp_path, tracer=tracer
        ) as warm:
            report = warm.debug(query)
        (preload,) = [
            record
            for record in tracer.records
            if getattr(record, "name", None) == "status_preload"
        ]
        assert preload.attrs["applied"] >= 2
        with NonAnswerDebugger(product_database(), max_joins=2) as plain:
            cold = plain.debug(query)
        assert cold.traversal.stats.queries_executed == 8
        assert report.traversal.stats.queries_executed == 6
        assert (
            report.traversal.classification_signature()
            == cold.traversal.classification_signature()
        )
        assert explanation_texts(report) == explanation_texts(cold)


# ------------------------------------------------------------- count gates
#: The gates' configuration: DBLife scale 1 at level 4 (materialized
#: lattice, 3 keyword slots), Table-2 Q1-Q10, the reuse strategies.
GATE_LEVEL = 4
GATE_STRATEGIES = ("buwr", "tdwr", "sbh")


def workload_pass(context, strategy_name, cache_dir):
    """Q1-Q10 through one fresh debugger over ``cache_dir``: a new session.

    Each ``debug()`` replays the facts earlier runs saved there, skips
    Phase 3 when they resolve its graph, and otherwise probes only what
    they leave unknown.  Returns ``(executed queries, classification
    signatures)``.
    """
    with NonAnswerDebugger(
        context.database,
        max_joins=GATE_LEVEL - 1,
        lattice=context.lattice(GATE_LEVEL),
        max_keywords=context.max_keywords,
        cache_dir=cache_dir,
    ) as debugger:
        reports = [
            debugger.debug(query.text, strategy=strategy_name)
            for query in context.workload
        ]
    return (
        sum(report.traversal.stats.queries_executed for report in reports),
        [report.traversal.classification_signature() for report in reports],
    )


class TestCountGates:
    """The paper's cost measure (executed queries) as pass/fail gates."""

    def test_warm_pass_executes_no_queries(self, tmp_path):
        context = BenchContext.create(scale=1, seed=42)
        cold_total = warm_total = 0
        for name in GATE_STRATEGIES:
            # One cache dir per strategy: no strategy pre-warms another.
            cold, cold_signatures = workload_pass(context, name, tmp_path / name)
            warm, warm_signatures = workload_pass(context, name, tmp_path / name)
            assert warm_signatures == cold_signatures, name
            cold_total += cold
            warm_total += warm
        assert warm_total == 0
        assert cold_total / max(1, warm_total) >= 5

    def test_single_insert_repair_stays_mostly_warm(self, tmp_path):
        context = BenchContext.create(scale=1, seed=42)
        database = context.database
        for name in GATE_STRATEGIES:
            workload_pass(context, name, tmp_path / name)
        # One insert into the live database keeps its lineage, so the
        # delta classifies insert-only; the next pass builds its debugger
        # (index, backend) over the mutated object, and the lattice
        # depends only on the schema, so it is shared.
        before = database.snapshot()
        rows = len(database.table("Publication"))
        database.insert("Publication", (rows + 1, "benchmark mutation probe row"))
        assert DatabaseDelta.between(before, database.snapshot()).directions == {
            "Publication": MutationDirection.INSERT_ONLY
        }
        cold_total = warm_total = 0
        for name in GATE_STRATEGIES:
            # Reopening judges the rows against the mutated database.
            warm, warm_signatures = workload_pass(context, name, tmp_path / name)
            # Reference: a full recompute through a separate empty store.
            cold, cold_signatures = workload_pass(
                context, name, tmp_path / f"{name}-cold"
            )
            assert warm_signatures == cold_signatures, name
            cold_total += cold
            warm_total += warm
        assert warm_total / max(1, cold_total) < 0.25
