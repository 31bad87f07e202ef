"""Tests for the persistent two-tier probe cache (identity, judging, L2)."""

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
from repro.core.traversal import get_strategy
from repro.datasets.dblife import DBLifeConfig, dblife_database
from repro.datasets.products import product_database
from repro.obs import ProbeBudget, ProbeTracer
from repro.relational.database import DatabaseDelta, MutationDirection
from repro.relational.engine import InMemoryEngine
from repro.relational.evaluator import InstrumentedEvaluator
from repro.relational.jointree import BoundQuery, JoinTree, RelationInstance
from repro.relational.predicates import MatchMode


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
    """Delegates to the in-memory engine, counting backend executions."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0
        self._lock = threading.Lock()

    def is_alive(self, query):
        with self._lock:
            self.calls += 1
        return self.inner.is_alive(query)


class RecordingStore:
    """ProbeStore fake that records every get/put."""

    def __init__(self):
        self.gets = []
        self.puts = []

    def get(self, query):
        self.gets.append(query)
        return None

    def put(self, query, alive):
        self.puts.append((query, alive))


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
            assert stats.hits == 2 and stats.misses == 1 and stats.writes == 2
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
    def make(self, products_debugger, cache, tracer=None, budget=None):
        backend = CountingBackend(products_debugger.backend)
        evaluator = InstrumentedEvaluator(
            backend, probe_cache=cache, tracer=tracer, budget=budget
        )
        return backend, evaluator

    def test_l1_then_l2_then_backend(self, tmp_path, products_debugger, products_probes):
        cache = ProbeCache.open_dir(tmp_path, product_database())
        tracer = ProbeTracer()
        backend, cold = self.make(products_debugger, cache, tracer)
        probe = products_probes[0]

        alive = cold.is_alive(probe)
        assert backend.calls == 1
        assert cold.is_alive(probe) is alive  # L1 hit
        assert backend.calls == 1
        assert cold.stats.l1_hits == 1 and cold.stats.l2_hits == 0
        assert cold.stats.cache_hits == 1

        # Fresh evaluator (empty L1), same store: L2 answers, then promotes.
        warm_backend, warm = self.make(products_debugger, cache, tracer)
        assert warm.is_alive(probe) is alive
        assert warm_backend.calls == 0
        assert warm.stats.l2_hits == 1 and warm.stats.queries_executed == 0
        assert warm.stats.cache_misses == 0
        assert warm.is_alive(probe) is alive  # promoted into L1
        assert warm.stats.l1_hits == 1

        tiers = [span.cache_tier for span in tracer.spans]
        assert tiers == ["backend", "l1", "l2", "l1"]
        assert "L2 1" in str(warm.stats)
        cache.close()

    def test_l2_hits_are_budget_free(
        self, tmp_path, products_debugger, products_probes
    ):
        cache = ProbeCache.open_dir(tmp_path, product_database())
        for probe in products_probes:
            cache.put(probe, products_debugger.backend.is_alive(probe))
        budget = ProbeBudget(max_queries=1)
        backend, warm = self.make(products_debugger, cache, budget=budget)
        for probe in products_probes:  # many more probes than the budget
            warm.is_alive(probe)
        assert backend.calls == 0
        assert budget.queries_used == 0
        cache.close()

    def test_non_reuse_evaluator_ignores_the_store(
        self, products_debugger, products_probes
    ):
        store = RecordingStore()
        backend = CountingBackend(products_debugger.backend)
        evaluator = InstrumentedEvaluator(
            backend, use_cache=False, probe_cache=store
        )
        evaluator.is_alive(products_probes[0])
        evaluator.is_alive(products_probes[0])
        assert backend.calls == 2  # re-executed, as BU/TD semantics require
        assert store.gets == [] and store.puts == []

    def test_trace_spans_validate_with_cache_tier(
        self, tmp_path, products_debugger, products_probes
    ):
        from repro.obs import validate_trace_record

        cache = ProbeCache.open_dir(tmp_path, product_database())
        tracer = ProbeTracer()
        _, evaluator = self.make(products_debugger, cache, tracer)
        evaluator.is_alive(products_probes[0])
        evaluator.is_alive(products_probes[0])
        for record in tracer.records:
            payload = record.to_dict()
            assert validate_trace_record(payload) == "span"
            assert payload["cache_tier"] in ("backend", "l1", "l2")
        cache.close()


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
        assert stats.l2_hits == 0 and stats.l1_hits == 0
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

    def test_second_session_answers_from_l2(self, tmp_path):
        cache_dir = tmp_path / "probe-cache"
        with NonAnswerDebugger(
            product_database(), max_joins=2, cache_dir=cache_dir
        ) as cold:
            cold_report = cold.debug(self.QUERY)
        # A sweep that replays no saved status: the L2 probe tier must
        # carry the whole warm traversal by itself.
        database = product_database()
        with NonAnswerDebugger(database, max_joins=2, cache_dir=cache_dir) as warm:
            graph = warm.build_graph(warm.prune(warm.map_keywords(self.QUERY)))
            result = get_strategy("sbh").run(graph, warm.make_evaluator(), database)
        assert result.stats.queries_executed == 0
        assert result.stats.l2_hits > 0
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

        with NonAnswerDebugger(
            database, max_joins=2, cache_dir=cache_dir
        ) as warm:
            warm_report = warm.debug(self.QUERY)
        stats = warm_report.traversal.stats
        # Dead-through-Item rows miss and re-execute; survivors stay warm.
        assert 0 < stats.queries_executed < cold_executed
        assert stats.l2_hits > 0
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
            # so every row through Item is dropped and its probe misses.
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
        assert stats.l2_hits == 0
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
        assert products_debugger.make_evaluator().probe_cache is None


# ------------------------------------------------------------- count gates
#: The gates' configuration: DBLife scale 1 at level 4 (materialized
#: lattice, 3 keyword slots), Table-2 Q1-Q10, the reuse strategies (the
#: persistent tier is inert under ``use_cache=False``).
GATE_LEVEL = 4
GATE_STRATEGIES = ("buwr", "tdwr", "sbh")


def workload_pass(context, strategy_name, probe_cache):
    """Q1-Q10 through fresh evaluators (empty L1) sharing ``probe_cache``.

    Phase 3 runs on the prepared graphs directly, so no status cache can
    skip it: every answer comes from the backend or the L2 store.
    Returns ``(executed queries, classification signatures)``.
    """
    strategy = get_strategy(strategy_name)
    backend = context.debugger(GATE_LEVEL).backend
    executed = 0
    signatures = []
    for query in context.workload:
        evaluator = InstrumentedEvaluator(
            backend, cost_model=context.cost_model, probe_cache=probe_cache
        )
        result = strategy.run(
            context.prepare(GATE_LEVEL, query).graph, evaluator, context.database
        )
        executed += result.stats.queries_executed
        signatures.append(result.classification_signature())
    return executed, signatures


class TestCountGates:
    """The paper's cost measure (executed queries) as pass/fail gates."""

    def test_warm_pass_executes_no_queries(self, tmp_path):
        context = BenchContext.create(scale=1, seed=42)
        cold_total = warm_total = 0
        for name in GATE_STRATEGIES:
            # One store per strategy: no strategy pre-warms another.
            with ProbeCache(tmp_path / f"{name}.sqlite", context.database) as cache:
                cold, cold_signatures = workload_pass(context, name, cache)
                warm, warm_signatures = workload_pass(context, name, cache)
            assert warm_signatures == cold_signatures, name
            cold_total += cold
            warm_total += warm
        assert warm_total == 0
        assert cold_total / max(1, warm_total) >= 5

    def test_single_insert_repair_stays_mostly_warm(self, tmp_path):
        context = BenchContext.create(scale=1, seed=42)
        database = context.database
        for name in GATE_STRATEGIES:
            with ProbeCache(tmp_path / f"{name}.sqlite", database) as cache:
                workload_pass(context, name, cache)
        # One insert into the live database keeps its lineage, so the
        # delta classifies insert-only; a fresh pipeline over the same
        # object is what the next session builds (the lattice depends
        # only on the schema, so it is shared).
        before = database.snapshot()
        rows = len(database.table("Publication"))
        database.insert("Publication", (rows + 1, "benchmark mutation probe row"))
        assert DatabaseDelta.between(before, database.snapshot()).directions == {
            "Publication": MutationDirection.INSERT_ONLY
        }
        mutated = BenchContext(
            config=context.config,
            _database=database,
            _lattices=context._lattices,
        )
        cold_total = warm_total = 0
        for name in GATE_STRATEGIES:
            # Re-attaching judges the rows against the mutated database.
            with ProbeCache(tmp_path / f"{name}.sqlite", database) as cache:
                warm, warm_signatures = workload_pass(mutated, name, cache)
            # Reference: a full recompute through a separate empty store.
            with ProbeCache(tmp_path / f"{name}-cold.sqlite", database) as ref:
                cold, cold_signatures = workload_pass(mutated, name, ref)
            assert warm_signatures == cold_signatures, name
            cold_total += cold
            warm_total += warm
        assert warm_total / max(1, cold_total) < 0.25
