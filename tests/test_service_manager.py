"""Tests for the multi-tenant session manager (service core)."""

import json
import threading
import time

import pytest

from repro.core.debugger import NonAnswerDebugger
from repro.obs import check_trace_file
from repro.backends.latency import SimulatedLatencyBackend
from repro.service.manager import (
    CANCELLED,
    COMPLETED,
    FAILED,
    ServiceClosed,
    SessionManager,
    UnknownSession,
)

QUERY = "saffron scented candle"
#: Queries with distinct cache footprints for the multi-tenant property
#: tests; "saffron sofa" aborts in Phase 1 (missing keyword).
WORKLOAD = [QUERY, "red candle", "saffron sofa", QUERY, "red candle"]


def make_manager(products_db, workers=2, latency=0.0, **kwargs):
    debugger = NonAnswerDebugger(products_db, max_joins=2)
    if latency:
        debugger.backend = SimulatedLatencyBackend(
            debugger.backend, latency=latency
        )
    return SessionManager(debugger, workers=workers, **kwargs)


def outcome(handle):
    """A session's result with its identity stripped, for comparisons."""
    payload = handle.result_payload()
    payload.pop("session_id", None)
    return payload


class TestLifecycle:
    def test_submit_completes_with_report(self, products_db):
        with make_manager(products_db) as manager:
            handle = manager.submit(QUERY)
            assert handle.wait(30)
            assert handle.state == COMPLETED
            assert handle.report is not None
            assert handle.report.non_answers()

    def test_session_ids_are_deterministic(self, products_db):
        with make_manager(products_db) as manager:
            first = manager.submit(QUERY)
            second = manager.submit(QUERY)
            assert (first.session_id, second.session_id) == ("s1", "s2")

    def test_stream_is_gap_free_and_terminal(self, products_db):
        with make_manager(products_db) as manager:
            handle = manager.submit(QUERY)
            handle.wait(30)
        records = handle.log.snapshot()
        seqs = [record["seq"] for record in records]
        assert seqs == list(range(len(records)))
        assert records[0]["name"] == "session_submitted"
        assert records[-1]["name"] == "session_completed"
        names = {
            record["name"] for record in records if record["kind"] == "event"
        }
        assert "phase_started" in names
        assert "mtn_resolved" in names

    def test_unknown_session_raises(self, products_db):
        with make_manager(products_db) as manager:
            with pytest.raises(UnknownSession):
                manager.get("s99")

    def test_failed_session_reports_error(self, products_db):
        with make_manager(products_db) as manager:
            handle = manager.submit(QUERY, strategy="not-a-strategy")
            handle.wait(30)
            assert handle.state == FAILED
            assert "not-a-strategy" in (handle.error or "")
            assert handle.log.snapshot()[-1]["name"] == "session_failed"

    def test_budget_cap_marks_exhausted(self, products_db):
        with make_manager(products_db) as manager:
            handle = manager.submit(QUERY, max_queries=1)
            handle.wait(30)
            assert handle.state == COMPLETED
            assert handle.report.exhausted

    def test_submit_after_shutdown_rejected(self, products_db):
        manager = make_manager(products_db)
        manager.shutdown()
        with pytest.raises(ServiceClosed):
            manager.submit(QUERY)


class TestCancellation:
    def test_queued_session_cancelled_before_start(self, products_db):
        with make_manager(products_db, workers=1, latency=0.05) as manager:
            blocker = manager.submit(QUERY)
            queued = manager.submit(QUERY)
            manager.cancel(queued.session_id)
            assert queued.wait(30)
            assert queued.state == CANCELLED
            assert queued.report is None
            records = queued.log.snapshot()
            assert records[-1]["name"] == "session_cancelled"
            assert records[-1]["started"] is False
            blocker.wait(30)
            assert blocker.state == COMPLETED

    def test_cancel_mid_run_keeps_partial_results(self, products_db):
        with make_manager(products_db, workers=1, latency=0.2) as manager:
            handle = manager.submit(QUERY)
            deadline = time.perf_counter() + 10
            while handle.state != "running":
                assert time.perf_counter() < deadline
                time.sleep(0.005)
            manager.cancel(handle.session_id)
            assert handle.wait(30)
            assert handle.state == CANCELLED
            # The aborted budget reads as exhausted: partial results are
            # never persisted as complete.
            assert handle.report is None or handle.report.exhausted

    def test_cancel_finished_session_is_idempotent(self, products_db):
        with make_manager(products_db) as manager:
            handle = manager.submit(QUERY)
            handle.wait(30)
            manager.cancel(handle.session_id)
            assert handle.state == COMPLETED


class TestEviction:
    def test_expired_sessions_archived_not_lost(self, products_db, tmp_path):
        manager = make_manager(products_db, session_ttl=0.01)
        handle = manager.submit(QUERY)
        handle.wait(30)
        time.sleep(0.05)
        assert manager.evict_expired() == 1
        with pytest.raises(UnknownSession):
            manager.get(handle.session_id)
        export = tmp_path / "events.jsonl"
        manager.shutdown(export_path=str(export))
        records = [
            json.loads(line) for line in export.read_text().splitlines()
        ]
        assert any(
            record.get("name") == "session_evicted"
            and record.get("evicted_session") == handle.session_id
            for record in records
        )
        # The archived stream still carries the full session.
        assert any(
            record.get("name") == "session_completed"
            and record.get("session_id") == handle.session_id
            for record in records
        )
        assert check_trace_file(str(export)) == []


class TestMutation:
    """Mutations use private database copies: the write gate rebuilds
    index/mapper/backend state, which must not leak into the shared
    session-scoped fixtures."""

    def test_mutate_waits_for_active_sessions(self):
        from repro.datasets.products import product_database

        database = product_database()
        relation = list(database.schema.relations)[0]
        row = list(list(database.table(relation))[0])
        with make_manager(database, workers=1, latency=0.05) as manager:
            handle = manager.submit(QUERY)
            deadline = time.perf_counter() + 10
            while handle.state != "running":
                assert time.perf_counter() < deadline
                time.sleep(0.005)
            summary = manager.mutate(relation, inserts=[row])
            # The write gate drained the running session first.
            assert handle.state == COMPLETED
            assert summary == {
                "relation": relation,
                "inserted": 1,
                "deleted": 0,
            }

    def test_sessions_after_mutation_classify_consistently(self):
        from repro.datasets.products import product_database

        database = product_database()
        relation = list(database.schema.relations)[0]
        row = list(list(database.table(relation))[0])
        with make_manager(database) as manager:
            before = manager.submit(QUERY)
            before.wait(30)
            manager.mutate(relation, inserts=[row])
            after = manager.submit(QUERY)
            after.wait(30)
            assert after.state == COMPLETED
            mutated = [
                record
                for record in manager.tracer.records
                if record.to_dict().get("name") == "dataset_mutated"
            ]
            assert len(mutated) == 1


class TestMultiTenantCorrectness:
    """N concurrent sessions classify exactly like N serial runs."""

    def test_concurrent_equals_serial_with_shared_caches(
        self, products_db, tmp_path
    ):
        """Variant A: unbudgeted, shared L2 + status caches.

        Complete runs converge regardless of interleaving: every
        classification either comes from a probe or from a cache entry
        another complete run wrote, so signatures (though not executed-
        query counts, which depend on cache-race timing) are identical.
        """

        def run(workers, cache_dir):
            debugger = NonAnswerDebugger(
                products_db, max_joins=2, cache_dir=str(cache_dir)
            )
            with SessionManager(debugger, workers=workers) as manager:
                handles = [manager.submit(text) for text in WORKLOAD]
                assert manager.wait_all(60)
                return [
                    {
                        key: value
                        for key, value in outcome(handle).items()
                        if key not in ("queries_executed", "cache_hits")
                    }
                    for handle in handles
                ]

        serial = run(1, tmp_path / "serial")
        concurrent = run(4, tmp_path / "concurrent")
        assert json.dumps(serial, sort_keys=True) == json.dumps(
            concurrent, sort_keys=True
        )

    def test_concurrent_equals_serial_under_budget_exhaustion(
        self, products_db
    ):
        """Variant B: every session budget-capped, no shared caches.

        Sessions are fully independent (own evaluator, own L1, own
        budget), so even executed-query counts are byte-identical
        between serial and concurrent execution.
        """

        def run(workers):
            with make_manager(products_db, workers=workers) as manager:
                handles = [
                    manager.submit(text, max_queries=2) for text in WORKLOAD
                ]
                assert manager.wait_all(60)
                assert any(
                    handle.report is not None and handle.report.exhausted
                    for handle in handles
                )
                return [outcome(handle) for handle in handles]

        serial = run(1)
        concurrent = run(4)
        assert json.dumps(serial, sort_keys=True) == json.dumps(
            concurrent, sort_keys=True
        )


class TestShutdown:
    def test_drain_finishes_queued_sessions(self, products_db):
        manager = make_manager(products_db, workers=1, latency=0.02)
        handles = [manager.submit(QUERY) for _ in range(3)]
        summary = manager.shutdown(drain=True)
        assert summary["active_sessions"] == 0
        assert summary["sessions_served"] == 3
        assert all(handle.state == COMPLETED for handle in handles)

    def test_no_drain_cancels_queued_sessions(self, products_db):
        manager = make_manager(products_db, workers=1, latency=0.2)
        handles = [manager.submit(QUERY) for _ in range(3)]
        summary = manager.shutdown(drain=False)
        assert summary["active_sessions"] == 0
        states = {handle.state for handle in handles}
        assert states <= {COMPLETED, CANCELLED}
        assert CANCELLED in states

    def test_shutdown_is_idempotent(self, products_db):
        manager = make_manager(products_db)
        manager.submit(QUERY).wait(30)
        first = manager.shutdown()
        second = manager.shutdown()
        assert first["sessions_served"] == second["sessions_served"] == 1

    def test_export_passes_trace_check(self, products_db, tmp_path):
        manager = make_manager(products_db)
        for text in (QUERY, "red candle"):
            manager.submit(text)
        export = tmp_path / "events.jsonl"
        manager.shutdown(drain=True, export_path=str(export))
        assert check_trace_file(str(export)) == []
        records = [
            json.loads(line) for line in export.read_text().splitlines()
        ]
        shutdown = [
            record
            for record in records
            if record.get("name") == "service_shutdown"
        ]
        assert len(shutdown) == 1
        assert shutdown[0]["active_sessions"] == 0
        assert shutdown[0]["sessions_served"] == 2

    def test_sqlite_backend_emits_pool_stats_on_shutdown(
        self, products_db, tmp_path
    ):
        debugger = NonAnswerDebugger(products_db, max_joins=2, backend="sqlite")
        manager = SessionManager(debugger, workers=2)
        manager.submit(QUERY).wait(30)
        export = tmp_path / "events.jsonl"
        manager.shutdown(drain=True, export_path=str(export))
        records = [
            json.loads(line) for line in export.read_text().splitlines()
        ]
        pool = [r for r in records if r.get("name") == "pool_stats"]
        assert pool, "drained shutdown must emit the final pool_stats"
        assert pool[0]["in_use"] == 0
        assert check_trace_file(str(export)) == []


class TestStats:
    def test_stats_reflect_sessions_and_pool(self, products_db):
        debugger = NonAnswerDebugger(products_db, max_joins=2, backend="sqlite")
        with SessionManager(debugger, workers=2) as manager:
            manager.submit(QUERY).wait(30)
            stats = manager.stats()
            assert stats["sessions_submitted"] == 1
            assert stats["sessions_by_state"] == {COMPLETED: 1}
            assert stats["pool"]["in_use"] == 0

    def test_stats_include_probe_cache_counters(self, products_db, tmp_path):
        debugger = NonAnswerDebugger(
            products_db, max_joins=2, cache_dir=str(tmp_path)
        )
        with SessionManager(debugger, workers=2) as manager:
            graphs = []
            for query in (QUERY, QUERY, "red candle"):
                handle = manager.submit(query)
                handle.wait(30)
                graphs.append(handle.report.graph)
            stats = manager.stats()
            # A complete run persists one fact per exploration-graph node,
            # keyed by its query: the repeat and the overlap add no rows.
            keys = set(debugger.node_keys(graphs[0]))
            keys |= set(debugger.node_keys(graphs[2]))
            assert stats["probe_cache"] == {"entries": len(keys)}
            assert "status_cache" not in stats


def test_concurrent_submitters_race_cleanly(products_db):
    """Many threads submitting at once still get unique, gap-free sessions."""
    with make_manager(products_db, workers=4) as manager:
        handles = []
        lock = threading.Lock()

        def client():
            handle = manager.submit(QUERY)
            with lock:
                handles.append(handle)

        threads = [threading.Thread(target=client) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert manager.wait_all(60)
        ids = {handle.session_id for handle in handles}
        assert len(ids) == 8
        for handle in handles:
            seqs = [record["seq"] for record in handle.log.snapshot()]
            assert seqs == list(range(len(seqs)))
