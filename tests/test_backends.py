"""Tests for the backend layer: pool, latency wrapper, factory, conformance."""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.backends import (
    ConnectionPool,
    PoolError,
    PoolTimeout,
    create_backend,
)
from repro.backends.conformance import ConformanceFailure, check_backend
from repro.backends.latency import SimulatedLatencyBackend
from repro.index import InvertedIndex, SqliteInvertedIndex
from repro.relational.engine import DEFAULT_MATERIALIZATION_CAP, InMemoryEngine
from repro.relational.evaluator import InstrumentedEvaluator
from repro.relational.jointree import BoundQuery, JoinTree, RelationInstance
from repro.relational.sqlite_backend import SqliteEngine


class Resource:
    """Pool fake: tracks exclusive use and closure."""

    _ids = itertools.count()

    def __init__(self):
        self.id = next(self._ids)
        self.busy = threading.Lock()
        self.closed = False

    def close(self):
        self.closed = True


@pytest.fixture()
def products_probes(products_debugger):
    mapping = products_debugger.map_keywords("saffron scented candle")
    graph = products_debugger.build_graph(products_debugger.prune(mapping))
    return [graph.node(index).query for index in range(len(graph))]


# -------------------------------------------------------------------- pool
class TestConnectionPool:
    def test_checkout_creates_then_reuses_lifo(self):
        pool = ConnectionPool(Resource, max_size=4)
        first = pool.checkout()
        second = pool.checkout()
        pool.checkin(second)
        pool.checkin(first)
        # LIFO: the most recently parked connection comes back first.
        assert pool.checkout() is first
        assert pool.checkout() is second
        stats = pool.stats()
        assert stats.created == 2
        assert stats.reused == 2
        assert stats.in_use == 2 and stats.idle == 0

    def test_cap_blocks_until_checkin(self):
        pool = ConnectionPool(Resource, max_size=1)
        held = pool.checkout()
        acquired = []

        def blocked_checkout():
            acquired.append(pool.checkout())

        thread = threading.Thread(target=blocked_checkout)
        thread.start()
        time.sleep(0.05)
        assert not acquired, "checkout must block at the cap"
        pool.checkin(held)
        thread.join(timeout=5)
        assert acquired == [held]
        assert pool.stats().created == 1
        assert pool.stats().waits >= 1

    def test_timeout_raises_pool_timeout(self):
        pool = ConnectionPool(Resource, max_size=1, timeout=0.01)
        pool.checkout()
        with pytest.raises(PoolTimeout):
            pool.checkout()

    def test_foreign_checkin_rejected(self):
        pool = ConnectionPool(Resource, max_size=1)
        with pytest.raises(PoolError, match="not checked out"):
            pool.checkin(Resource())

    def test_close_disposes_idle_and_refuses_checkout(self):
        pool = ConnectionPool(Resource, max_size=2)
        idle = pool.checkout()
        still_out = pool.checkout()
        pool.checkin(idle)
        pool.close()
        pool.close()  # idempotent
        assert idle.closed
        with pytest.raises(PoolError, match="closed"):
            pool.checkout()
        # A connection checked in after close is disposed, not parked.
        pool.checkin(still_out)
        assert still_out.closed
        assert pool.stats().idle == 0

    def test_factory_failure_releases_capacity(self):
        calls = itertools.count()

        def flaky_factory():
            if next(calls) == 0:
                raise RuntimeError("handshake failed")
            return Resource()

        pool = ConnectionPool(flaky_factory, max_size=1)
        with pytest.raises(RuntimeError, match="handshake"):
            pool.checkout()
        # The failed creation must not leak its capacity slot.
        connection = pool.checkout()
        assert isinstance(connection, Resource)
        assert pool.stats().created == 1

    def test_no_resource_shared_across_threads(self):
        pool = ConnectionPool(Resource, max_size=3)
        violations = []

        def hammer():
            for _ in range(40):
                with pool.connection() as resource:
                    if not resource.busy.acquire(blocking=False):
                        violations.append(resource.id)
                    else:
                        time.sleep(0.0002)
                        resource.busy.release()

        with ThreadPoolExecutor(max_workers=8) as workers:
            for future in [workers.submit(hammer) for _ in range(8)]:
                future.result()
        assert not violations, "a pooled resource was used by two threads"
        stats = pool.stats()
        assert stats.created <= 3
        assert stats.max_in_use <= 3
        assert stats.in_use == 0


class TestPooledSqliteUnderConcurrentSessions:
    def test_parallel_probes_match_serial_and_respect_cap(
        self, products_db, products_probes
    ):
        """8 threads, each with its own evaluator, over one pooled engine
        -- how concurrent service sessions share it."""
        with SqliteEngine(products_db, pool_size=3) as engine:
            serial = [engine.is_alive(probe) for probe in products_probes]
            evaluators = [InstrumentedEvaluator(engine) for _ in range(8)]
            answers: list[list[bool] | None] = [None] * len(evaluators)

            def session(slot: int) -> None:
                evaluator = evaluators[slot]
                answers[slot] = [
                    evaluator.is_alive(probe) for probe in products_probes * 3
                ]

            threads = [
                threading.Thread(target=session, args=(slot,))
                for slot in range(len(evaluators))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert answers == [serial * 3] * len(evaluators)
            stats = engine.pool_stats()
            assert stats.max_in_use <= 3
            assert stats.in_use == 0


# ------------------------------------------------------------------ latency
class FakeBackend:
    """Aliveness is determined by the bound keyword."""

    def is_alive(self, query):
        return any("alive" in keyword for keyword in query.keywords)


def query(keyword: str) -> BoundQuery:
    tree = JoinTree.single(RelationInstance("R", 1))
    return BoundQuery.from_mapping(tree, {RelationInstance("R", 1): keyword})


class TestSimulatedLatencyBackend:
    def test_delegates_answers(self):
        backend = SimulatedLatencyBackend(FakeBackend(), latency=0.0)
        assert backend.is_alive(query("alive")) is True
        assert backend.is_alive(query("dead")) is False

    def test_validation(self):
        with pytest.raises(ValueError):
            SimulatedLatencyBackend(FakeBackend(), latency=-1.0)


# ------------------------------------------------------------------ factory
class TestRegistry:
    """``create_backend`` builds exactly the two engines."""

    def test_unknown_backend_is_value_error(self, products_db):
        with pytest.raises(ValueError, match="'oracle'.*memory, sqlite"):
            create_backend("oracle", products_db)

    def test_memory_backend_is_in_memory_engine(self, products_db):
        assert isinstance(create_backend("memory", products_db), InMemoryEngine)
        # It resolves keywords through the index it is given, and streams
        # only off the disk-backed one.
        dict_index = InvertedIndex(products_db)
        classic = create_backend("memory", products_db, dict_index)
        assert classic._tuple_set_provider == dict_index.tuple_set
        assert classic._streaming_source is None
        with SqliteInvertedIndex(products_db) as disk_index:
            streamed = create_backend("memory", products_db, disk_index)
            assert streamed._streaming_source is disk_index
            assert streamed._materialization_cap == DEFAULT_MATERIALIZATION_CAP


# -------------------------------------------------------------- conformance
class TestConformance:
    def test_lying_backend_fails(self, products_db, products_probes):
        class Liar:
            def is_alive(self, query):
                return False  # the toy DB has alive probes, so this lies

        with pytest.raises(ConformanceFailure, match="wrong aliveness"):
            check_backend(Liar(), products_db, products_probes[:12])

    def test_needs_probes(self, products_db):
        with pytest.raises(ValueError, match="at least one probe"):
            check_backend(create_backend("memory", products_db), products_db, [])
