"""Dynamic lock-order detector: proxy units, cycles, and real components."""

import sys
import threading

import pytest

from repro.analysis.lockorder import LockOrderMonitor, _ConditionProxy, _LockProxy
from repro.backends import BACKEND_NAMES, create_backend
from repro.backends.conformance import check_backend
from repro.cache import ProbeCache, StatusFact
from repro.relational.evaluator import InstrumentedEvaluator
from repro.relational.sqlite_backend import SqliteEngine


@pytest.fixture(scope="module")
def probes(products_debugger):
    mapping = products_debugger.map_keywords("saffron scented candle")
    graph = products_debugger.build_graph(products_debugger.prune(mapping))
    return [graph.node(index).query for index in range(len(graph))]


class TestProxies:
    def test_acquire_release_records_acquisitions(self):
        monitor = LockOrderMonitor()
        proxy = monitor.wrap_lock(threading.Lock(), "A")
        with proxy:
            assert list(monitor.held_now()) == ["A"]
            assert proxy.locked()
        assert list(monitor.held_now()) == []
        assert monitor.acquisitions() == {"A": 1}
        assert monitor.edges() == {}

    def test_nested_acquisition_records_edge(self):
        monitor = LockOrderMonitor()
        outer = monitor.wrap_lock(threading.Lock(), "A")
        inner = monitor.wrap_lock(threading.Lock(), "B")
        with outer:
            with inner:
                pass
        assert monitor.edges() == {("A", "B"): 1}
        assert monitor.inversions() == []

    def test_reacquiring_same_label_is_not_an_edge(self):
        monitor = LockOrderMonitor()
        lock = threading.RLock()
        proxy = monitor.wrap_lock(lock, "A")
        with proxy:
            with proxy:
                pass
        assert monitor.edges() == {}

    def test_condition_wait_drops_label_while_blocked(self):
        monitor = LockOrderMonitor()
        proxy = monitor.wrap_condition(threading.Condition(), "C")
        during_wait = []
        with proxy:
            proxy.wait_for(
                lambda: during_wait.append(list(monitor.held_now())) or True
            )
            assert list(monitor.held_now()) == ["C"]
        # The predicate ran while the label was popped: a thread blocked
        # in wait() holds nothing as far as ordering is concerned.
        assert during_wait[0] == []
        assert monitor.inversions() == []

    def test_timed_wait_repushes_label(self):
        monitor = LockOrderMonitor()
        proxy = monitor.wrap_condition(threading.Condition(), "C")
        with proxy:
            assert proxy.wait(timeout=0.01) is False
            assert list(monitor.held_now()) == ["C"]
        assert list(monitor.held_now()) == []

    def test_instrument_sniffs_condition_and_refuses_double_wrap(self):
        monitor = LockOrderMonitor()

        class Holder:
            def __init__(self):
                self._lock = threading.Lock()
                self._cond = threading.Condition(self._lock)

        holder = Holder()
        lock_proxy = monitor.instrument(holder, "_lock")
        cond_proxy = monitor.instrument(holder, "_cond", label="holder.cond")
        assert type(lock_proxy) is _LockProxy
        assert isinstance(cond_proxy, _ConditionProxy)
        assert cond_proxy.label == "holder.cond"
        with pytest.raises(ValueError, match="already instrumented"):
            monitor.instrument(holder, "_lock")


class TestCycleDetection:
    def seeded(self):
        monitor = LockOrderMonitor()
        a = monitor.wrap_lock(threading.Lock(), "A")
        b = monitor.wrap_lock(threading.Lock(), "B")
        with a:
            with b:
                pass
        with b:
            with a:
                pass
        return monitor

    def test_both_orders_is_an_inversion(self):
        monitor = self.seeded()
        assert monitor.inversions() == [("A", "B")]
        assert monitor.cycles() == [["A", "B"]]

    def test_report_carries_conc005(self):
        report = self.seeded().report()
        assert not report.ok
        assert {d.code for d in report} == {"CONC005"}
        assert "A -> B -> A" in report.render()

    def test_assert_clean_raises_on_cycle(self):
        with pytest.raises(AssertionError, match="CONC005"):
            self.seeded().assert_clean()

    def test_three_way_cycle_found_once(self):
        monitor = LockOrderMonitor()
        locks = {name: monitor.wrap_lock(threading.Lock(), name) for name in "ABC"}
        for outer, inner in (("A", "B"), ("B", "C"), ("C", "A")):
            with locks[outer]:
                with locks[inner]:
                    pass
        assert monitor.inversions() == []  # no 2-cycle ...
        assert monitor.cycles() == [["A", "B", "C"]]  # ... but a 3-cycle

    def test_cross_thread_orders_merge_into_one_graph(self):
        monitor = LockOrderMonitor()
        a = monitor.wrap_lock(threading.Lock(), "A")
        b = monitor.wrap_lock(threading.Lock(), "B")

        def first():
            with a:
                with b:
                    pass

        def second():
            with b:
                with a:
                    pass

        for target in (first, second):
            thread = threading.Thread(target=target)
            thread.start()
            thread.join()
        assert monitor.inversions() == [("A", "B")]


class TestRealComponents:
    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_conformance_under_monitor(self, products_db, probes, name):
        monitor = LockOrderMonitor()
        backend = create_backend(name, products_db)
        checks = check_backend(backend, products_db, probes, lock_monitor=monitor)
        assert checks["probes"] == len(probes)
        assert checks["concurrent"] > 0
        assert checks["counts"] == len(probes)
        if name == "sqlite":
            # The pool condition was actually exercised by the storm ...
            assert monitor.acquisitions().get("backend.pool", 0) > 0
        # ... and no ordering cycle was observed anywhere in the run.
        monitor.assert_clean()

    def test_parallel_probe_path_is_order_clean(
        self, products_db, probes, tmp_path
    ):
        monitor = LockOrderMonitor()
        cache = ProbeCache(tmp_path / "cache.sqlite", products_db)
        with SqliteEngine(products_db, pool_size=3) as engine:
            serial = [engine.is_alive(probe) for probe in probes]
            monitor.instrument(engine._pool, "_available", "pool.available")
            monitor.instrument(engine._pool, "_lock", "pool.lock")
            monitor.instrument(cache, "_lock", "cache.store")
            # One evaluator per thread over the shared pool and cache store:
            # the way concurrent service sessions share them.
            evaluators = [InstrumentedEvaluator(engine) for _ in range(6)]
            for evaluator in evaluators:
                monitor.instrument(evaluator, "_lock", "evaluator.l1")
            answers: list[list[bool] | None] = [None] * len(evaluators)
            # Even slots also save and reload status facts of their own
            # keys between probes, on the same store and lock.
            reloads: list[list[bool]] = [[] for _ in evaluators]
            snapshot = products_db.snapshot()

            def session(slot: int) -> None:
                evaluator = evaluators[slot]
                seen = []
                for step, probe in enumerate(probes * 3):
                    seen.append(evaluator.is_alive(probe))
                    if slot % 2 == 0:
                        facts = (StatusFact(f"{slot}:{step}", ("Item",), seen[-1]),)
                        cache.save(facts, snapshot)
                        load = cache.load([facts[0].node_key])
                        reloads[slot].append(load.dropped == 0 and load.facts == facts)
                answers[slot] = seen

            threads = [
                threading.Thread(target=session, args=(slot,))
                for slot in range(len(evaluators))
            ]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)  # interleave the threads finely
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
        cache.close()
        assert answers == [serial * 3] * len(evaluators)
        # Each saving thread read back exactly its own last save, whole.
        for slot, checks in enumerate(reloads):
            assert checks == ([True] * len(probes) * 3 if slot % 2 == 0 else [])
        # Every monitored lock participated, and the combined evaluator /
        # cache-store / pool path never nested two of them in both orders.
        held = monitor.acquisitions()
        assert held.get("evaluator.l1", 0) > 0
        assert held.get("pool.available", 0) > 0
        assert held.get("cache.store", 0) > 0
        monitor.assert_clean()
