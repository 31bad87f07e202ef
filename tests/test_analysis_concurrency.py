"""Lock-discipline linter: one firing and one clean fixture per rule."""

import textwrap

from repro.analysis.concurrency import lint_concurrency_source


def codes(source, relative="repro/backends/example.py"):
    return [d.code for d in lint_concurrency_source(textwrap.dedent(source), relative)]


COUNTER = """
    import threading

    class Counter:
        def __init__(self):
            self._lock = threading.Lock()
            self._value = 0

        def bump(self) -> None:
            with self._lock:
                self._value = self._value + 1

        def peek(self) -> int:
            return {peek_body}
"""


class TestUnguardedSharedAccess:
    def test_read_outside_lock_flagged(self):
        source = COUNTER.format(peek_body="self._value")
        assert codes(source) == ["CONC001"]

    def test_read_under_lock_clean(self):
        source = """
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self._value = 0

            def bump(self) -> None:
                with self._lock:
                    self._value = self._value + 1

            def peek(self) -> int:
                with self._lock:
                    return self._value
        """
        assert codes(source) == []

    def test_guarded_by_annotation_covers_in_place_mutation(self):
        # self._items[k] = v is a Subscript store, invisible to the
        # store-based inference; the annotation is the declared contract.
        source = """
        import threading

        class Registry:
            def __init__(self):
                self._lock = threading.Lock()
                self._items = {}  # guarded-by: _lock

            def put(self, key, value) -> None:
                with self._lock:
                    self._items[key] = value

            def get(self, key):
                return self._items.get(key)
        """
        assert codes(source) == ["CONC001"]

    def test_guarded_by_annotation_above_line(self):
        source = """
        import threading

        class Registry:
            def __init__(self):
                self._lock = threading.Lock()
                # guarded-by: _lock
                self._items = {}

            def get(self, key):
                return self._items.get(key)
        """
        assert codes(source) == ["CONC001"]

    def test_init_repr_and_locked_methods_exempt(self):
        source = """
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self._value = 0

            def bump(self) -> None:
                with self._lock:
                    self._value = self._value + 1

            def peek_locked(self) -> int:
                return self._value

            def __repr__(self) -> str:
                return f"Counter({self._value})"
        """
        assert codes(source) == []

    def test_non_thread_shared_class_ignored(self):
        source = """
        class Plain:
            def __init__(self):
                self._value = 0

            def peek(self) -> int:
                return self._value
        """
        assert codes(source) == []


class TestAcquireWithoutRelease:
    def test_bare_acquire_flagged(self):
        source = """
        def hold(lock) -> None:
            lock.acquire()
            print("held")
        """
        assert codes(source) == ["CONC002"]

    def test_assigned_acquire_flagged(self):
        source = """
        def hold(lock) -> bool:
            got = lock.acquire(timeout=1.0)
            return got
        """
        assert codes(source) == ["CONC002"]

    def test_acquire_with_try_finally_release_clean(self):
        source = """
        def hold(lock) -> None:
            lock.acquire()
            try:
                print("held")
            finally:
                lock.release()
        """
        assert codes(source) == []


class TestWaitOutsideLoop:
    GATE = """
        import threading

        class Gate:
            def __init__(self):
                self._lock = threading.Lock()
                self._cond = threading.Condition(self._lock)
                self._open = False

            def open(self) -> None:
                with self._cond:
                    self._open = True
                    self._cond.notify_all()

            def wait_open(self) -> None:
                with self._cond:
                    {wait_body}
    """

    def test_wait_without_loop_flagged(self):
        source = self.GATE.format(wait_body="self._cond.wait()")
        assert codes(source) == ["CONC003"]

    def test_wait_inside_while_clean(self):
        source = self.GATE.format(
            wait_body="while not self._open:\n                        self._cond.wait()"
        )
        assert codes(source) == []

    def test_condition_wraps_named_lock(self):
        # Condition(self._lock) marks _lock acquirable too: a write under
        # 'with self._lock:' then a read under 'with self._cond:' is clean.
        source = """
        import threading

        class Gate:
            def __init__(self):
                self._lock = threading.Lock()
                self._cond = threading.Condition(self._lock)
                self._open = False

            def open(self) -> None:
                with self._lock:
                    self._open = True

            def peek(self) -> bool:
                with self._cond:
                    return self._open
        """
        assert codes(source) == []


class TestLockedMethodCalledUnlocked:
    STORE = """
        import threading

        class Store:
            def __init__(self):
                self._lock = threading.Lock()
                self._items = []  # guarded-by: _lock

            def _drain_locked(self) -> list:
                drained = list(self._items)
                self._items = []
                return drained

            def drain(self) -> list:
                {drain_body}
    """

    def test_unlocked_call_flagged(self):
        source = self.STORE.format(drain_body="return self._drain_locked()")
        assert codes(source) == ["CONC004"]

    def test_call_under_lock_clean(self):
        source = self.STORE.format(
            drain_body="with self._lock:\n                    return self._drain_locked()"
        )
        assert codes(source) == []

    def test_locked_to_locked_call_clean(self):
        source = """
        import threading

        class Store:
            def __init__(self):
                self._lock = threading.Lock()
                self._items = []  # guarded-by: _lock

            def _count_locked(self) -> int:
                return len(self._items)

            def _summary_locked(self) -> str:
                return f"{self._count_locked()} items"
        """
        assert codes(source) == []
