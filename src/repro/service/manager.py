"""Multi-tenant session management over one shared debugger.

A :class:`SessionManager` turns a :class:`~repro.core.debugger.
NonAnswerDebugger` into a system serving traffic: submitted queries run
on a bounded worker pool, concurrently, sharing the debugger's backend
(pooled connections) and its persistent cache store
(:class:`~repro.cache.ProbeCache`: one fact per probed or classified query)
-- both individually thread-safe, which is what makes N
concurrent sessions byte-identical to N serial runs (each session still
owns its evaluator, its L1 LRU, and its
:class:`~repro.obs.budget.ProbeBudget`).

Lifecycle facts the rest of the service relies on:

* every session gets its own :class:`~repro.obs.trace.ProbeTracer`
  (seq from 0, listener-fed :class:`~repro.service.events.
  SessionEventLog`), so per-session streams are gap-free by construction;
* every session ends in exactly one terminal event
  (``session_completed`` / ``session_failed`` / ``session_cancelled``);
* cancellation is cooperative: :meth:`SessionManager.cancel` aborts the
  session's budget, the traversal stops at its next backend probe, and
  the partial classifications survive (never saved as complete);
* dataset mutations take the write side of a reader-writer gate --
  active sessions drain first, then the debugger's refresh
  (:meth:`~repro.core.debugger.NonAnswerDebugger.refresh_after_mutation`)
  runs with no reader in flight, then traffic resumes;
* finished sessions are evicted after ``session_ttl`` seconds; their
  records move to an archive so the shutdown export still carries every
  session the service ever ran.
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Sequence

from repro.core.debugger import DebugReport, NonAnswerDebugger
from repro.obs.budget import ProbeBudget
from repro.obs.trace import ProbeTracer
from repro.service.events import SessionEventLog

#: Session states, in lifecycle order.  ``cancelled`` can follow either
#: ``pending`` (never started) or ``running`` (budget-aborted mid-run).
PENDING = "pending"
RUNNING = "running"
COMPLETED = "completed"
FAILED = "failed"
CANCELLED = "cancelled"

#: States in which a session no longer holds the read gate.
FINISHED_STATES = frozenset({COMPLETED, FAILED, CANCELLED})


class ServiceClosed(RuntimeError):
    """Submitted to (or mutated through) a manager that is shutting down."""


class UnknownSession(KeyError):
    """A session id that does not exist (or was TTL-evicted)."""


class _StateGate:
    """Reader-writer gate: sessions read, dataset mutations write.

    Writer-preferring: once a mutation is waiting, new sessions queue
    behind it (otherwise a busy service could starve mutations forever).
    Built on one condition; every wait sits in a while loop re-checking
    its predicate, per the CONC003 contract.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0  # guarded-by: _cond
        self._writers_waiting = 0  # guarded-by: _cond
        self._writer_active = False  # guarded-by: _cond

    def acquire_read(self) -> None:
        with self._cond:
            while self._writer_active or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer_active = True

    def release_write(self) -> None:
        with self._cond:
            self._writer_active = False
            self._cond.notify_all()


class SessionHandle:
    """One submitted query's live state, shared between threads.

    The immutable identity (id, query text, strategy, tracer, log,
    budget) is set at construction; the mutable lifecycle fields are
    guarded by the handle's lock and move strictly forward
    (pending -> running -> terminal).
    """

    def __init__(
        self,
        session_id: str,
        number: int,
        query: str,
        strategy: str,
        budget: ProbeBudget,
        tracer: ProbeTracer,
        log: SessionEventLog,
    ):
        self.session_id = session_id
        #: Monotone submission number; orders sessions in the export.
        self.number = number
        self.query = query
        self.strategy = strategy
        self.budget = budget
        self.tracer = tracer
        self.log = log
        self.done = threading.Event()
        self._lock = threading.Lock()
        self._state = PENDING  # guarded-by: _lock
        self._report: DebugReport | None = None  # guarded-by: _lock
        self._error: str | None = None  # guarded-by: _lock
        self._cancel_requested = False  # guarded-by: _lock
        self._finished_tick: float | None = None  # guarded-by: _lock

    # ------------------------------------------------------------- queries
    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    @property
    def report(self) -> DebugReport | None:
        """The finished run's report (None until terminal, or on failure)."""
        with self._lock:
            return self._report

    @property
    def error(self) -> str | None:
        with self._lock:
            return self._error

    def cancel_requested(self) -> bool:
        with self._lock:
            return self._cancel_requested

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the session is terminal; True iff it finished."""
        return self.done.wait(timeout)

    def expired(self, now: float, ttl: float) -> bool:
        """True when the session finished more than ``ttl`` seconds ago."""
        with self._lock:
            return (
                self._finished_tick is not None
                and now - self._finished_tick > ttl
            )

    # ------------------------------------------------------- state changes
    def request_cancel(self) -> None:
        """Flag cancellation and abort the budget (cooperative stop)."""
        with self._lock:
            self._cancel_requested = True
        self.budget.abort()

    def mark_running(self) -> None:
        with self._lock:
            self._state = RUNNING

    def finish(
        self,
        state: str,
        report: DebugReport | None = None,
        error: str | None = None,
    ) -> None:
        """Move to a terminal state exactly once and release waiters."""
        if state not in FINISHED_STATES:
            raise ValueError(f"not a terminal state: {state!r}")
        with self._lock:
            if self._state in FINISHED_STATES:  # pragma: no cover - defensive
                return
            self._state = state
            self._report = report
            self._error = error
            self._finished_tick = time.perf_counter()
        self.done.set()

    # -------------------------------------------------------------- views
    def describe(self) -> dict[str, Any]:
        """Summary row for listings and the admin endpoint."""
        with self._lock:
            state = self._state
            report = self._report
            error = self._error
        row: dict[str, Any] = {
            "session_id": self.session_id,
            "query": self.query,
            "strategy": self.strategy,
            "state": state,
            "events": len(self.log),
        }
        if error is not None:
            row["error"] = error
        if report is not None:
            row["aborted"] = report.aborted
            row["exhausted"] = report.exhausted
        return row

    def result_payload(self) -> dict[str, Any]:
        """The paper's three outputs as a JSON-safe document.

        Answers, non-answers, and per-non-answer MPANs, plus the
        canonical classification signature used by the byte-identity
        property tests and the serving bench.
        """
        with self._lock:
            state = self._state
            report = self._report
            error = self._error
        payload: dict[str, Any] = {
            "session_id": self.session_id,
            "query": self.query,
            "strategy": self.strategy,
            "state": state,
        }
        if error is not None:
            payload["error"] = error
        if report is None:
            return payload
        payload["aborted"] = report.aborted
        payload["exhausted"] = report.exhausted
        if report.aborted:
            payload["missing_keywords"] = list(report.mapping.missing_keywords)
            return payload
        payload["answers"] = [
            query.describe() for query in report.answers()
        ]
        payload["non_answers"] = [
            {
                "query": query.describe(),
                "mpans": [mpan.describe() for mpan in mpans],
            }
            for query, mpans in report.explanations()
        ]
        if report.traversal is not None:
            payload["signature"] = json.loads(
                json.dumps(report.traversal.classification_signature())
            )
            payload["queries_executed"] = (
                report.traversal.stats.queries_executed
            )
            payload["cache_hits"] = report.traversal.stats.cache_hits
        return payload


class SessionManager:
    """Run concurrent debugging sessions over one shared debugger.

    The manager takes ownership of ``debugger`` (``close_debugger``
    False opts out, for callers sharing a long-lived one): shutdown
    drains active sessions, emits the final ``service_shutdown`` and
    ``pool_stats`` events, and closes the debugger's resources.

    ``session_ttl`` (seconds, None = keep forever) bounds how long a
    *finished* session stays addressable; eviction moves its records to
    the archive so :meth:`export_jsonl` still covers it.
    """

    def __init__(
        self,
        debugger: NonAnswerDebugger,
        workers: int = 4,
        session_ttl: float | None = None,
        close_debugger: bool = True,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.debugger = debugger
        self.workers = workers
        self.session_ttl = session_ttl
        self._close_debugger = close_debugger
        #: Service-level tracer: shutdown, mutation, and pool events that
        #: belong to no single session.  Installed as the debugger's
        #: default so ``debugger.close()`` lands its ``pool_stats`` here.
        self.tracer = debugger.tracer or ProbeTracer()
        debugger.tracer = self.tracer
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-session"
        )
        self._gate = _StateGate()
        self._lock = threading.Lock()
        self._sessions: dict[str, SessionHandle] = {}  # guarded-by: _lock
        self._archive: list[dict[str, object]] = []  # guarded-by: _lock
        self._counter = 0  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock
        self._evicted = 0  # guarded-by: _lock

    # ------------------------------------------------------------ sessions
    def submit(
        self,
        query: str,
        strategy: str | None = None,
        max_queries: int | None = None,
    ) -> SessionHandle:
        """Queue one keyword query; returns immediately with its handle.

        ``max_queries`` caps the session's probe budget (None =
        unlimited; the budget object still exists, it is the
        cancellation mechanism).  Session ids are deterministic
        (``s1``, ``s2``, ...): replays produce identical streams.
        """
        self.evict_expired()
        strategy_name = strategy or self.debugger.strategy.name
        with self._lock:
            if self._closed:
                raise ServiceClosed("the session manager is shut down")
            self._counter += 1
            number = self._counter
        session_id = f"s{number}"
        budget = ProbeBudget(max_queries=max_queries)
        log = SessionEventLog(session_id)
        tracer = ProbeTracer(listener=log.append)
        tracer.set_context(session_id=session_id)
        handle = SessionHandle(
            session_id, number, query, strategy_name, budget, tracer, log
        )
        with self._lock:
            self._sessions[session_id] = handle
        attrs: dict[str, Any] = {"query": query, "strategy": strategy_name}
        if max_queries is not None:
            attrs["max_queries"] = max_queries
        tracer.record_event("session_submitted", **attrs)
        self._executor.submit(self._run_session, handle)
        return handle

    def _run_session(self, handle: SessionHandle) -> None:
        """Worker-pool body: one full debug run behind the read gate."""
        self._gate.acquire_read()
        try:
            if handle.cancel_requested():
                handle.tracer.record_event(
                    "session_cancelled", started=False
                )
                handle.finish(CANCELLED)
                return
            handle.mark_running()
            handle.tracer.record_event("session_started")
            try:
                report = self.debugger.debug(
                    handle.query,
                    strategy=handle.strategy,
                    budget=handle.budget,
                    tracer=handle.tracer,
                )
            except Exception as error:  # surfaced to the client, not raised
                handle.tracer.record_event(
                    "session_failed", error=str(error)
                )
                handle.finish(FAILED, error=str(error))
                return
            if handle.cancel_requested():
                handle.tracer.record_event(
                    "session_cancelled",
                    started=True,
                    exhausted=report.exhausted,
                )
                handle.finish(CANCELLED, report=report)
                return
            traversal = report.traversal
            handle.tracer.record_event(
                "session_completed",
                aborted=report.aborted,
                exhausted=report.exhausted,
                answers=len(report.answers()),
                non_answers=len(report.non_answers()),
                mpans=traversal.mpan_pair_count if traversal else 0,
            )
            handle.finish(COMPLETED, report=report)
        finally:
            self._gate.release_read()

    def get(self, session_id: str) -> SessionHandle:
        with self._lock:
            handle = self._sessions.get(session_id)
        if handle is None:
            raise UnknownSession(session_id)
        return handle

    def sessions(self) -> list[SessionHandle]:
        """All addressable sessions, in submission order."""
        with self._lock:
            handles = list(self._sessions.values())
        return sorted(handles, key=lambda handle: handle.number)

    def cancel(self, session_id: str) -> SessionHandle:
        """Cooperatively stop one session (idempotent on finished ones)."""
        handle = self.get(session_id)
        handle.request_cancel()
        return handle

    def wait_all(self, timeout: float | None = None) -> bool:
        """Block until every submitted session is terminal."""
        deadline = (
            None if timeout is None else time.perf_counter() + timeout
        )
        for handle in self.sessions():
            remaining: float | None = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.perf_counter())
            if not handle.wait(remaining):
                return False
        return True

    # ------------------------------------------------------------ eviction
    def evict_expired(self) -> int:
        """Drop finished sessions older than the TTL (records archived)."""
        if self.session_ttl is None:
            return 0
        now = time.perf_counter()
        evicted: list[SessionHandle] = []
        with self._lock:
            for session_id in list(self._sessions):
                handle = self._sessions[session_id]
                if handle.expired(now, self.session_ttl):
                    del self._sessions[session_id]
                    self._archive.extend(handle.log.snapshot())
                    self._evicted += 1
                    evicted.append(handle)
        for handle in evicted:
            # Service-level record; deliberately NOT named session_id so
            # the per-session gap-free check keys only on real streams.
            self.tracer.record_event(
                "session_evicted", evicted_session=handle.session_id
            )
        return len(evicted)

    # ------------------------------------------------------------ mutation
    def mutate(
        self,
        relation: str,
        inserts: Sequence[Sequence[Any]] = (),
        deletes: Sequence[int] = (),
    ) -> dict[str, Any]:
        """Apply dataset changes with no session in flight (write gate).

        Deletes are applied by row id in descending order (each delete
        shifts later ids), inserts after.  Then the debugger refreshes:
        index/mapper/backend rebuilt and the post-write snapshot registered
        with the cache store, whose rows are judged against it when read.  Sessions submitted during the mutation
        queue behind the gate and see only the post-mutation snapshot.
        """
        with self._lock:
            if self._closed:
                raise ServiceClosed("the session manager is shut down")
        self._gate.acquire_write()
        try:
            table = self.debugger.database.table(relation)
            for row_id in sorted(deletes, reverse=True):
                table.delete(row_id)
            for row in inserts:
                table.insert(list(row))
            self.debugger.refresh_after_mutation()
            self.tracer.record_event(
                "dataset_mutated",
                relation=relation,
                inserted=len(inserts),
                deleted=len(deletes),
            )
        finally:
            self._gate.release_write()
        return {
            "relation": relation,
            "inserted": len(inserts),
            "deleted": len(deletes),
        }

    # --------------------------------------------------------------- stats
    def stats(self) -> dict[str, Any]:
        """Operator view: sessions by state, cache and pool counters."""
        by_state: dict[str, int] = {}
        for handle in self.sessions():
            state = handle.state
            by_state[state] = by_state.get(state, 0) + 1
        with self._lock:
            submitted = self._counter
            evicted = self._evicted
            closed = self._closed
        payload: dict[str, Any] = {
            "workers": self.workers,
            "closed": closed,
            "sessions_submitted": submitted,
            "sessions_evicted": evicted,
            "sessions_by_state": by_state,
        }
        cache = self.debugger.cache
        if cache is not None:
            stats = cache.stats()
            payload["probe_cache"] = {
                "entries": stats.entries,
                "hits": stats.hits,
                "misses": stats.misses,
                "writes": stats.writes,
            }
        pool_stats = getattr(self.debugger.backend, "pool_stats", None)
        if callable(pool_stats):
            pool = pool_stats()
            payload["pool"] = {
                "in_use": pool.in_use,
                "max_in_use": pool.max_in_use,
            }
        return payload

    # ------------------------------------------------------------ shutdown
    def shutdown(
        self, drain: bool = True, export_path: str | None = None
    ) -> dict[str, Any]:
        """Stop the service: no new sessions, finish or cancel the rest.

        ``drain=True`` lets queued and running sessions complete;
        ``drain=False`` aborts every unfinished budget first (they still
        end with a proper terminal event).  Emits ``service_shutdown``
        with the post-drain active count (always 0 -- the invariant
        ``repro trace check`` asserts), then ``pool_stats`` via
        ``debugger.close()``.  Idempotent.
        """
        with self._lock:
            already = self._closed
            self._closed = True
            served = self._counter
        if already:
            return {"active_sessions": 0, "sessions_served": served}
        if not drain:
            for handle in self.sessions():
                handle.request_cancel()
        self._executor.shutdown(wait=True)
        active = sum(
            1
            for handle in self.sessions()
            if handle.state not in FINISHED_STATES
        )
        with self._lock:
            served = self._counter
        self.tracer.record_event(
            "service_shutdown",
            active_sessions=active,
            sessions_served=served,
            drained=drain,
        )
        if self._close_debugger:
            self.debugger.close()
        if export_path is not None:
            self.export_jsonl(export_path)
        return {"active_sessions": active, "sessions_served": served}

    # -------------------------------------------------------------- export
    def export_jsonl(self, path: str) -> int:
        """Write every record the service produced, one JSON line each.

        Ordering keeps ``repro trace check`` sound: archived (evicted)
        sessions first, then live sessions each as one contiguous block
        in submission order (traversal segments never interleave), then
        the service-level records (mutations, evictions,
        ``service_shutdown``, ``pool_stats``) last.
        """
        from repro.ioutil import atomic_write_text

        with self._lock:
            records: list[dict[str, object]] = list(self._archive)
        for handle in self.sessions():
            records.extend(handle.log.snapshot())
        records.extend(record.to_dict() for record in self.tracer.records)
        atomic_write_text(
            path,
            "".join(
                json.dumps(record, sort_keys=True) + "\n"
                for record in records
            ),
        )
        return len(records)

    def __enter__(self) -> "SessionManager":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()
