"""Shared conformance suite every registered backend must pass.

The registry lets anything claim to be a backend; this module is the
teeth.  :func:`check_backend` builds the named backend, replays a set of
probes whose ground truth comes from the in-memory engine, and verifies
each *declared* capability actually holds: thread-safe backends answer a
concurrent storm identically to the serial pass, enumerating backends
agree between ``count`` and ``is_alive``, pooling backends expose pool
stats and respect their cap.  A tier-1 test runs it for every
registered name, so a new backend (or a regression in an old one) fails
loudly.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Any, Sequence

from repro.backends.base import EnumeratingBackend
from repro.backends.registry import create_backend, get_backend_spec
from repro.relational.database import Database
from repro.relational.engine import InMemoryEngine
from repro.relational.jointree import BoundQuery

#: Worker count of the concurrent storm a thread-safe backend must survive.
CONFORMANCE_WORKERS = 8


class ConformanceFailure(AssertionError):
    """A backend violated the contract its registration declares."""


def _fail(name: str, message: str) -> None:
    raise ConformanceFailure(f"backend {name!r}: {message}")


def _instrument_pool_locks(backend: Any, lock_monitor: Any) -> None:
    """Attach the lock-order monitor to the backend's pool, if it has one.

    ``lock_monitor`` is duck-typed (any object with the
    :meth:`repro.analysis.lockorder.LockOrderMonitor.instrument` shape)
    so this low-level package never imports the analysis layer.
    """
    pool = getattr(backend, "_pool", None)
    if pool is None:
        return
    # The pool's condition wraps its lock; instrument both attributes
    # under one label so every acquisition path is observed.
    for attr in ("_available", "_lock"):
        if hasattr(pool, attr):
            lock_monitor.instrument(pool, attr, "backend.pool")


def check_backend(
    name: str,
    database: Database,
    probes: Sequence[BoundQuery],
    repeat: int = 3,
    lock_monitor: Any = None,
) -> dict[str, int]:
    """Run the conformance suite; returns check counters, raises on failure.

    With a ``lock_monitor`` (a
    :class:`repro.analysis.lockorder.LockOrderMonitor`), the backend's
    connection-pool locks are instrumented for the whole run and an
    observed acquisition-order cycle fails conformance like any other
    contract violation.
    """
    if not probes:
        raise ValueError("conformance needs at least one probe")
    spec = get_backend_spec(name)
    truth_engine = InMemoryEngine(database)
    truth = [truth_engine.is_alive(query) for query in probes]
    backend = create_backend(name, database)
    if lock_monitor is not None:
        _instrument_pool_locks(backend, lock_monitor)
    checks = {"probes": 0, "concurrent": 0, "counts": 0}
    try:
        # 1. Correctness: answers match the in-memory ground truth.
        for query, expected in zip(probes, truth):
            if backend.is_alive(query) != expected:
                _fail(name, f"wrong aliveness for {query.describe()}")
            checks["probes"] += 1

        # 2. Declared thread safety: a concurrent storm matches serial.
        if spec.capabilities.thread_safe:
            storm = list(probes) * repeat
            with ThreadPoolExecutor(max_workers=CONFORMANCE_WORKERS) as pool:
                answers = list(pool.map(backend.is_alive, storm))
            if answers != truth * repeat:
                _fail(name, "concurrent answers diverge from serial")
            checks["concurrent"] = len(storm)

        # 3. Declared enumeration: count agrees with aliveness.
        if spec.capabilities.enumeration:
            if not isinstance(backend, EnumeratingBackend):
                _fail(name, "declares enumeration but has no count()")
            for query, expected in zip(probes, truth):
                count = backend.count(query)  # type: ignore[attr-defined]
                if (count > 0) != expected:
                    _fail(
                        name,
                        f"count()={count} contradicts aliveness "
                        f"{expected} for {query.describe()}",
                    )
                checks["counts"] += 1

        # 4. Declared pooling: pool stats exist and the cap held.
        if spec.capabilities.pooling:
            stats = getattr(backend, "pool_stats", None)
            if stats is None:
                _fail(name, "declares pooling but exposes no pool_stats")
            snapshot = stats() if callable(stats) else stats
            if snapshot.max_in_use > getattr(backend, "pool_size", 1 << 30):
                _fail(
                    name,
                    f"pool peak {snapshot.max_in_use} exceeded its cap",
                )
            # Every probe path must have checked its connection back in:
            # a nonzero in-use count here is a leak (see RES001).
            if snapshot.in_use != 0:
                _fail(
                    name,
                    f"{snapshot.in_use} pooled connection(s) never "
                    f"checked back in",
                )

        # 5. Lock ordering: no acquisition cycle observed during the run.
        if lock_monitor is not None:
            inversions = lock_monitor.inversions()
            if inversions:
                _fail(
                    name,
                    f"lock-order inversions observed: {inversions}",
                )
    finally:
        closer = getattr(backend, "close", None)
        if callable(closer):
            closer()
            closer()  # close must be idempotent
    return checks
