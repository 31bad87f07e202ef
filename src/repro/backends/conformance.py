"""Shared conformance suite every backend must pass.

:func:`check_backend` replays a set of probes against a built backend,
with ground truth from the in-memory engine, and verifies the whole
contract: a concurrent storm answers identically to the serial pass,
``count`` agrees with ``is_alive``, a pooled backend (one exposing
``pool_stats``) kept its cap and checked every connection back in, and
``close`` is idempotent.  A tier-1 test runs it for both engines under
the lock-order monitor, so a regression in either fails loudly.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Any, Sequence

from repro.backends.base import EnumeratingBackend
from repro.relational.database import Database
from repro.relational.engine import InMemoryEngine
from repro.relational.jointree import BoundQuery

#: Worker count of the concurrent storm every backend must survive.
CONFORMANCE_WORKERS = 8


class ConformanceFailure(AssertionError):
    """A backend violated the backend contract."""


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
    backend: Any,
    database: Database,
    probes: Sequence[BoundQuery],
    repeat: int = 3,
    lock_monitor: Any = None,
) -> dict[str, int]:
    """Run the conformance suite; returns check counters, raises on failure.

    ``backend`` must have been built over ``database``; the suite closes
    it (twice: close must be idempotent) when it is done.  With a
    ``lock_monitor`` (a :class:`repro.analysis.lockorder.LockOrderMonitor`),
    the backend's connection-pool locks are instrumented for the whole run
    and an observed acquisition-order cycle fails conformance like any
    other contract violation.
    """
    if not probes:
        raise ValueError("conformance needs at least one probe")
    name = type(backend).__name__
    truth_engine = InMemoryEngine(database)
    truth = [truth_engine.is_alive(query) for query in probes]
    if lock_monitor is not None:
        _instrument_pool_locks(backend, lock_monitor)
    checks = {"probes": 0, "concurrent": 0, "counts": 0}
    try:
        # 1. Correctness: answers match the in-memory ground truth.
        for query, expected in zip(probes, truth):
            if backend.is_alive(query) != expected:
                _fail(name, f"wrong aliveness for {query.describe()}")
            checks["probes"] += 1

        # 2. Thread safety: a concurrent storm matches serial.
        storm = list(probes) * repeat
        with ThreadPoolExecutor(max_workers=CONFORMANCE_WORKERS) as pool:
            answers = list(pool.map(backend.is_alive, storm))
        if answers != truth * repeat:
            _fail(name, "concurrent answers diverge from serial")
        checks["concurrent"] = len(storm)

        # 3. Enumeration: count agrees with aliveness.
        if not isinstance(backend, EnumeratingBackend):
            _fail(name, "has no count()")
        for query, expected in zip(probes, truth):
            count = backend.count(query)
            if (count > 0) != expected:
                _fail(
                    name,
                    f"count()={count} contradicts aliveness "
                    f"{expected} for {query.describe()}",
                )
            checks["counts"] += 1

        # 4. Pooling: wherever pool stats exist, the cap held.
        stats = getattr(backend, "pool_stats", None)
        if stats is not None:
            snapshot = stats()
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
