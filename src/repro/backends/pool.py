"""A generic bounded connection pool with checkout/checkin semantics.

``sqlite3`` connections must not be used by two threads at once, and a
real DBMS charges a round-trip (or worse, a handshake) per connection --
both problems the paper's deployment scenario hits the moment concurrent
service sessions probe one shared backend.  The pool solves them
generically:

* **Bounded checkout.**  At most ``max_size`` connections exist at any
  time; a checkout beyond the cap blocks until another thread checks its
  connection back in (or raises :class:`PoolTimeout` after ``timeout``
  seconds), so a burst of sessions can never exhaust backend resources.
* **LIFO reuse.**  Checkins park the connection on an idle stack and the
  next checkout pops the most recently used one -- the warmest cache.
* **Stats.**  :meth:`stats` snapshots created/reused counters plus
  current and high-water in-use counts and blocked checkouts, for the
  trace's ``pool_stats`` event, bench output and tests.

The pool is generic (``ConnectionPool[T]``): the sqlite backend pools
``sqlite3.Connection`` objects and tests pool plain fakes.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Generic, Iterator, TypeVar

T = TypeVar("T")

#: Default checkout cap: headroom over the service's default of four
#: concurrent sessions.
DEFAULT_POOL_SIZE = 8


class PoolError(RuntimeError):
    """Misuse of the pool (closed pool, foreign checkin, ...)."""


class PoolTimeout(PoolError):
    """A checkout waited longer than the configured timeout."""


@dataclass(frozen=True)
class PoolStats:
    """Point-in-time counters of one :class:`ConnectionPool`."""

    created: int
    reused: int
    in_use: int
    idle: int
    max_in_use: int
    waits: int

    def __str__(self) -> str:
        return (
            f"{self.created} created, {self.reused} reused; "
            f"{self.in_use} in use "
            f"(peak {self.max_in_use}), {self.idle} idle, "
            f"{self.waits} waits"
        )


class ConnectionPool(Generic[T]):
    """Bounded pool of connections produced by ``factory``.

    ``closer`` releases one connection (defaults to calling its
    ``close()`` method); ``timeout`` bounds how long a checkout may block
    waiting for capacity (``None`` = forever).
    """

    def __init__(
        self,
        factory: Callable[[], T],
        *,
        max_size: int = DEFAULT_POOL_SIZE,
        closer: Callable[[T], None] | None = None,
        timeout: float | None = None,
    ):
        if max_size <= 0:
            raise ValueError("max_size must be positive")
        self._factory = factory
        self.max_size = max_size
        self._closer = closer
        self.timeout = timeout
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)
        # LIFO stack of parked connections.
        self._idle: list[T] = []  # guarded-by: _lock
        self._in_use: dict[int, T] = {}  # guarded-by: _lock
        self._closed = False
        #: Connections alive right now (idle + in use + factory in flight);
        #: this is the number the ``max_size`` cap bounds.
        self._live = 0
        self._created = 0
        self._reused = 0
        self._max_in_use = 0
        self._waits = 0

    # ------------------------------------------------------------ lifecycle
    def _dispose(self, connection: T) -> None:
        if self._closer is not None:
            self._closer(connection)
        else:
            close = getattr(connection, "close", None)
            if callable(close):
                close()

    def checkout(self) -> T:
        """Borrow a connection; blocks when ``max_size`` are in use."""
        deadline = (
            None if self.timeout is None else time.perf_counter() + self.timeout
        )
        with self._available:
            while True:
                if self._closed:
                    raise PoolError("pool is closed")
                if self._idle:
                    self._reused += 1
                    return self._track_checkout_locked(self._idle.pop())
                if self._live < self.max_size:
                    self._live += 1
                    self._created += 1
                    break  # room to create a fresh connection below
                self._waits += 1
                remaining = (
                    None if deadline is None else deadline - time.perf_counter()
                )
                if remaining is not None and remaining <= 0:
                    raise PoolTimeout(
                        f"no connection available within {self.timeout}s "
                        f"(max_size={self.max_size})"
                    )
                if not self._available.wait(timeout=remaining):
                    raise PoolTimeout(
                        f"no connection available within {self.timeout}s "
                        f"(max_size={self.max_size})"
                    )
        # The factory runs outside the lock: it may be slow (a real DBMS
        # handshake) and must not serialize other checkouts.
        try:
            connection = self._factory()
        except BaseException:
            with self._available:
                self._live -= 1
                self._created -= 1
                self._available.notify()
            raise
        with self._available:
            return self._track_checkout_locked(connection)

    def _track_checkout_locked(self, connection: T) -> T:
        self._in_use[id(connection)] = connection
        self._max_in_use = max(self._max_in_use, len(self._in_use))
        return connection

    def checkin(self, connection: T) -> None:
        """Return a checked-out connection to the idle stack."""
        with self._available:
            if self._in_use.pop(id(connection), None) is None:
                raise PoolError("checkin of a connection not checked out here")
            if self._closed:
                self._live -= 1
                self._dispose(connection)
            else:
                self._idle.append(connection)
            self._available.notify()

    @contextmanager
    def connection(self) -> Iterator[T]:
        """``with pool.connection() as conn:`` checkout/checkin pairing."""
        connection = self.checkout()
        try:
            yield connection
        finally:
            self.checkin(connection)

    def close(self) -> None:
        """Close every idle connection and refuse new checkouts (idempotent).

        Connections still checked out are closed when checked back in.
        """
        with self._available:
            if self._closed:
                return
            self._closed = True
            idle, self._idle = self._idle, []
            self._live -= len(idle)
            self._available.notify_all()
        for connection in idle:
            self._dispose(connection)

    def __enter__(self) -> "ConnectionPool[T]":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ---------------------------------------------------------------- stats
    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def stats(self) -> PoolStats:
        with self._lock:
            return PoolStats(
                created=self._created,
                reused=self._reused,
                in_use=len(self._in_use),
                idle=len(self._idle),
                max_in_use=self._max_in_use,
                waits=self._waits,
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return f"ConnectionPool(max_size={self.max_size}, {state})"
