"""Backend protocols and declared capabilities.

The paper's system is backend-agnostic by construction: every traversal
strategy talks to an :class:`AlivenessBackend` ("does this query return a
tuple?") through the instrumented evaluator, and nothing else about the
engine leaks upward.  This module is the contract layer: the protocols
every backend implements, plus a :class:`BackendCapabilities` record each
registered backend declares so callers (the service, the CLI, the
conformance suite) can check what an engine supports *before*
relying on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.relational.jointree import BoundQuery


@runtime_checkable
class AlivenessBackend(Protocol):
    """Anything that can answer "does this query return a tuple?"."""

    def is_alive(self, query: BoundQuery) -> bool:  # pragma: no cover - protocol
        ...


@runtime_checkable
class EnumeratingBackend(Protocol):
    """A backend that can also enumerate (a bounded number of) results."""

    def is_alive(self, query: BoundQuery) -> bool:  # pragma: no cover - protocol
        ...

    def count(
        self, query: BoundQuery, limit: int | None = None
    ) -> int:  # pragma: no cover - protocol
        ...


class ProbeStore(Protocol):
    """A persistent aliveness store (the L2 tier under the evaluator's LRU).

    Implemented by :class:`repro.cache.ProbeCache`; the protocol lives
    here so ``repro.relational`` needs no import of the cache machinery.
    ``get`` returns ``None`` on a miss; ``put`` must be idempotent.
    """

    def get(self, query: BoundQuery) -> bool | None:  # pragma: no cover - protocol
        ...

    def put(self, query: BoundQuery, alive: bool) -> None:  # pragma: no cover
        ...


@dataclass(frozen=True)
class BackendCapabilities:
    """What one registered backend supports, declared not probed.

    * ``thread_safe`` -- concurrent :meth:`is_alive` calls are allowed
      (required for the backend to serve concurrent service sessions);
    * ``enumeration`` -- implements :class:`EnumeratingBackend`
      (``count``/``fetch``), needed for witnesses and answer display;
    * ``pooling`` -- holds real per-connection resources behind a
      :class:`~repro.backends.pool.ConnectionPool` (exposes
      ``pool_stats``);
    * ``deterministic_latency`` -- wall time per probe is a deterministic
      function of the query (the simulated-latency stand-in), so timing
      benchmarks against it are reproducible.
    """

    thread_safe: bool = False
    enumeration: bool = False
    pooling: bool = False
    deterministic_latency: bool = False

    def describe(self) -> str:
        flags = [
            name
            for name, value in (
                ("thread-safe", self.thread_safe),
                ("enumeration", self.enumeration),
                ("pooling", self.pooling),
                ("deterministic-latency", self.deterministic_latency),
            )
            if value
        ]
        return ", ".join(flags) if flags else "(none)"
