"""Backend layer: protocols, the engine factory, and connection pooling.

* :mod:`repro.backends.base` -- the :class:`AlivenessBackend` /
  :class:`EnumeratingBackend` / :class:`ProbeStore` protocols and
  :func:`create_backend`, which builds the ``memory`` or ``sqlite``
  engine for :class:`~repro.core.debugger.NonAnswerDebugger`;
* :mod:`repro.backends.latency` -- :class:`SimulatedLatencyBackend`, a
  fixed per-probe sleep wrapped around an engine by ``repro bench serve``
  and the service tests;
* :mod:`repro.backends.pool` -- the generic bounded
  :class:`ConnectionPool` (blocking checkout, LIFO reuse, stats) the
  sqlite engine draws its connections from;
* :mod:`repro.backends.conformance` -- the suite a built backend must
  pass against in-memory ground truth (a tier-1 test runs it for both
  engines).
"""

from repro.backends.base import (
    BACKEND_NAMES,
    AlivenessBackend,
    EnumeratingBackend,
    ProbeStore,
    create_backend,
)
from repro.backends.pool import (
    DEFAULT_POOL_SIZE,
    ConnectionPool,
    PoolError,
    PoolStats,
    PoolTimeout,
)

__all__ = [
    "BACKEND_NAMES",
    "AlivenessBackend",
    "EnumeratingBackend",
    "ProbeStore",
    "create_backend",
    "ConnectionPool",
    "DEFAULT_POOL_SIZE",
    "PoolError",
    "PoolStats",
    "PoolTimeout",
]
