"""Pluggable backend layer: protocols, registry, and connection pooling.

The evaluation stack used to special-case each engine by hand; this
package makes the backend a named, capability-declaring plugin:

* :mod:`repro.backends.base` -- the :class:`AlivenessBackend` /
  :class:`EnumeratingBackend` / :class:`ProbeStore` protocols and the
  :class:`BackendCapabilities` record;
* :mod:`repro.backends.registry` -- named specs (``memory``, ``sqlite``,
  ``simulated``) with lazy factories; :func:`create_backend` is what
  :class:`~repro.core.debugger.NonAnswerDebugger` calls;
* :mod:`repro.backends.latency` -- :class:`SimulatedLatencyBackend`, the
  per-probe sleep behind ``simulated`` and the cache/serve benches;
* :mod:`repro.backends.pool` -- the generic bounded
  :class:`ConnectionPool` (checkout/checkin, idle recycling, stats) the
  sqlite engine draws its connections from;
* :mod:`repro.backends.conformance` -- the shared suite every registered
  backend must pass (a tier-1 test runs it for each name).
"""

from repro.backends.base import (
    AlivenessBackend,
    BackendCapabilities,
    EnumeratingBackend,
    ProbeStore,
)
from repro.backends.pool import (
    DEFAULT_POOL_SIZE,
    ConnectionPool,
    PoolError,
    PoolStats,
    PoolTimeout,
)
from repro.backends.registry import (
    BackendRegistryError,
    BackendSpec,
    backend_names,
    create_backend,
    get_backend_spec,
    register_backend,
)

__all__ = [
    "AlivenessBackend",
    "BackendCapabilities",
    "EnumeratingBackend",
    "ProbeStore",
    "ConnectionPool",
    "DEFAULT_POOL_SIZE",
    "PoolError",
    "PoolStats",
    "PoolTimeout",
    "BackendRegistryError",
    "BackendSpec",
    "backend_names",
    "create_backend",
    "get_backend_spec",
    "register_backend",
]
