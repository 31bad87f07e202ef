"""Named backend registry: one place that knows how to build an engine.

Before this layer existed every caller special-cased engines by hand
(``if backend == "memory": ... elif backend == "sqlite": ...``); the
registry replaces that with named :class:`BackendSpec` entries carrying
a factory and declared :class:`~repro.backends.base.BackendCapabilities`.
Three backends ship built in:

* ``memory`` -- the in-memory Yannakakis engine (the default; answers
  probes in microseconds, supports enumeration for witnesses);
* ``sqlite`` -- executes the generated SQL on a pooled stdlib
  ``sqlite3`` mirror (realism cross-check; real connections, real pool);
* ``simulated`` -- the in-memory engine behind a deterministic per-probe
  latency (the wall-clock analogue of a networked DBMS round-trip).

Factories import their engine lazily so registering a backend never
drags its dependencies in, and third-party engines (a PostgreSQL
backend, say) can :func:`register_backend` themselves without touching
this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.backends.base import AlivenessBackend, BackendCapabilities

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.relational.database import Database

BackendFactory = Callable[..., AlivenessBackend]


class BackendRegistryError(ValueError):
    """Unknown backend name or conflicting registration."""


@dataclass(frozen=True)
class BackendSpec:
    """One registered backend: its name, factory, and capabilities."""

    name: str
    factory: BackendFactory
    capabilities: BackendCapabilities
    description: str = ""


_REGISTRY: dict[str, BackendSpec] = {}


def register_backend(
    name: str,
    factory: BackendFactory,
    capabilities: BackendCapabilities,
    description: str = "",
    replace: bool = False,
) -> BackendSpec:
    """Register ``factory`` under ``name``; refuses silent overwrites."""
    if not replace and name in _REGISTRY:
        raise BackendRegistryError(f"backend {name!r} is already registered")
    spec = BackendSpec(name, factory, capabilities, description)
    _REGISTRY[name] = spec
    return spec


def backend_names() -> tuple[str, ...]:
    """All registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def get_backend_spec(name: str) -> BackendSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(repr(known_name) for known_name in backend_names())
        raise BackendRegistryError(
            f"unknown backend {name!r}; registered backends: {known}"
        ) from None


def create_backend(
    name: str, database: "Database", **options: Any
) -> AlivenessBackend:
    """Build the named backend for ``database``.

    ``options`` are passed to the factory; every built-in factory accepts
    (and ignores what it does not need from) ``tuple_set_provider``,
    ``cost_model``, ``latency``, ``pool_size``, and ``recycle_after``.
    """
    return get_backend_spec(name).factory(database, **options)


# ------------------------------------------------------ built-in factories
def _memory_factory(database: "Database", **options: Any) -> AlivenessBackend:
    from repro.relational.engine import InMemoryEngine

    return InMemoryEngine(
        database,
        tuple_set_provider=options.get("tuple_set_provider"),
        streaming_source=options.get("streaming_source"),
        materialization_cap=options.get("materialization_cap"),
    )


def _sqlite_factory(database: "Database", **options: Any) -> AlivenessBackend:
    from repro.backends.pool import DEFAULT_POOL_SIZE
    from repro.relational.sqlite_backend import SqliteEngine

    return SqliteEngine(
        database,
        pool_size=options.get("pool_size", DEFAULT_POOL_SIZE),
        recycle_after=options.get("recycle_after"),
    )


def _simulated_factory(database: "Database", **options: Any) -> AlivenessBackend:
    from repro.backends.latency import DEFAULT_LATENCY, SimulatedLatencyBackend
    from repro.relational.engine import InMemoryEngine

    inner = InMemoryEngine(
        database,
        tuple_set_provider=options.get("tuple_set_provider"),
        streaming_source=options.get("streaming_source"),
        materialization_cap=options.get("materialization_cap"),
    )
    cost_model = options.get("cost_model")
    return SimulatedLatencyBackend(
        inner,
        latency=options.get("latency", DEFAULT_LATENCY),
        cost_model=cost_model,
        cost_scale=options.get("cost_scale", 0.0),
    )


register_backend(
    "memory",
    _memory_factory,
    BackendCapabilities(thread_safe=True, enumeration=True),
    "in-memory Yannakakis engine (default)",
)
register_backend(
    "sqlite",
    _sqlite_factory,
    BackendCapabilities(thread_safe=True, enumeration=True, pooling=True),
    "stdlib sqlite3 mirror behind a bounded connection pool",
)
register_backend(
    "simulated",
    _simulated_factory,
    BackendCapabilities(thread_safe=True, deterministic_latency=True),
    "in-memory engine plus a deterministic per-probe latency",
)
