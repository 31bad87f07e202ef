"""Index-backend protocol and registry: one place that knows how to index.

The paper builds its keyword -> tuple-set structures in Lucene once per
snapshot; this reproduction started with a dict-of-sets
(:class:`~repro.index.inverted.InvertedIndex`) that must fit in RAM.  At
million-tuple scale that dict *is* the memory ceiling, so the index is now
a pluggable tier mirroring :mod:`repro.backends.registry`: named
:class:`IndexSpec` entries carrying a factory and declared
:class:`IndexCapabilities`.  Two index backends ship built in:

* ``memory`` -- the original dict index (fastest lookups, linear RAM);
* ``sqlite`` -- an on-disk postings store
  (:class:`~repro.index.sqlite_index.SqliteInvertedIndex`): flat RAM,
  persistent next to the L2 probe cache, repaired per relation from the
  PR-8 content fingerprints instead of rebuilt.

Factories import their implementation lazily, and third-party indexes can
:func:`register_index_backend` themselves without touching this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterator, Protocol, runtime_checkable

from repro.relational.predicates import MatchMode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.index.inverted import Posting
    from repro.relational.database import Database


@dataclass(frozen=True)
class IndexCapabilities:
    """What an index backend can do, declared not probed.

    ``persistent``
        survives the process inside a ``cache_dir`` (next to the L2 probe
        cache) and is reopened, not rebuilt, by the next session.
    ``streaming``
        ``iter_tuple_set`` yields row ids without materializing the set;
        the engine may stream semi-join probes against it instead of
        building per-keyword hash sets.
    """

    persistent: bool = False
    streaming: bool = False


@runtime_checkable
class IndexBackend(Protocol):
    """The inverted-index surface every phase of the pipeline consumes.

    Phase 1 (keyword mapping) uses :meth:`relations_containing`; tuple-set
    construction and the engines use :meth:`tuple_set` /
    :meth:`iter_tuple_set` / :meth:`provider`; benches and cost models use
    the size accessors.  ``tuple_set`` must return exactly the rows whose
    text attributes match under the shared
    :func:`~repro.relational.predicates.tokenize` casefolding, whatever
    the storage -- the conformance suite holds every backend to the
    ``memory`` implementation's answers.
    """

    database: "Database"

    @property
    def vocabulary_size(self) -> int: ...

    def tokens(self) -> Iterator[str]: ...

    def relations_containing(
        self, keyword: str, mode: MatchMode = MatchMode.TOKEN
    ) -> tuple[str, ...]: ...

    def tuple_set(
        self, relation: str, keyword: str, mode: MatchMode = MatchMode.TOKEN
    ) -> frozenset[int]: ...

    def tuple_set_size(
        self, relation: str, keyword: str, mode: MatchMode = MatchMode.TOKEN
    ) -> int: ...

    def iter_tuple_set(
        self, relation: str, keyword: str, mode: MatchMode = MatchMode.TOKEN
    ) -> Iterator[int]: ...

    def postings(
        self, keyword: str, mode: MatchMode = MatchMode.TOKEN
    ) -> "list[Posting]": ...

    def provider(self, relation: str, keyword: str, mode: MatchMode) -> set[int]: ...

    def document_frequency(
        self, keyword: str, mode: MatchMode = MatchMode.TOKEN
    ) -> int: ...

    def close(self) -> None: ...


IndexFactory = Callable[..., IndexBackend]


class IndexRegistryError(ValueError):
    """Unknown index-backend name or conflicting registration."""


@dataclass(frozen=True)
class IndexSpec:
    """One registered index backend: name, factory, and capabilities."""

    name: str
    factory: IndexFactory
    capabilities: IndexCapabilities
    description: str = ""


_REGISTRY: dict[str, IndexSpec] = {}


def register_index_backend(
    name: str,
    factory: IndexFactory,
    capabilities: IndexCapabilities,
    description: str = "",
    replace: bool = False,
) -> IndexSpec:
    """Register ``factory`` under ``name``; refuses silent overwrites."""
    if not replace and name in _REGISTRY:
        raise IndexRegistryError(f"index backend {name!r} is already registered")
    spec = IndexSpec(name, factory, capabilities, description)
    _REGISTRY[name] = spec
    return spec


def index_backend_names() -> tuple[str, ...]:
    """All registered index-backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def get_index_spec(name: str) -> IndexSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(repr(known_name) for known_name in index_backend_names())
        raise IndexRegistryError(
            f"unknown index backend {name!r}; registered index backends: {known}"
        ) from None


def create_index(name: str, database: "Database", **options: Any) -> IndexBackend:
    """Build the named index over ``database``.

    ``options`` are passed to the factory; every built-in factory accepts
    (and ignores what it does not need from) ``cache_dir``.
    """
    return get_index_spec(name).factory(database, **options)


# ------------------------------------------------------ built-in factories
def _memory_factory(database: "Database", **options: Any) -> IndexBackend:
    from repro.index.inverted import InvertedIndex

    return InvertedIndex(database)


def _sqlite_factory(database: "Database", **options: Any) -> IndexBackend:
    from repro.index.sqlite_index import SqliteInvertedIndex

    cache_dir = options.get("cache_dir")
    if cache_dir is not None:
        return SqliteInvertedIndex.open_dir(cache_dir, database)
    return SqliteInvertedIndex(database)


register_index_backend(
    "memory",
    _memory_factory,
    IndexCapabilities(),
    "dict-of-sets inverted index (default; fastest lookups, linear RAM)",
)
register_index_backend(
    "sqlite",
    _sqlite_factory,
    IndexCapabilities(persistent=True, streaming=True),
    "on-disk sqlite postings store (flat RAM, fingerprint-keyed repair)",
)
