"""The end-to-end system: all four phases behind one facade.

:class:`NonAnswerDebugger` owns the offline artifacts (inverted index,
lattice) and, per keyword query, runs

* Phase 1 -- keyword mapping and lattice pruning,
* Phase 2 -- MTN discovery and exploration-graph construction,
* Phase 3 -- a traversal strategy classifying MTNs and extracting MPANs,

returning a :class:`DebugReport` with the paper's three outputs: answer
queries, non-answer queries, and the maximal nonempty sub-queries (MPANs) of
every non-answer, plus all the instrumentation the evaluation section plots.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from repro.backends import create_backend
from repro.cache import ProbeCache, StatusFact, query_cache_key
from repro.core.binding import KeywordBinder, PrunedLattice
from repro.core.constraints import UNCONSTRAINED, SearchConstraints
from repro.core.lattice import Lattice, generate_lattice
from repro.core.mtn import ExplorationGraph, build_exploration_graph
from repro.core.status import InconsistentStatusError, Status, StatusStore
from repro.core.traversal import TraversalResult, TraversalStrategy, get_strategy
from repro.core.traversal.base import seed_base_levels
from repro.index import IndexBackend, create_index
from repro.index.mapper import KeywordMapper, KeywordMapping
from repro.obs.budget import ProbeBudget
from repro.obs.trace import ProbeTracer
from repro.relational.database import Database, DatabaseSnapshot
from repro.relational.engine import InMemoryEngine
from repro.relational.evaluator import InstrumentedEvaluator, QueryCostModel
from repro.relational.jointree import BoundQuery, JoinTree
from repro.relational.predicates import MatchMode


@dataclass
class PhaseTimings:
    """Wall-clock seconds spent in each online phase."""

    keyword_mapping: float = 0.0
    lattice_pruning: float = 0.0
    mtn_discovery: float = 0.0
    traversal: float = 0.0

    @property
    def total(self) -> float:
        return (
            self.keyword_mapping
            + self.lattice_pruning
            + self.mtn_discovery
            + self.traversal
        )


@dataclass
class DebugReport:
    """Everything the system reports for one keyword query."""

    query: str
    mapping: KeywordMapping
    pruned_lattices: list[PrunedLattice] = field(default_factory=list)
    graph: ExplorationGraph | None = None
    traversal: TraversalResult | None = None
    timings: PhaseTimings = field(default_factory=PhaseTimings)

    # ------------------------------------------------------------- contents
    @property
    def aborted(self) -> bool:
        """True when some keyword occurs nowhere ("and" semantics, §2.3)."""
        return not self.mapping.complete

    @property
    def exhausted(self) -> bool:
        """True when the probe budget bound and the traversal is partial."""
        return bool(self.traversal and self.traversal.exhausted)

    @property
    def mtn_count(self) -> int:
        return len(self.graph.mtn_indexes) if self.graph else 0

    @property
    def retained_nodes(self) -> int:
        """Union size of trees retained across interpretations (Phase 1)."""
        retained: set[JoinTree] = set()
        for pruned in self.pruned_lattices:
            retained.update(pruned.retained)
        return len(retained)

    def answers(self) -> list[BoundQuery]:
        return self.traversal.answer_queries() if self.traversal else []

    def non_answers(self) -> list[BoundQuery]:
        return self.traversal.non_answer_queries() if self.traversal else []

    def explanations(self) -> list[tuple[BoundQuery, list[BoundQuery]]]:
        """``(non-answer, its MPANs)`` pairs -- the debugging output."""
        if not self.traversal:
            return []
        pairs = []
        for mtn_index in self.traversal.dead_mtns:
            pairs.append(
                (
                    self.graph.node(mtn_index).query,
                    self.traversal.mpan_queries(mtn_index),
                )
            )
        return pairs

    # -------------------------------------------------------------- display
    @staticmethod
    def _labels(queries: list[BoundQuery]) -> dict[BoundQuery, str]:
        """Display labels, using the join-level form only on collisions."""
        seen: dict[str, int] = {}
        for query in queries:
            text = query.describe()
            seen[text] = seen.get(text, 0) + 1
        return {
            query: (
                query.describe_full()
                if seen[query.describe()] > 1
                else query.describe()
            )
            for query in queries
        }

    def render(self, max_items: int = 10) -> str:
        lines = [f'Keyword query: "{self.query}"']
        if self.aborted:
            missing = ", ".join(self.mapping.missing_keywords)
            lines.append(f"  keywords not found anywhere in the database: {missing}")
            lines.append("  (no further exploration; 'and' semantics)")
            return "\n".join(lines)
        lines.append(
            f"  interpretations: {len(self.mapping.interpretations)}, "
            f"MTNs: {self.mtn_count}, exploration nodes: "
            f"{len(self.graph) if self.graph else 0}"
        )
        answers = self.answers()
        answer_labels = self._labels(answers)
        lines.append(f"  answer queries ({len(answers)}):")
        for query in answers[:max_items]:
            lines.append(f"    + {answer_labels[query]}")
        if len(answers) > max_items:
            lines.append(f"    ... and {len(answers) - max_items} more")
        explanations = self.explanations()
        non_answer_labels = self._labels([query for query, _ in explanations])
        lines.append(f"  non-answer queries ({len(explanations)}):")
        for query, mpans in explanations[:max_items]:
            lines.append(f"    - {non_answer_labels[query]}")
            for mpan in mpans[:max_items]:
                lines.append(f"        maximal alive sub-query: {mpan.describe()}")
        if len(explanations) > max_items:
            lines.append(f"    ... and {len(explanations) - max_items} more")
        if self.exhausted and self.traversal:
            unclassified = len(self.traversal.unclassified_mtns)
            lines.append(
                f"  probe budget exhausted: partial result, "
                f"{unclassified} candidate network(s) left possibly-alive"
            )
        if self.traversal:
            lines.append(f"  SQL effort: {self.traversal.stats}")
        return "\n".join(lines)


class NonAnswerDebugger:
    """The paper's system: a KWS-S engine that explains its non-answers."""

    def __init__(
        self,
        database: Database,
        max_joins: int = 2,
        mode: MatchMode = MatchMode.TOKEN,
        strategy: str | TraversalStrategy = "sbh",
        backend: str = "memory",
        cost_model: QueryCostModel | None = None,
        lattice: Lattice | None = None,
        use_lattice: bool = True,
        max_keywords: int | None = None,
        free_copies: int = 1,
        tracer: ProbeTracer | None = None,
        cache_dir: str | Path | None = None,
        index_backend: str = "memory",
        index: IndexBackend | None = None,
    ):
        """Build the offline artifacts for ``database``.

        ``use_lattice=False`` skips Phase 0 and generates, per slot
        signature, the retained trees that are subtrees of potential MTNs
        (:meth:`KeywordBinder.prune_for_mtns`; identical results, no
        offline cost); that is how the high-level experiments run.  Either
        way the binder keeps each signature's Phase 1-2 work in one
        bounded memo, filled on first use and shared by every thread and
        session of this debugger; writes leave it valid.  ``max_keywords`` caps
        the number of keyword slots the lattice materializes (defaults to
        the paper's ``max_joins + 1``).  ``free_copies > 1`` enables the
        multi-free-copy extension (direct mode only; see
        :mod:`repro.core.freecopies`).

        ``backend`` names the engine (``memory`` or ``sqlite``, see
        :func:`repro.backends.create_backend`) and ``index_backend`` the
        keyword index (``memory`` or ``sqlite``, see
        :func:`repro.index.create_index`).  A memory engine over the sqlite
        index streams tuple sets larger than the materialization cap off
        disk instead of holding them in RAM.  ``index`` injects a prebuilt
        index (the scale bench reuses one across phases); the debugger then
        does not own (or close) it.

        ``cache_dir`` attaches one persistent cache store
        (:class:`repro.cache.ProbeCache`): one fact per query, keyed by
        canonical query key, for every node a run probed or inferred.
        :meth:`debug` reads it once per run, replaying the facts of its
        graph's keys through R1/R2 (:meth:`replay_status`), whichever
        query, constraints or session learned them -- after a write too,
        since each row is judged against the snapshot it was written
        under (monotone survivors kept) instead of being discarded.  A
        later session over an unchanged database therefore answers
        previously classified nodes with zero backend queries.  The
        sqlite index lives there too and is rebuilt per changed relation
        on reopen.

        When construction raises, everything built so far is released.
        """
        self.database = database
        self.schema = database.schema
        self.mode = mode
        self.cost_model = cost_model
        # Default tracer stamped onto every evaluator this debugger makes;
        # one tracer can accumulate spans across many queries/strategies.
        self.tracer = tracer
        # Remembered so refresh_after_mutation() can rebuild the
        # snapshot-bound index and backend in place.
        self.index_backend_name = index_backend
        self.backend_name = backend
        self.cache_dir = cache_dir
        self.backend: Any = None
        self.cache: ProbeCache | None = None
        self._owns_index = index is None
        self.index: IndexBackend = (
            create_index(index_backend, database, cache_dir) if index is None else index
        )
        try:
            self.mapper = KeywordMapper(self.index, mode=mode)
            if free_copies > 1:
                use_lattice = False
                lattice = None
            if lattice is None and use_lattice:
                lattice = generate_lattice(self.schema, max_joins, max_keywords)
            if lattice is not None and lattice.schema is not self.schema:
                raise ValueError("lattice was generated for a different schema")
            self.lattice = lattice
            self.binder = KeywordBinder(
                lattice=lattice,
                schema=self.schema,
                max_joins=max_joins,
                max_keywords=max_keywords,
                free_copies=free_copies,
            )
            self.strategy = (
                strategy
                if isinstance(strategy, TraversalStrategy)
                else get_strategy(strategy)
            )
            self.backend = create_backend(backend, database, self.index)
            if cache_dir is not None:
                self.cache = ProbeCache.open_dir(cache_dir, database)
        except BaseException:
            self._release()
            raise

    # ------------------------------------------------------------- pipeline
    def make_evaluator(
        self,
        # perfbench/oracle.py passes use_cache=False.
        use_cache: bool | None = None,
        budget: ProbeBudget | None = None,
        tracer: ProbeTracer | None = None,
    ) -> InstrumentedEvaluator:
        if use_cache is None:
            use_cache = self.strategy.uses_reuse
        return InstrumentedEvaluator(
            self.backend,
            cost_model=self.cost_model,
            use_cache=use_cache,
            budget=budget,
            tracer=tracer if tracer is not None else self.tracer,
        )

    def map_keywords(self, query: str) -> KeywordMapping:
        """Phase 1a: keyword -> relation mapping via the inverted index."""
        return self.mapper.map_query(query)

    def prune(self, mapping: KeywordMapping) -> list[PrunedLattice]:
        """Phase 1b: one pruned lattice per interpretation.

        Each is read off the binder's slot-signature memo
        (:meth:`KeywordBinder.prune`), which fills an entry the first time
        a signature shows up: from the lattice's slot-signature index
        (:meth:`Lattice.trees_within`), or in direct mode by generating
        only the MTN-relevant trees (the rest of the pipeline needs nothing
        else; ``binder.prune_direct`` gives the complete set).
        """
        return [self.binder.prune(interpretation) for interpretation in mapping.interpretations]

    def build_graph(
        self,
        pruned: list[PrunedLattice],
        constraints: SearchConstraints = UNCONSTRAINED,
    ) -> ExplorationGraph:
        """Phase 2: MTNs of every interpretation plus their sub-networks."""
        return build_exploration_graph(pruned, self.mode, constraints)

    # -------------------------------------------------- persisted status
    def node_keys(self, graph: ExplorationGraph) -> list[str]:
        """Each node's canonical cache key, by index; empty without a cache.

        Computed once per graph and handed to both :meth:`replay_status`
        and :meth:`save_status`.
        """
        if self.cache is None:
            return []
        return [query_cache_key(node.query, self.schema) for node in graph.nodes]

    def replay_status(
        self,
        graph: ExplorationGraph,
        keys: list[str],
        tracer: ProbeTracer | None = None,
    ) -> tuple[StatusStore, int]:
        """A fresh store of ``graph`` holding everything the cache proves.

        Level 1 is seeded from the catalog (:func:`seed_base_levels`),
        then each row :meth:`ProbeCache.load` keeps among ``keys`` --
        exact, or kept by the monotone rule against its own snapshot --
        is recorded on every node with its key, so R1/R2 closure
        re-derives what the facts imply.  A fact that disagrees with a
        status already known marks the whole set corrupt: the seeded
        store comes back with none of it applied, and the run traverses
        cold.  Returns the store and the number of facts replayed; a
        traversal that cannot skip Phase 3 starts from the store.
        """
        store = self._seeded_store(graph)
        load = None
        if self.cache is not None:
            load = self.cache.load(keys)
        if load is None:
            return store, 0
        by_key: dict[str, list[int]] = {}
        for index, key in enumerate(keys):
            by_key.setdefault(key, []).append(index)
        applied = 0
        try:
            for fact in load.facts:
                for index in by_key.get(fact.node_key, ()):
                    # record() raises when the node is known the other way.
                    applied += not store.is_known(index)
                    store.record(index, fact.alive, evaluated=False)
        except InconsistentStatusError:
            return self._seeded_store(graph), 0
        active = tracer if tracer is not None else self.tracer
        if active is not None:
            active.record_event(
                "status_preload", applied=applied, dropped=load.dropped
            )
        return store, len(load.facts)

    def save_status(
        self,
        graph: ExplorationGraph,
        keys: list[str],
        stores: Iterable[StatusStore],
        snapshot: DatabaseSnapshot | None,
    ) -> None:
        """Persist every node ``stores`` know, one fact per key.

        That is what the run probed, what R1/R2 inferred from it, and
        what the replay brought in, which is stamped afresh.
        ``snapshot`` is the database state the classifications were
        computed on; :meth:`ProbeCache.save` stores nothing once a write
        has replaced it.
        """
        if self.cache is None or snapshot is None:
            return
        known = alive = 0
        for store in stores:
            known |= (store.alive_mask | store.dead_mask) & store.domain
            alive |= store.alive_mask & store.domain
        facts = [
            StatusFact(
                node_key=keys[index],
                relations=tuple(sorted(graph.node(index).query.tree.relations())),
                alive=bool((alive >> index) & 1),
            )
            for index in graph.bits(known)
        ]
        if facts:
            self.cache.save(facts, snapshot)

    def _seeded_store(self, graph: ExplorationGraph) -> StatusStore:
        store = StatusStore(graph)
        seed_base_levels(graph, store, self.database)
        return store

    def debug(
        self,
        query: str,
        strategy: str | TraversalStrategy | None = None,
        constraints: SearchConstraints = UNCONSTRAINED,
        budget: ProbeBudget | None = None,
        tracer: ProbeTracer | None = None,
    ) -> DebugReport:
        """Run phases 1-3 for ``query`` and explain its non-answers.

        ``tracer`` overrides the debugger-wide tracer for this one call:
        every span and event of the run -- including the phase lifecycle
        events below -- lands there instead.  That is how the service
        layer gives each session its own gap-free event stream while many
        sessions share one debugger.  The run emits ``phase_started`` /
        ``phase_completed`` events around keyword mapping, lattice
        pruning, MTN discovery, and the traversal, so a consumer can
        follow the pipeline live rather than waiting for the final
        report.

        With a ``budget`` the traversal stops cleanly when the probe cap is
        reached and the report is partial (``report.exhausted``): every
        classification present matches an unbudgeted run, the rest stays
        possibly-alive.

        With a cache attached, the run first replays the saved facts of
        its graph's keys (:meth:`replay_status`) and, whenever they
        resolve the graph, skips Phase 3 with a ``phase3_skipped`` event
        and saves nothing.  Otherwise it traverses from the replayed
        store, so no replayed fact is probed again, and saves everything
        its stores know, partial or not (:meth:`save_status`), unless a
        write landed since the run took its snapshot.
        ``timings.traversal`` covers the replay on both paths.
        """
        chosen = self.strategy
        if strategy is not None:
            chosen = (
                strategy
                if isinstance(strategy, TraversalStrategy)
                else get_strategy(strategy)
            )
        timings = PhaseTimings()
        active = tracer if tracer is not None else self.tracer
        # The state the run computes on: it saves only while still live.
        snapshot = self.database.snapshot() if self.cache is not None else None

        def phase_event(name: str, phase: str, **attrs: Any) -> None:
            if active is not None:
                active.record_event(name, phase=phase, **attrs)

        phase_event("phase_started", "keyword_mapping")
        started = time.perf_counter()
        mapping = self.map_keywords(query)
        timings.keyword_mapping = time.perf_counter() - started
        report = DebugReport(query=query, mapping=mapping, timings=timings)
        phase_event(
            "phase_completed",
            "keyword_mapping",
            interpretations=len(mapping.interpretations),
            complete=mapping.complete,
        )
        if report.aborted or not mapping.keywords:
            return report

        phase_event("phase_started", "lattice_pruning")
        started = time.perf_counter()
        report.pruned_lattices = self.prune(mapping)
        timings.lattice_pruning = time.perf_counter() - started
        phase_event(
            "phase_completed", "lattice_pruning", retained_nodes=report.retained_nodes
        )

        phase_event("phase_started", "mtn_discovery")
        started = time.perf_counter()
        report.graph = self.build_graph(report.pruned_lattices, constraints)
        timings.mtn_discovery = time.perf_counter() - started
        phase_event(
            "phase_completed",
            "mtn_discovery",
            mtns=len(report.graph.mtn_indexes),
            nodes=len(report.graph),
        )

        # Phase 3's time includes the key hashing and the replay.
        started = time.perf_counter()
        # Without a cache there are no keys and no replayed store.
        keys = self.node_keys(report.graph)
        store: StatusStore | None = None
        if keys:
            store, facts = self.replay_status(report.graph, keys, active)
            if self._store_resolves_graph(report.graph, store):
                # Phase 3 is implied rather than recomputed: zero probes.
                report.traversal = self._result_from_store(
                    report.graph, store, chosen.name
                )
                timings.traversal = time.perf_counter() - started
                report.traversal.elapsed = timings.traversal
                if active is not None:
                    active.record_event(
                        "phase3_skipped", strategy=chosen.name, facts=facts
                    )
                return report

        evaluator = self.make_evaluator(
            use_cache=chosen.uses_reuse, budget=budget, tracer=active
        )
        phase_event("phase_started", "traversal", strategy=chosen.name)
        report.traversal = chosen.run(
            report.graph, evaluator, self.database, store
        )
        timings.traversal = time.perf_counter() - started
        phase_event(
            "phase_completed",
            "traversal",
            strategy=chosen.name,
            exhausted=report.traversal.exhausted,
        )
        # An exhausted sweep's facts are sound, and a per-key upsert
        # cannot replace a fuller earlier save.
        if keys:
            self.save_status(
                report.graph, keys, report.traversal.stores.values(), snapshot
            )
        return report

    def _store_resolves_graph(
        self, graph: ExplorationGraph, store: StatusStore
    ) -> bool:
        """True when ``store`` fully classifies MTNs and dead cones."""
        for mtn_index in graph.mtn_indexes:
            status = store.status(mtn_index)
            if status is Status.POSSIBLY_ALIVE:
                return False
            if status is Status.DEAD and (
                store.unknown_mask & graph.desc_mask[mtn_index]
            ):
                return False
        return True

    @staticmethod
    def _result_from_store(
        graph: ExplorationGraph, store: StatusStore, strategy_name: str
    ) -> TraversalResult:
        """The traversal result of a store that resolves ``graph``."""
        result = TraversalResult(strategy_name, graph)
        for mtn_index in sorted(graph.mtn_indexes):
            result.stores[mtn_index] = store
            if store.status(mtn_index) is Status.ALIVE:
                result.alive_mtns.append(mtn_index)
            else:
                result.dead_mtns.append(mtn_index)
                result.mpans[mtn_index] = store.mpans_of(mtn_index)
        return result

    # ------------------------------------------------------------ utilities
    def refresh_after_mutation(self) -> None:
        """Rebuild the snapshot-bound pieces after the database changed.

        The inverted index, keyword mapper, and backend all read the
        dataset at construction time; a :meth:`Table.insert`/``delete``
        leaves them stale, so mutating callers must refresh before the
        next query.  The cache store only registers the post-write
        snapshot: its rows are judged against it when read, so nothing is
        repaired or reopened.  A persistent index backend (sqlite)
        rebuilds only the relations whose fingerprint changed when it is
        recreated here.
        """
        if self._owns_index:
            self.index.close()
        self.index = create_index(
            self.index_backend_name, self.database, self.cache_dir
        )
        self._owns_index = True
        self.mapper = KeywordMapper(self.index, mode=self.mode)
        closer = getattr(self.backend, "close", None)
        if closer is not None:
            closer()
        self.backend = create_backend(self.backend_name, self.database, self.index)
        if self.cache is not None:
            self.cache.refresh()

    def close(self) -> None:
        """Release backend resources (connection pool, cache store).

        When a tracer is attached and the backend pools connections, a
        final ``pool_stats`` event is stamped into the trace first --
        ``repro trace check`` verifies from it that every pooled
        connection was checked back in (in_use == 0) and the peak stayed
        within the cap.
        """
        if self.tracer is not None:
            pool_stats = getattr(self.backend, "pool_stats", None)
            if callable(pool_stats):
                stats = pool_stats()
                self.tracer.record_event(
                    "pool_stats",
                    in_use=stats.in_use,
                    max_in_use=stats.max_in_use,
                    max_size=getattr(self.backend, "pool_size", stats.max_in_use),
                )
        self._release()

    def _release(self) -> None:
        """Close the backend, the index if owned, and the cache store."""
        closer = getattr(self.backend, "close", None)
        if closer is not None:
            closer()
        if self._owns_index:
            self.index.close()
        if self.cache is not None:
            self.cache.close()

    def __enter__(self) -> "NonAnswerDebugger":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def witnesses(self, query: BoundQuery, limit: int = 5) -> list[dict]:
        """Sample result tuples of a (sub-)query, for display purposes."""
        if isinstance(self.backend, InMemoryEngine):
            rows = self.backend.evaluate(query, limit=limit)
            return [
                {str(instance): values for instance, values in row.items()}
                for row in rows
            ]
        fetched = self.backend.fetch(query, limit=limit)
        return [{"row": list(row)} for row in fetched]
