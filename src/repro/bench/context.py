"""Shared state for the experiment runners.

Building the DBLife snapshot, its inverted index, and one lattice per lattice
level is expensive relative to a single traversal, so a :class:`BenchContext`
builds each lazily and caches it for the duration of a benchmark session.
Phases 1-2 of each (level, query) pair are likewise prepared once and shared
by every strategy that measures Phase 3 on them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.bench.cost_model import SimpleCostModel
from repro.core.binding import PrunedLattice
from repro.core.debugger import NonAnswerDebugger
from repro.core.lattice import Lattice, generate_lattice
from repro.core.mtn import ExplorationGraph
from repro.core.traversal import TraversalResult, get_strategy
from repro.datasets.dblife import DBLifeConfig, dblife_database
from repro.index.mapper import KeywordMapping
from repro.obs.trace import ProbeTracer
from repro.relational.database import Database
from repro.relational.predicates import MatchMode
from repro.workloads.queries import TABLE2_QUERIES, WorkloadQuery

# The workload has at most 3 keywords, so 3 keyword slots make the lattice
# lossless for it (see repro.core.lattice docstring).
WORKLOAD_MAX_KEYWORDS = 3

# Levels up to this bound materialize Phase 0; higher levels generate the
# MTN-relevant trees of each slot signature directly, the first time a query
# uses it (identical results; see KeywordBinder.prune_for_mtns).  Either way
# a later query with the same signature reads the binder's memo, so its
# prune/MTN times are warm.
MAX_MATERIALIZED_LEVEL = 5


@dataclass
class PreparedQuery:
    """Phases 1-2 of one (level, workload query) pair, ready for Phase 3."""

    level: int
    query: WorkloadQuery
    mapping: KeywordMapping
    pruned: list[PrunedLattice]
    graph: ExplorationGraph
    #: Phase-2 seconds: every interpretation's MTNs plus the graph over them.
    mtn_time: float

    @property
    def mtn_count(self) -> int:
        return len(self.graph.mtn_indexes)

    @property
    def prune_time(self) -> float:
        """Phase-1 seconds, summed over interpretations."""
        return sum(pruned.pruning_time for pruned in self.pruned)

    def retained_union(self) -> int:
        trees = set()
        for pruned in self.pruned:
            trees.update(pruned.retained)
        return len(trees)


@dataclass
class BenchContext:
    """Lazily-built snapshot + per-level debuggers for the experiments."""

    config: DBLifeConfig = field(default_factory=DBLifeConfig)
    mode: MatchMode = MatchMode.TOKEN
    max_keywords: int = WORKLOAD_MAX_KEYWORDS
    #: Optional span recorder; when set, every Phase-3 probe run through
    #: this context emits one trace span (see ``repro bench --trace``).
    tracer: ProbeTracer | None = None
    _database: Database | None = None
    _lattices: dict[int, Lattice] = field(default_factory=dict)
    _debuggers: dict[int, NonAnswerDebugger] = field(default_factory=dict)
    _cost_model: SimpleCostModel | None = None
    _prepared: dict[tuple[int, str], PreparedQuery] = field(default_factory=dict)
    _results: dict[tuple[int, str, str], TraversalResult] = field(
        default_factory=dict
    )

    @classmethod
    def create(
        cls, scale: int = 1, seed: int = 42, mode: MatchMode = MatchMode.TOKEN
    ) -> "BenchContext":
        return cls(config=DBLifeConfig(seed=seed, scale=scale), mode=mode)

    # ------------------------------------------------------------ components
    @property
    def database(self) -> Database:
        if self._database is None:
            self._database = dblife_database(self.config)
        return self._database

    def lattice(self, level: int) -> Lattice:
        """The offline lattice with ``level`` levels (= ``level - 1`` joins)."""
        if level not in self._lattices:
            self._lattices[level] = generate_lattice(
                self.database.schema, level - 1, max_keywords=self.max_keywords
            )
        return self._lattices[level]

    def debugger(self, level: int) -> NonAnswerDebugger:
        if level not in self._debuggers:
            materialize = level <= MAX_MATERIALIZED_LEVEL
            debugger = NonAnswerDebugger(
                self.database,
                max_joins=level - 1,
                mode=self.mode,
                lattice=self.lattice(level) if materialize else None,
                use_lattice=materialize,
                max_keywords=self.max_keywords,
                cost_model=self.cost_model,
            )
            self._debuggers[level] = debugger
        return self._debuggers[level]

    @property
    def cost_model(self) -> SimpleCostModel:
        if self._cost_model is None:
            from repro.index.inverted import InvertedIndex

            index = None
            for debugger in self._debuggers.values():
                index = debugger.index
                break
            if index is None:
                index = InvertedIndex(self.database)
            self._cost_model = SimpleCostModel(self.database, index)
        return self._cost_model

    @property
    def workload(self) -> tuple[WorkloadQuery, ...]:
        return TABLE2_QUERIES

    # ------------------------------------------------------------- pipeline
    def prepare(self, level: int, query: WorkloadQuery) -> PreparedQuery:
        """Phases 1-2 for one query at one level, cached."""
        key = (level, query.qid)
        if key not in self._prepared:
            debugger = self.debugger(level)
            mapping = debugger.map_keywords(query.text)
            pruned = debugger.prune(mapping) if mapping.complete else []
            started = time.perf_counter()
            graph = debugger.build_graph(pruned)
            mtn_time = time.perf_counter() - started
            self._prepared[key] = PreparedQuery(
                level, query, mapping, pruned, graph, mtn_time=mtn_time
            )
        return self._prepared[key]

    def run_strategy(
        self, level: int, query: WorkloadQuery, strategy_name: str, **kwargs
    ) -> TraversalResult:
        """Phase 3 with one strategy over the prepared graph, cached."""
        key = (level, query.qid, strategy_name + repr(sorted(kwargs.items())))
        if key not in self._results:
            prepared = self.prepare(level, query)
            strategy = get_strategy(strategy_name, **kwargs)
            evaluator = self.debugger(level).make_evaluator(
                use_cache=strategy.uses_reuse, tracer=self.tracer
            )
            self._results[key] = strategy.run(
                prepared.graph, evaluator, self.database
            )
        return self._results[key]
