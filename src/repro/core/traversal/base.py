"""Shared machinery for the Phase-3 traversal strategies: the result
record, level-1 seeding without SQL, the level sweep, and the
template-method interface."""

from __future__ import annotations

import abc
import time
import typing
from dataclasses import dataclass, field

from repro.core.mtn import ExplorationGraph
from repro.core.status import StatusStore
from repro.obs.budget import ProbeBudgetExhausted
from repro.relational.database import Database
from repro.relational.evaluator import EvaluationStats, InstrumentedEvaluator
from repro.relational.jointree import BoundQuery

if typing.TYPE_CHECKING:
    from repro.obs.trace import ProbeTracer


@dataclass
class TraversalResult:
    """Outcome of one Phase-3 run over an exploration graph.

    ``exhausted=True`` marks a *partial* result: the probe budget bound
    before the sweep finished.  Every classification present is identical
    to what an unbudgeted run reports (R1/R2 closure never guesses); MTNs
    absent from both lists stayed possibly-alive, and a dead MTN appears
    in ``mpans`` only once its search space was fully resolved (partial
    MPAN sets could falsely claim maximality).
    """

    strategy: str
    graph: ExplorationGraph
    alive_mtns: list[int] = field(default_factory=list)
    dead_mtns: list[int] = field(default_factory=list)
    mpans: dict[int, list[int]] = field(default_factory=dict)
    stats: EvaluationStats = field(default_factory=EvaluationStats)
    elapsed: float = 0.0
    exhausted: bool = False
    # The status store that classified each MTN (one shared store for the
    # reuse strategies, one per MTN for BU/TD).  Diagnosis reads minimal
    # dead sub-queries out of these after the fact.
    stores: dict[int, StatusStore] = field(default_factory=dict)

    @property
    def classified_mtn_count(self) -> int:
        return len(self.alive_mtns) + len(self.dead_mtns)

    @property
    def unclassified_mtns(self) -> list[int]:
        """MTNs left possibly-alive (nonempty only when ``exhausted``)."""
        known = set(self.alive_mtns) | set(self.dead_mtns)
        return [index for index in self.graph.mtn_indexes if index not in known]

    @property
    def mpan_pair_count(self) -> int:
        """Number of (dead MTN, MPAN) pairs -- the paper's MPAN count."""
        return sum(len(indexes) for indexes in self.mpans.values())

    @property
    def unique_mpan_count(self) -> int:
        distinct: set[int] = set()
        for indexes in self.mpans.values():
            distinct.update(indexes)
        return len(distinct)

    def answer_queries(self) -> list[BoundQuery]:
        return [self.graph.node(index).query for index in self.alive_mtns]

    def non_answer_queries(self) -> list[BoundQuery]:
        return [self.graph.node(index).query for index in self.dead_mtns]

    def mpan_queries(self, mtn_index: int) -> list[BoundQuery]:
        return [
            self.graph.node(index).query for index in self.mpans.get(mtn_index, [])
        ]

    def classification_signature(self) -> tuple:
        """Canonical summary for cross-strategy equivalence checks."""
        return (
            tuple(sorted(self.alive_mtns)),
            tuple(sorted(self.dead_mtns)),
            tuple(
                (mtn, tuple(sorted(indexes)))
                for mtn, indexes in sorted(self.mpans.items())
            ),
        )


def seed_base_levels(
    graph: ExplorationGraph, store: StatusStore, database: Database
) -> None:
    """Classify level-1 nodes without SQL (Algorithm 3's ``GetBaseNodes``).

    A keyword-bound base node is alive by construction -- the interpretation
    only binds a keyword to relations the inverted index found it in.  A free
    base node is alive iff its table is non-empty, a catalog lookup.  Neither
    costs an SQL query.
    """
    for index in graph.level_indexes(1):
        if store.is_known(index) or not (store.domain >> index) & 1:
            continue
        node = graph.node(index)
        (instance,) = node.tree.instances
        if node.query.bindings:
            store.mark_alive(index, evaluated=False)
        else:
            table = database.table(instance.relation)
            store.record(index, alive=len(table) > 0, evaluated=False)


def sweep_levels(
    graph: ExplorationGraph,
    store: StatusStore,
    evaluator: InstrumentedEvaluator,
    levels: typing.Iterable[int],
) -> None:
    """Probe the unknown in-domain nodes level by level, in ``levels`` order.

    The unknown mask is read once per level: a probe classifies only
    strictly lower (R1) or strictly higher (R2) levels, never a node of
    its own level.  The sweep stops as soon as nothing is unknown.
    """
    for level in levels:
        unknown = store.unknown_mask
        if not unknown:
            return
        for index in graph.level_indexes(level):
            if (unknown >> index) & 1:
                store.record(index, evaluator.is_alive(graph.node(index).query))


class TraversalStrategy(abc.ABC):
    """Interface of the five traversal strategies.

    ``uses_reuse`` tells the caller whether to hand this strategy a caching
    evaluator (BUWR/TDWR/SBH) or a non-caching one (BU/TD re-execute common
    sub-queries per MTN, as measured in the paper).
    """

    name: str = "base"
    uses_reuse: bool = True

    @abc.abstractmethod
    def _run(
        self,
        graph: ExplorationGraph,
        evaluator: InstrumentedEvaluator,
        database: Database,
        result: TraversalResult,
    ) -> None:
        """Classify all MTNs and fill ``result`` (template method)."""

    def run(
        self,
        graph: ExplorationGraph,
        evaluator: InstrumentedEvaluator,
        database: Database,
    ) -> TraversalResult:
        started = time.perf_counter()
        before = evaluator.stats.snapshot()
        result = TraversalResult(self.name, graph)
        tracer = evaluator.tracer
        if tracer is not None:
            tracer.set_context(strategy=self.name)
            tracer.record_event(
                "traversal_start",
                strategy=self.name,
                nodes=len(graph),
                mtns=len(graph.mtn_indexes),
            )
        try:
            self._run(graph, evaluator, database, result)
        except ProbeBudgetExhausted:
            # Safety net for strategies that do not degrade themselves;
            # the built-in ones all catch earlier and collect partially.
            result.exhausted = True
        finally:
            if tracer is not None:
                tracer.set_context(strategy=None)
        result.alive_mtns.sort()
        result.dead_mtns.sort()
        result.stats = evaluator.stats.diff(before)
        result.elapsed = time.perf_counter() - started
        if tracer is not None:
            tracer.record_event(
                "traversal_end",
                strategy=self.name,
                queries_executed=result.stats.queries_executed,
                cache_hits=result.stats.cache_hits,
                classified=result.classified_mtn_count,
                exhausted=result.exhausted,
            )
        return result

    def _collect(
        self,
        store: StatusStore,
        result: TraversalResult,
        mtn_index: int,
        partial: bool = False,
        tracer: "ProbeTracer | None" = None,
    ) -> None:
        """Record one classified MTN (and its MPANs if dead) into the result.

        With ``partial=True`` (a budget-exhausted sweep) an unclassified
        MTN is skipped instead of being an error, and a dead MTN's MPANs
        are reported only if its whole search space was resolved --
        otherwise an unknown node could still be the true maximal one.

        When a ``tracer`` is attached, each MTN's resolution is announced
        as it happens -- an ``mtn_resolved`` event, plus ``mpan_available``
        once a dead MTN's maximal alive sub-queries are known -- so a
        streaming consumer can surface classifications before the sweep
        finishes.
        """
        from repro.core.status import Status

        status = store.status(mtn_index)
        if partial and status is Status.POSSIBLY_ALIVE:
            return
        result.stores[mtn_index] = store
        if status is Status.ALIVE:
            result.alive_mtns.append(mtn_index)
            if tracer is not None:
                tracer.record_event(
                    "mtn_resolved", mtn_index=mtn_index, alive=True
                )
        elif status is Status.DEAD:
            result.dead_mtns.append(mtn_index)
            if tracer is not None:
                tracer.record_event(
                    "mtn_resolved", mtn_index=mtn_index, alive=False
                )
            unresolved = (
                store.unknown_mask & store.graph.desc_mask[mtn_index]
                if partial
                else 0
            )
            if not unresolved:
                result.mpans[mtn_index] = store.mpans_of(mtn_index)
                if tracer is not None:
                    tracer.record_event(
                        "mpan_available",
                        mtn_index=mtn_index,
                        count=len(result.mpans[mtn_index]),
                    )
        else:  # pragma: no cover - defended against by every strategy
            raise RuntimeError(f"MTN {mtn_index} left unclassified")
