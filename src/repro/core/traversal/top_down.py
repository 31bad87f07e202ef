"""Top-down traversals: TD (per MTN) and TDWR (all MTNs, with reuse)."""

from __future__ import annotations

from repro.core.mtn import ExplorationGraph
from repro.core.status import StatusStore
from repro.core.traversal.base import (
    TraversalResult,
    TraversalStrategy,
    seed_base_levels,
    sweep_levels,
)
from repro.obs.budget import ProbeBudgetExhausted
from repro.relational.database import Database
from repro.relational.evaluator import InstrumentedEvaluator


def _sweep_down(
    graph: ExplorationGraph,
    store: StatusStore,
    evaluator: InstrumentedEvaluator,
    max_level: int,
) -> None:
    """Evaluate unknown in-domain nodes level by level, highest first.

    Alive nodes mark their whole descendant cone alive (R1), which is why TD
    wins when answers/MPANs sit high in the lattice: an alive MTN costs a
    single query.
    """
    sweep_levels(graph, store, evaluator, range(max_level, 0, -1))


class TopDownStrategy(TraversalStrategy):
    """TD (§2.5.1): each MTN's sub-lattice is swept independently."""

    name = "td"
    uses_reuse = False

    def _run(
        self,
        graph: ExplorationGraph,
        evaluator: InstrumentedEvaluator,
        database: Database,
        result: TraversalResult,
    ) -> None:
        for mtn_index in graph.mtn_indexes:
            store = StatusStore(graph, domain=graph.desc_plus(mtn_index))
            seed_base_levels(graph, store, database)
            try:
                _sweep_down(graph, store, evaluator, graph.node(mtn_index).level)
            except ProbeBudgetExhausted:
                result.exhausted = True
                self._collect(
                    store, result, mtn_index, partial=True, tracer=evaluator.tracer
                )
                return
            self._collect(store, result, mtn_index, tracer=evaluator.tracer)


class TopDownWithReuseStrategy(TraversalStrategy):
    """TDWR (§2.5.2): one shared top-down sweep over all MTNs."""

    name = "tdwr"
    uses_reuse = True

    def _run(
        self,
        graph: ExplorationGraph,
        evaluator: InstrumentedEvaluator,
        database: Database,
        result: TraversalResult,
    ) -> None:
        store = StatusStore(graph)
        seed_base_levels(graph, store, database)
        try:
            _sweep_down(graph, store, evaluator, graph.max_level)
        except ProbeBudgetExhausted:
            result.exhausted = True
        for mtn_index in graph.mtn_indexes:
            self._collect(
                store,
                result,
                mtn_index,
                partial=result.exhausted,
                tracer=evaluator.tracer,
            )
