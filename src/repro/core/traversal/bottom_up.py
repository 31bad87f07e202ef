"""Bottom-up traversals: BU (per MTN) and BUWR (all MTNs, with reuse)."""

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


def _sweep_up(
    graph: ExplorationGraph,
    store: StatusStore,
    evaluator: InstrumentedEvaluator,
    max_level: int,
) -> None:
    """Evaluate unknown in-domain nodes level by level, lowest first.

    Dead nodes kill their ancestors (R2), so higher levels shrink as the
    sweep climbs; alive nodes point upward only, so nothing below is saved --
    the paper's reason BU struggles when answers sit high in the lattice.
    """
    sweep_levels(graph, store, evaluator, range(2, max_level + 1))


class BottomUpStrategy(TraversalStrategy):
    """BU (§2.5.1): each MTN's sub-lattice is swept independently.

    Common descendants of different MTNs are re-evaluated for every MTN --
    no reuse -- which is exactly what Figure 11/Table 4 measure for "BU".
    """

    name = "bu"
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
                _sweep_up(graph, store, evaluator, graph.node(mtn_index).level)
            except ProbeBudgetExhausted:
                # Keep what this MTN's partial sweep implied, then stop;
                # later MTNs would need probes the budget no longer allows.
                result.exhausted = True
                self._collect(
                    store, result, mtn_index, partial=True, tracer=evaluator.tracer
                )
                return
            self._collect(store, result, mtn_index, tracer=evaluator.tracer)


class BottomUpWithReuseStrategy(TraversalStrategy):
    """BUWR (§2.5.2, Algorithm 3): one shared sweep over all MTNs."""

    name = "buwr"
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
            _sweep_up(graph, store, evaluator, graph.max_level)
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
