"""Level sweeps: BU/TD (one MTN at a time) and BUWR/TDWR (all MTNs, reuse)."""

from __future__ import annotations

from repro.core.mtn import ExplorationGraph
from repro.core.status import StatusStore
from repro.core.traversal.base import (
    TraversalResult,
    TraversalStrategy,
    sweep_levels,
)
from repro.obs.budget import ProbeBudgetExhausted
from repro.relational.evaluator import InstrumentedEvaluator


class SweepStrategy(TraversalStrategy):
    """Probe the unknown nodes level by level, bottom-up or top-down.

    Bottom-up, dead nodes kill their ancestors (R2), so higher levels
    shrink as the sweep climbs; alive nodes point upward only, so nothing
    below is saved -- the paper's reason BU struggles when answers sit high
    in the lattice.  Top-down, alive nodes mark their whole descendant cone
    alive (R1), which is why TD wins when answers/MPANs sit high: an alive
    MTN costs a single query.

    Without reuse (§2.5.1) each MTN's sub-lattice is swept with its own
    status store, a copy of the starting store's knowledge restricted to
    that MTN's cone, so common descendants of different MTNs are
    re-evaluated for every MTN -- exactly what Figure 11/Table 4 measure
    for BU and TD.  With reuse (§2.5.2, Algorithm 3) the starting store
    itself sweeps all MTNs.
    """

    bottom_up: bool = True

    def _levels(self, top: int) -> range:
        return range(2, top + 1) if self.bottom_up else range(top, 0, -1)

    def _run(
        self,
        graph: ExplorationGraph,
        evaluator: InstrumentedEvaluator,
        store: StatusStore,
        result: TraversalResult,
    ) -> None:
        # (store domain, top level, MTNs it classifies) per sweep.
        sweeps: list[tuple[int | None, int, list[int]]]
        if self.uses_reuse:
            sweeps = [(None, graph.max_level, graph.mtn_indexes)]
        else:
            sweeps = [
                (graph.desc_plus(index), graph.node(index).level, [index])
                for index in graph.mtn_indexes
            ]
        for domain, top, mtn_indexes in sweeps:
            sweep_store = store if domain is None else _restricted(store, domain)
            try:
                sweep_levels(graph, sweep_store, evaluator, self._levels(top))
            except ProbeBudgetExhausted:
                result.exhausted = True
            for mtn_index in mtn_indexes:
                self._collect(
                    sweep_store,
                    result,
                    mtn_index,
                    partial=result.exhausted,
                    tracer=evaluator.tracer,
                )
            if result.exhausted:
                # Keep what the partial sweep implied, then stop; later
                # MTNs would need probes the budget no longer allows.
                return


def _restricted(store: StatusStore, domain: int) -> StatusStore:
    """A store over ``domain`` knowing what ``store`` knows there.

    ``domain`` is an MTN's cone, closed downward, so the copy stays
    closed under R1/R2.
    """
    copy = StatusStore(store.graph, domain=domain)
    copy.alive_mask = store.alive_mask & domain
    copy.dead_mask = store.dead_mask & domain
    return copy


class BottomUpStrategy(SweepStrategy):
    """BU (§2.5.1): each MTN's sub-lattice swept lowest level first."""

    name = "bu"
    uses_reuse = False


class TopDownStrategy(SweepStrategy):
    """TD (§2.5.1): each MTN's sub-lattice swept highest level first."""

    name = "td"
    uses_reuse = False
    bottom_up = False


class BottomUpWithReuseStrategy(SweepStrategy):
    """BUWR (§2.5.2, Algorithm 3): one shared bottom-up sweep over all MTNs."""

    name = "buwr"
    uses_reuse = True


class TopDownWithReuseStrategy(SweepStrategy):
    """TDWR (§2.5.2): one shared top-down sweep over all MTNs."""

    name = "tdwr"
    uses_reuse = True
    bottom_up = False
