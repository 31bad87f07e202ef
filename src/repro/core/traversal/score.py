"""SBH: the score-based greedy traversal heuristic (§2.5.3).

Each unevaluated node ``n`` gets the score of Equation (1):

    Score(n) = sum_i [ p_a * |S_a(m_i)| + (1 - p_a) * |S_d(m_i)| ]

where ``S(m_i)`` is the current search space of MTN ``m_i`` (its
still-unclassified descendants), ``S_a``/``S_d`` are the spaces remaining if
``n`` turns out alive/dead, and ``p_a`` is the prior probability that a node
is alive.  The node with the minimum score -- the largest expected reduction
of the remaining search space -- is evaluated next.

Using the paper's expansion of the score (end of §2.5.3), with
``w[j] = #{i : j in S(m_i)}``:

    Score(n) = T - p_a * sum_{j in Desc+(n)} w[j]
                 - (1 - p_a) * sum_{j in Asc+(n)} w[j]

``T = sum_i |S(m_i)|`` is constant across candidates, so the greedy choice
maximizes ``p_a * WD(n) + (1 - p_a) * WA(n)``.

Bookkeeping facts that make the update cheap (proved in ``tests``):
``S(m_i)`` is always ``unknown ∩ Desc+(m_i)`` (dead MTNs keep their space
until it is fully classified; an alive MTN's space empties automatically
because R1 classifies all of its descendants), so ``w`` only ever changes by
zeroing entries of newly classified nodes.  ``WD`` and ``WA`` are therefore
kept as exact integer sums and lowered as nodes are classified: zeroing
``w[j]`` lowers ``WD`` of every node whose ``Desc+`` holds ``j`` and ``WA``
of every node whose ``Asc+`` holds ``j``, so a whole run touches each
(node, descendant) pair once.  Gains only fall, so the candidates sit in a
max-heap keyed by ``(gain, -index)`` whose stale entries are skipped when
popped; ties go to the lowest index.  The gain is the same floating-point
expression for every candidate, so the choice depends on the graph and
``p_a`` alone.
"""

from __future__ import annotations

import heapq
from typing import Callable

from repro.core.mtn import ExplorationGraph
from repro.core.status import StatusStore
from repro.core.traversal.base import TraversalResult, TraversalStrategy
from repro.obs.budget import ProbeBudgetExhausted
from repro.relational.evaluator import InstrumentedEvaluator

DEFAULT_PROBABILITY_ALIVE = 0.5


def _closure_sums(
    graph: ExplorationGraph, closure: Callable[[int], int], spaces: int, weight: list[int]
) -> tuple[list[int], dict[int, list[int]]]:
    """``(sums, holders)`` over the nodes of ``spaces``: ``sums[n]`` adds
    ``weight`` over ``closure(n)``, and ``holders[j]`` lists the nodes ``n``
    whose ``closure(n)`` holds ``j``."""
    sums = [0] * len(graph)
    holders: dict[int, list[int]] = {member: [] for member in graph.bits(spaces)}
    for node in holders:
        for member in graph.bits(closure(node) & spaces):
            holders[member].append(node)
            sums[node] += weight[member]
    return sums, holders


class ScoreBasedStrategy(TraversalStrategy):
    """SBH: greedily evaluate the node with the minimum expected search space."""

    name = "sbh"
    uses_reuse = True

    def __init__(self, probability_alive: float = DEFAULT_PROBABILITY_ALIVE):
        if not 0.0 <= probability_alive <= 1.0:
            raise ValueError("probability_alive must be within [0, 1]")
        self.probability_alive = probability_alive

    def _run(
        self,
        graph: ExplorationGraph,
        evaluator: InstrumentedEvaluator,
        store: StatusStore,
        result: TraversalResult,
    ) -> None:
        known = store.alive_mask | store.dead_mask
        # w[j] = number of MTN search spaces containing node j; only the
        # nodes of some space are ever weighted or candidates.
        weight = [0] * len(graph)
        spaces = 0
        for mtn_index in graph.mtn_indexes:
            space = graph.desc_plus(mtn_index) & ~known
            for member in graph.bits(space):
                weight[member] += 1
            spaces |= space
        desc_sum, desc_holders = _closure_sums(graph, graph.desc_plus, spaces, weight)
        asc_sum, asc_holders = _closure_sums(graph, graph.asc_plus, spaces, weight)
        p_alive = self.probability_alive

        def gain(node: int) -> float:
            # argmin Score == argmax p_a*WD + (1-p_a)*WA (see module docstring)
            return p_alive * desc_sum[node] + (1.0 - p_alive) * asc_sum[node]

        heap = [(-gain(node), node) for node in desc_holders]
        heapq.heapify(heap)
        try:
            while heap:
                negated, best = heapq.heappop(heap)
                if not weight[best] or -negated != gain(best):
                    continue  # classified meanwhile, or a stale gain
                store.record(best, evaluator.is_alive(graph.node(best).query))
                now_known = store.alive_mask | store.dead_mask
                changed: set[int] = set()
                for member in graph.bits(now_known & ~known & spaces):
                    for node in desc_holders[member]:
                        desc_sum[node] -= weight[member]
                    for node in asc_holders[member]:
                        asc_sum[node] -= weight[member]
                    changed.update(desc_holders[member], asc_holders[member])
                    weight[member] = 0
                for node in changed:
                    if weight[node]:
                        heapq.heappush(heap, (-gain(node), node))
                known = now_known
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
