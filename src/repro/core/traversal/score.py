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
maximizes ``p_a * WD(n) + (1 - p_a) * WA(n)``.  ``WD``/``WA`` are computed
for every candidate at once as two sparse matrix-vector products
(``scipy.sparse``), which keeps each greedy step linear in the number of
(node, descendant) pairs.

Bookkeeping facts that make the update cheap (proved in ``tests``):
``S(m_i)`` is always ``unknown ∩ Desc+(m_i)`` (dead MTNs keep their space
until it is fully classified; an alive MTN's space empties automatically
because R1 classifies all of its descendants), so ``w`` only ever changes by
zeroing entries of newly classified nodes.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.core.mtn import ExplorationGraph
from repro.core.status import StatusStore
from repro.core.traversal.base import (
    TraversalResult,
    TraversalStrategy,
    seed_base_levels,
)
from repro.obs.budget import ProbeBudgetExhausted
from repro.relational.database import Database
from repro.relational.evaluator import InstrumentedEvaluator

DEFAULT_PROBABILITY_ALIVE = 0.5


def _closure_matrix(graph: ExplorationGraph, masks: list[int]) -> sparse.csr_matrix:
    """CSR matrix M with M[n, j] = 1 iff j is in the (self-inclusive) mask of n."""
    indptr = [0]
    indices: list[int] = []
    for index in range(len(graph)):
        members = graph.bits(masks[index] | (1 << index))
        indices.extend(members)
        indptr.append(len(indices))
    data = np.ones(len(indices), dtype=np.float64)
    size = len(graph)
    return sparse.csr_matrix(
        (data, np.array(indices, dtype=np.int64), np.array(indptr, dtype=np.int64)),
        shape=(size, size),
    )


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
        database: Database,
        result: TraversalResult,
    ) -> None:
        store = StatusStore(graph)
        seed_base_levels(graph, store, database)

        size = len(graph)
        # w[j] = number of MTN search spaces containing node j.
        weight = np.zeros(size, dtype=np.float64)
        for mtn_index in graph.mtn_indexes:
            for member in graph.bits(graph.desc_plus(mtn_index)):
                weight[member] += 1.0
        known = store.alive_mask | store.dead_mask
        self._zero_bits(weight, graph, known)

        desc_matrix = _closure_matrix(graph, graph.desc_mask)
        asc_matrix = _closure_matrix(graph, graph.asc_mask)
        p_alive = self.probability_alive

        try:
            while True:
                candidates = np.flatnonzero(weight)
                if candidates.size == 0:
                    break
                # argmin Score == argmax p_a*WD + (1-p_a)*WA (see module docstring)
                gain = p_alive * (desc_matrix @ weight) + (1.0 - p_alive) * (
                    asc_matrix @ weight
                )
                best = int(candidates[np.argmax(gain[candidates])])
                store.record(best, evaluator.is_alive(graph.node(best).query))
                now_known = store.alive_mask | store.dead_mask
                self._zero_bits(weight, graph, now_known & ~known)
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

    @staticmethod
    def _zero_bits(weight: np.ndarray, graph: ExplorationGraph, mask: int) -> None:
        """Zero the weight of every node whose bit is set in ``mask``."""
        if mask:
            weight[graph.bits(mask)] = 0.0
