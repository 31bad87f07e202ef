"""The classic KWS-S pipeline: return answers, silently drop non-answers.

This is the system the paper's introduction criticizes: given a keyword
query it maps keywords to tuple sets, generates candidate networks, executes
each one, and returns only those producing tuples.  Non-answers vanish --
which is exactly the debugging gap :class:`repro.core.NonAnswerDebugger`
fills.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.binding import KeywordBinder, bind_tree
from repro.core.lattice import Lattice
from repro.index.inverted import InvertedIndex
from repro.index.mapper import KeywordMapper
from repro.kws.candidate_networks import enumerate_candidate_networks
from repro.relational.database import Database
from repro.relational.engine import InMemoryEngine
from repro.relational.evaluator import InstrumentedEvaluator
from repro.relational.jointree import BoundQuery
from repro.relational.predicates import MatchMode


@dataclass
class KWSAnswer:
    """What a classic KWS-S system returns for one keyword query."""

    query: str
    answers: list[BoundQuery] = field(default_factory=list)
    sample_tuples: dict[BoundQuery, list] = field(default_factory=dict)
    candidate_networks: int = 0
    queries_executed: int = 0
    elapsed: float = 0.0

    @property
    def is_non_answer(self) -> bool:
        """The dreaded "No results found!" case."""
        return not self.answers


class ClassicKWSSystem:
    """A compact DISCOVER-style keyword search engine."""

    def __init__(
        self,
        database: Database,
        max_joins: int = 2,
        mode: MatchMode = MatchMode.TOKEN,
        lattice: Lattice | None = None,
    ):
        self.database = database
        self.schema = database.schema
        self.mode = mode
        self.max_joins = max_joins
        self.index = InvertedIndex(database)
        self.mapper = KeywordMapper(self.index, mode=mode)
        # The binder is only used for its keyword -> slot assignment; CN
        # generation itself is lattice-free.
        self._binder = KeywordBinder(
            lattice=lattice, schema=self.schema, max_joins=max_joins
        )
        self.engine = InMemoryEngine(database, tuple_set_provider=self.index.tuple_set)

    def search(self, query: str, sample_limit: int = 3) -> KWSAnswer:
        """Run the classic pipeline; non-answers are simply not returned."""
        started = time.perf_counter()
        result = KWSAnswer(query)
        evaluator = InstrumentedEvaluator(self.engine, use_cache=False)
        mapping = self.mapper.map_query(query)
        if not mapping.complete or not mapping.keywords:
            result.elapsed = time.perf_counter() - started
            return result
        for interpretation in mapping.interpretations:
            binding = self._binder.bind(interpretation)
            networks = enumerate_candidate_networks(
                self.schema, binding, self.max_joins + 1
            )
            result.candidate_networks += len(networks)
            for tree in networks:
                bound = bind_tree(tree, binding, self.mode)
                if evaluator.is_alive(bound):
                    result.answers.append(bound)
                    if sample_limit:
                        result.sample_tuples[bound] = self.engine.evaluate(
                            bound, limit=sample_limit
                        )
        result.queries_executed = evaluator.stats.queries_executed
        result.elapsed = time.perf_counter() - started
        return result
