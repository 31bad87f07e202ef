"""Output check: every completed query against the RE baseline.

The oracle runs outside the timed window, along a different path from the
workloads: a fresh DBLife snapshot, a direct-mode in-memory debugger, and
the Return-Everything baseline, which probes every descendant of every dead
candidate network with no inference and no reuse.  Outputs are compared by
query description.
"""

from __future__ import annotations

from typing import Any

from repro.core.baselines import ReturnEverything
from repro.core.debugger import DebugReport, NonAnswerDebugger
from repro.datasets.dblife import DBLifeConfig, dblife_database

#: (sorted answers, sorted (non-answer, sorted MPANs) pairs), as descriptions.
Outputs = tuple[tuple[str, ...], tuple[tuple[str, tuple[str, ...]], ...]]


def outputs_of(answers: list[str], non_answers: list[tuple[str, list[str]]]) -> Outputs:
    return (
        tuple(sorted(answers)),
        tuple(sorted((query, tuple(sorted(mpans))) for query, mpans in non_answers)),
    )


def report_outputs(report: DebugReport) -> Outputs:
    """What an in-process caller holds after ``debug()``."""
    return outputs_of(
        [query.describe() for query in report.answers()],
        [
            (query.describe(), [mpan.describe() for mpan in mpans])
            for query, mpans in report.explanations()
        ],
    )


def payload_outputs(payload: dict[str, Any]) -> Outputs:
    """What an HTTP client holds after ``GET /sessions/<id>/result``."""
    return outputs_of(
        list(payload.get("answers", [])),
        [(item["query"], list(item["mpans"])) for item in payload.get("non_answers", [])],
    )


class Oracle:
    """Expected outputs per query, from RE over the initial snapshot."""

    def __init__(self, scale: int, level: int):
        self.database = dblife_database(DBLifeConfig(scale=scale))
        self.debugger = NonAnswerDebugger(
            self.database, max_joins=level - 1, use_lattice=False, max_keywords=3
        )
        self._baseline = ReturnEverything(self.debugger)
        self._expected: dict[str, Outputs] = {}

    def expected(self, query: str) -> Outputs:
        if query not in self._expected:
            debugger = self.debugger
            mapping = debugger.map_keywords(query)
            if not (mapping.complete and mapping.keywords):
                raise ValueError(f"query {query!r} does not map onto the snapshot")
            graph = debugger.build_graph(debugger.prune(mapping))
            result = self._baseline.run_on_graph(
                graph, debugger.make_evaluator(use_cache=False)
            )

            def describe(index: int) -> str:
                return graph.node(index).query.describe()

            self._expected[query] = outputs_of(
                [describe(index) for index in result.alive_mtns],
                [
                    (describe(index), [describe(mpan) for mpan in result.mpans[index]])
                    for index in result.dead_mtns
                ],
            )
        return self._expected[query]

    def mismatches(self, completed: list[tuple[str, Outputs]]) -> int:
        """How many ``(query, outputs)`` pairs differ from the oracle."""
        return sum(outputs != self.expected(query) for query, outputs in completed)

    def close(self) -> None:
        self.debugger.close()
