"""Unit and integration tests for the observability layer (repro.obs).

Covers the :class:`ProbeBudget` accounting contract, the
:class:`ProbeTracer` ring buffer + JSON-lines schema, and the anytime
semantics of budgeted traversals and sessions: a budgeted run never
executes more probes than allowed, and everything it *does* classify is
exactly what the unbudgeted run reports.
"""

import json

import pytest

from repro.core.debugger import NonAnswerDebugger
from repro.core.session import DebugSession
from repro.core.status import Status
from repro.core.traversal import get_strategy
from repro.obs import (
    ProbeBudget,
    ProbeBudgetExhausted,
    ProbeTracer,
    TraceValidationError,
    validate_trace_file,
    validate_trace_record,
)
from repro.obs.trace import validate_trace_lines

ALL_STRATEGIES = ("bu", "td", "buwr", "tdwr", "sbh")


class TestProbeBudget:
    def test_negative_limits_rejected(self):
        with pytest.raises(ValueError):
            ProbeBudget(max_queries=-1)
        with pytest.raises(ValueError):
            ProbeBudget(max_simulated_seconds=-0.5)
        with pytest.raises(ValueError):
            ProbeBudget(max_wall_seconds=-1.0)

    def test_unlimited_never_refuses(self):
        budget = ProbeBudget()
        assert budget.unlimited
        for _ in range(100):
            budget.admit()
            budget.charge()
        assert not budget.exhausted
        assert not budget.bound
        assert budget.remaining_queries() is None
        assert budget.describe() == "unlimited"

    def test_admit_refuses_at_cap_and_counts_denials(self):
        budget = ProbeBudget(max_queries=2)
        budget.admit()
        budget.charge()
        budget.admit()
        budget.charge()
        assert budget.exhausted and not budget.bound
        with pytest.raises(ProbeBudgetExhausted) as info:
            budget.admit()
        assert info.value.budget is budget
        assert budget.bound and budget.denied == 1
        assert budget.remaining_queries() == 0

    def test_wall_deadline(self):
        budget = ProbeBudget(max_wall_seconds=1.0)
        budget.admit()
        budget.charge(wall_seconds=1.5)
        with pytest.raises(ProbeBudgetExhausted):
            budget.admit()

    def test_zero_query_budget_refuses_immediately(self):
        budget = ProbeBudget(max_queries=0)
        with pytest.raises(ProbeBudgetExhausted):
            budget.admit()

    def test_reset_restores_headroom(self):
        budget = ProbeBudget(max_queries=1, max_simulated_seconds=2.0)
        budget.admit()
        budget.charge(simulated_seconds=3.0)
        with pytest.raises(ProbeBudgetExhausted):
            budget.admit()
        budget.reset()
        assert not budget.exhausted and not budget.bound
        budget.admit()  # does not raise

    def test_describe_lists_active_axes(self):
        budget = ProbeBudget(max_queries=5, max_simulated_seconds=1.0)
        budget.charge(queries=2, simulated_seconds=0.25)
        text = str(budget)
        assert "2/5 queries" in text
        assert "0.250/1.000 s simulated" in text
        assert "wall" not in text


class TestProbeTracer:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ProbeTracer(capacity=0)

    def span(self, tracer, level=1, cache_hit=False, alive=True):
        return tracer.record_probe(
            level=level,
            keywords=("candle",),
            backend="FakeBackend",
            alive=alive,
            cache_hit=cache_hit,
            wall_seconds=0.01,
            simulated_seconds=1.0,
        )

    def test_ring_buffer_drops_oldest(self):
        tracer = ProbeTracer(capacity=3)
        for index in range(5):
            tracer.record_event(f"event-{index}")
        assert len(tracer.records) == 3
        assert tracer.dropped == 2
        assert [event.name for event in tracer.events] == [
            "event-2",
            "event-3",
            "event-4",
        ]

    def test_clear(self):
        tracer = ProbeTracer(capacity=2)
        for _ in range(4):
            self.span(tracer)
        tracer.clear()
        assert tracer.records == [] and tracer.dropped == 0
        assert self.span(tracer).seq == 0

    def test_context_stamps_strategy_on_spans(self):
        tracer = ProbeTracer()
        self.span(tracer)
        tracer.set_context(strategy="buwr")
        self.span(tracer)
        tracer.set_context(strategy=None)
        self.span(tracer)
        assert [span.strategy for span in tracer.spans] == [None, "buwr", None]

    def test_counts_split_cache_hits_from_executions(self):
        tracer = ProbeTracer()
        self.span(tracer, cache_hit=False)
        self.span(tracer, cache_hit=True)
        tracer.record_event("noise")
        assert tracer.span_count == 2
        assert tracer.executed_span_count == 1

    def test_aggregate_by_level_and_strategy(self):
        tracer = ProbeTracer()
        self.span(tracer, level=1)
        self.span(tracer, level=2)
        tracer.set_context(strategy="sbh")
        self.span(tracer, level=2, cache_hit=True)
        rows = tracer.aggregate("level")
        assert [row["level"] for row in rows] == [1, 2]
        assert rows[1] == {
            "level": 2,
            "probes": 2,
            "executed": 1,
            "cache_hits": 1,
            "wall_seconds": pytest.approx(0.02),
            "simulated_seconds": pytest.approx(2.0),
        }
        by_strategy = tracer.aggregate("strategy")
        assert [row["strategy"] for row in by_strategy] == ["(none)", "sbh"]
        with pytest.raises(ValueError):
            tracer.aggregate("backend")

    def test_jsonl_round_trip_validates(self, tmp_path):
        tracer = ProbeTracer()
        self.span(tracer)
        tracer.record_event("traversal_end", queries_executed=1)
        counts = validate_trace_lines(tracer.to_jsonl().splitlines())
        assert counts == {"span": 1, "event": 1}
        path = tmp_path / "trace.jsonl"
        assert tracer.write_jsonl(str(path)) == 2
        assert validate_trace_file(str(path)) == {"span": 1, "event": 1}

    def test_validation_rejects_bad_records(self):
        good = {
            "kind": "span",
            "seq": 0,
            "level": 1,
            "keywords": ["candle"],
            "backend": "b",
            "alive": True,
            "cache_hit": False,
            "wall_seconds": 0.0,
            "simulated_seconds": 0.0,
        }
        assert validate_trace_record(good) == "span"
        with pytest.raises(TraceValidationError, match="unknown record kind"):
            validate_trace_record({"kind": "metric"})
        with pytest.raises(TraceValidationError, match="missing field"):
            validate_trace_record({k: v for k, v in good.items() if k != "level"})
        with pytest.raises(TraceValidationError, match="wrong type bool"):
            validate_trace_record({**good, "level": True})
        with pytest.raises(TraceValidationError, match="must be strings"):
            validate_trace_record({**good, "keywords": [1]})
        with pytest.raises(TraceValidationError, match="not an object"):
            validate_trace_record([good])
        with pytest.raises(TraceValidationError, match="line 1: invalid JSON"):
            validate_trace_lines(["{not json"])


class TestBudgetedTraversal:
    """Anytime semantics on the DBLife snapshot (the acceptance scenario)."""

    QUERY = "Gray SIGMOD"

    def full_report(self, dblife_debugger, strategy):
        return dblife_debugger.debug(self.QUERY, strategy=strategy)

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_budgeted_run_is_prefix_of_unbudgeted(self, dblife_debugger, strategy):
        full = self.full_report(dblife_debugger, strategy).traversal
        total = full.stats.queries_executed
        assert total > 0
        for cap in range(total + 2):
            budget = ProbeBudget(max_queries=cap)
            partial = dblife_debugger.debug(
                self.QUERY, strategy=strategy, budget=budget
            ).traversal
            assert partial.stats.queries_executed <= cap
            assert partial.exhausted == (cap < total)
            # Everything classified matches the unbudgeted run exactly.
            assert set(partial.alive_mtns) <= set(full.alive_mtns)
            assert set(partial.dead_mtns) <= set(full.dead_mtns)
            for mtn_index, mpans in partial.mpans.items():
                assert sorted(mpans) == sorted(full.mpans[mtn_index])
            if not partial.exhausted:
                assert (
                    partial.classification_signature()
                    == full.classification_signature()
                )
            else:
                # The refused probe must have cost something: either an MTN
                # stayed unclassified, or a dead MTN's space stayed
                # unresolved and its MPAN set was (correctly) suppressed.
                assert partial.unclassified_mtns or set(partial.mpans) < set(
                    full.mpans
                )

    def test_exhausted_run_leaves_rest_possibly_alive(self, dblife_debugger):
        full = self.full_report(dblife_debugger, "buwr").traversal
        budget = ProbeBudget(max_queries=1)
        partial = dblife_debugger.debug(
            self.QUERY, strategy="buwr", budget=budget
        ).traversal
        assert partial.exhausted and budget.bound
        store = next(iter(partial.stores.values()), None)
        for mtn_index in partial.unclassified_mtns:
            if store is not None and mtn_index in partial.stores:
                assert (
                    partial.stores[mtn_index].status(mtn_index)
                    is Status.POSSIBLY_ALIVE
                )
        assert partial.classified_mtn_count < full.classified_mtn_count

    def test_trace_span_count_matches_queries_executed(self, dblife_debugger):
        tracer = ProbeTracer()
        report = dblife_debugger.debug(self.QUERY, strategy="buwr", tracer=tracer)
        result = report.traversal
        assert tracer.executed_span_count == result.stats.queries_executed
        assert tracer.span_count == (
            result.stats.queries_executed + result.stats.cache_hits
        )
        seqs = {event.name: event.seq for event in tracer.events}
        assert all(
            seqs["traversal_start"] < span.seq < seqs["traversal_end"]
            for span in tracer.spans
        )
        assert all(span.strategy == "buwr" for span in tracer.spans)
        counts = validate_trace_lines(tracer.to_jsonl().splitlines())
        assert counts["span"] == tracer.span_count

    def test_report_render_mentions_exhaustion(self, products_debugger):
        budget = ProbeBudget(max_queries=1)
        report = products_debugger.debug("saffron scented candle", budget=budget)
        assert report.exhausted
        assert "probe budget exhausted" in report.render()


class TestBudgetedSession:
    def test_classify_degrades_to_possibly_alive(self, products_debugger):
        with DebugSession(
            products_debugger,
            "saffron scented candle",
            budget=ProbeBudget(max_queries=0),
        ) as session:
            statuses = {
                session.classify(i) for i in range(len(session.overview()))
            }
            # Base-level seeding costs nothing, so some may be known already;
            # nothing beyond that can be learned with a zero budget.
            assert session.exhausted or statuses <= {Status.ALIVE, Status.DEAD}
            assert (
                "budget exhausted" in session.progress()
                or not session.exhausted
            )

    def test_explain_does_not_cache_partial_result(self, products_debugger):
        with DebugSession(
            products_debugger, "saffron scented candle"
        ) as unbudgeted:
            full = unbudgeted.explain_all()
            dead_positions = [pos for pos, mpans in full.items() if mpans]
            assert dead_positions
            position = dead_positions[0]

            budget = ProbeBudget(max_queries=1)
            with DebugSession(
                products_debugger, "saffron scented candle", budget=budget
            ) as session:
                first = session.explain(position)
                if session.exhausted:
                    assert first == []
                    # A fresh budget resumes from the shared store, nothing
                    # was falsely remembered as explained.
                    budget.reset()
                    budget.max_queries = None
                    session.exhausted = False
                queries = session.explain(position)
                assert [q.describe() for q in queries] == [
                    q.describe() for q in unbudgeted.explain(position)
                ]

    def test_explain_all_reports_only_completed_explanations(
        self, products_debugger
    ):
        with DebugSession(
            products_debugger, "saffron scented candle"
        ) as unbudgeted:
            full = unbudgeted.explain_all()
        with DebugSession(
            products_debugger,
            "saffron scented candle",
            budget=ProbeBudget(max_queries=2),
        ) as session:
            partial = session.explain_all()
        assert set(partial) <= set(full)
        for position, mpans in partial.items():
            assert [q.describe() for q in mpans] == [
                q.describe() for q in full[position]
            ]


class TestStrategySafetyNet:
    def test_run_catches_unhandled_exhaustion(self, products_debugger):
        """A strategy that lets the exception escape still yields a result."""

        class Leaky(type(get_strategy("buwr"))):
            name = "leaky"

            def _run(self, graph, evaluator, store, result):
                raise ProbeBudgetExhausted(ProbeBudget(max_queries=0))

        report = products_debugger.debug("saffron scented candle", strategy=Leaky())
        assert report.traversal.exhausted
        assert report.traversal.classified_mtn_count == 0
