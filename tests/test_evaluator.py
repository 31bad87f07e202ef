"""Unit tests for the instrumented evaluator (counts, cache, cost model)."""

import pytest

from repro.obs import ProbeBudget, ProbeBudgetExhausted, ProbeTracer
from repro.relational.evaluator import EvaluationStats, InstrumentedEvaluator
from repro.relational.jointree import BoundQuery, JoinTree, RelationInstance


class FakeBackend:
    """Counts calls; aliveness is determined by the bound keyword."""

    def __init__(self):
        self.calls = 0

    def is_alive(self, query):
        self.calls += 1
        return "alive" in query.keywords


class FakeCostModel:
    def cost(self, query):
        return 2.5


def query(keyword: str) -> BoundQuery:
    tree = JoinTree.single(RelationInstance("R", 1))
    return BoundQuery.from_mapping(tree, {RelationInstance("R", 1): keyword})


def queries(count: int, prefix: str = "kw") -> list[BoundQuery]:
    return [query(f"{prefix}-{index}") for index in range(count)]


class TestInstrumentedEvaluator:
    def test_counts_executions(self):
        backend = FakeBackend()
        evaluator = InstrumentedEvaluator(backend)
        assert evaluator.is_alive(query("alive")) is True
        assert evaluator.is_alive(query("dead-kw")) is False
        assert evaluator.stats.queries_executed == 2
        assert backend.calls == 2

    def test_cache_hits_do_not_execute(self):
        backend = FakeBackend()
        evaluator = InstrumentedEvaluator(backend, use_cache=True)
        first = evaluator.is_alive(query("alive"))
        second = evaluator.is_alive(query("alive"))
        assert first == second
        assert backend.calls == 1
        assert evaluator.stats.queries_executed == 1
        assert evaluator.stats.cache_hits == 1

    def test_no_cache_reexecutes(self):
        backend = FakeBackend()
        evaluator = InstrumentedEvaluator(backend, use_cache=False)
        evaluator.is_alive(query("alive"))
        evaluator.is_alive(query("alive"))
        assert backend.calls == 2
        assert evaluator.stats.cache_hits == 0

    def test_reset_cache(self):
        backend = FakeBackend()
        evaluator = InstrumentedEvaluator(backend)
        evaluator.is_alive(query("alive"))
        evaluator.reset_cache()
        evaluator.is_alive(query("alive"))
        assert backend.calls == 2
        assert evaluator.cache_size == 1

    def test_cost_model_accumulates(self):
        evaluator = InstrumentedEvaluator(FakeBackend(), cost_model=FakeCostModel())
        evaluator.is_alive(query("alive"))
        evaluator.is_alive(query("other"))
        assert evaluator.stats.simulated_time == 5.0

    def test_per_level_counts(self):
        evaluator = InstrumentedEvaluator(FakeBackend())
        evaluator.is_alive(query("a"))
        evaluator.is_alive(query("b"))
        assert evaluator.stats.executed_by_level == {1: 2}

    def test_stats_snapshot_and_diff(self):
        evaluator = InstrumentedEvaluator(FakeBackend())
        evaluator.is_alive(query("a"))
        before = evaluator.stats.snapshot()
        evaluator.is_alive(query("b"))
        evaluator.is_alive(query("c"))
        delta = evaluator.stats.diff(before)
        assert delta.queries_executed == 2
        assert delta.executed_by_level == {1: 2}

    def test_diff_keeps_levels_present_only_in_earlier(self):
        """Regression: levels dropped since the snapshot must yield negative
        deltas, not silently vanish (e.g. diffing across ``reset_stats``)."""
        earlier = EvaluationStats(queries_executed=3, executed_by_level={1: 1, 2: 2})
        later = EvaluationStats(queries_executed=4, executed_by_level={2: 3, 3: 1})
        delta = later.diff(earlier)
        assert delta.queries_executed == 1
        assert delta.executed_by_level == {1: -1, 2: 1, 3: 1}

    def test_diff_after_reset_stats_reports_negative_levels(self):
        evaluator = InstrumentedEvaluator(FakeBackend())
        evaluator.is_alive(query("a"))
        before = evaluator.stats.snapshot()
        evaluator.reset_stats()
        delta = evaluator.stats.diff(before)
        assert delta.queries_executed == -1
        assert delta.executed_by_level == {1: -1}

    def test_reset_stats(self):
        evaluator = InstrumentedEvaluator(FakeBackend())
        evaluator.is_alive(query("a"))
        evaluator.reset_stats()
        assert evaluator.stats.queries_executed == 0

    def test_stats_str(self):
        stats = EvaluationStats(queries_executed=3, cache_hits=1)
        assert "3 queries" in str(stats)


class TestBudgetedEvaluator:
    def test_budget_refuses_before_touching_backend(self):
        backend = FakeBackend()
        budget = ProbeBudget(max_queries=2)
        evaluator = InstrumentedEvaluator(backend, use_cache=False, budget=budget)
        evaluator.is_alive(query("a"))
        evaluator.is_alive(query("b"))
        with pytest.raises(ProbeBudgetExhausted):
            evaluator.is_alive(query("c"))
        assert backend.calls == 2
        assert evaluator.stats.queries_executed == 2
        assert budget.bound

    def test_cache_hits_are_free_after_exhaustion(self):
        backend = FakeBackend()
        budget = ProbeBudget(max_queries=1)
        evaluator = InstrumentedEvaluator(backend, use_cache=True, budget=budget)
        assert evaluator.is_alive(query("alive")) is True
        # Budget spent, but the cached answer still flows.
        assert evaluator.is_alive(query("alive")) is True
        assert backend.calls == 1
        assert evaluator.stats.cache_hits == 1

    def test_simulated_deadline_binds(self):
        budget = ProbeBudget(max_simulated_seconds=4.0)
        evaluator = InstrumentedEvaluator(
            FakeBackend(), cost_model=FakeCostModel(), use_cache=False, budget=budget
        )
        evaluator.is_alive(query("a"))  # 2.5 simulated seconds
        evaluator.is_alive(query("b"))  # 5.0 total >= 4.0: next probe refused
        with pytest.raises(ProbeBudgetExhausted):
            evaluator.is_alive(query("c"))

    def test_tracer_records_one_span_per_probe(self):
        tracer = ProbeTracer()
        evaluator = InstrumentedEvaluator(FakeBackend(), tracer=tracer)
        evaluator.is_alive(query("alive"))
        evaluator.is_alive(query("alive"))  # cache hit
        evaluator.is_alive(query("other"))
        assert tracer.span_count == 3
        assert tracer.executed_span_count == evaluator.stats.queries_executed == 2
        hit = [span for span in tracer.spans if span.cache_hit]
        assert len(hit) == 1 and hit[0].alive is True
        assert all(span.backend == "FakeBackend" for span in tracer.spans)

    def test_tracer_records_budget_remaining_and_exhaustion_event(self):
        tracer = ProbeTracer()
        budget = ProbeBudget(max_queries=1)
        evaluator = InstrumentedEvaluator(
            FakeBackend(), use_cache=False, budget=budget, tracer=tracer
        )
        evaluator.is_alive(query("a"))
        assert tracer.spans[0].budget_remaining == 0
        with pytest.raises(ProbeBudgetExhausted):
            evaluator.is_alive(query("b"))
        assert [event.name for event in tracer.events] == ["budget_exhausted"]

    def test_backend_error_charges_nothing(self):
        """A backend error inside ``is_alive`` spends no budget: the budget
        still admits ``max_queries`` probes afterwards."""

        class ExplodingBackend(FakeBackend):
            def is_alive(self, query):
                if "boom" in query.keywords:
                    self.calls += 1
                    raise RuntimeError("backend down")
                return super().is_alive(query)

        backend = ExplodingBackend()
        budget = ProbeBudget(max_queries=2)
        evaluator = InstrumentedEvaluator(backend, use_cache=False, budget=budget)
        with pytest.raises(RuntimeError, match="backend down"):
            evaluator.is_alive(query("boom"))
        assert budget.queries_used == 0
        assert evaluator.stats.queries_executed == 0
        first, second, third = queries(3)
        evaluator.is_alive(first)
        evaluator.is_alive(second)
        with pytest.raises(ProbeBudgetExhausted):
            evaluator.is_alive(third)
        assert budget.queries_used == 2
        assert backend.calls == 3  # the failed probe plus the two admitted


class TestBoundedCache:
    def test_capacity_evicts_least_recently_used(self):
        backend = FakeBackend()
        evaluator = InstrumentedEvaluator(backend, cache_capacity=2)
        first, second, third = queries(3)
        evaluator.is_alive(first)
        evaluator.is_alive(second)
        evaluator.is_alive(third)  # evicts `first`
        assert evaluator.cache_size == 2
        assert evaluator.stats.cache_evictions == 1
        evaluator.is_alive(first)  # re-executes: it was evicted
        assert backend.calls == 4
        evaluator.is_alive(third)  # still cached
        assert backend.calls == 4
        assert evaluator.stats.cache_hits == 1

    def test_hit_refreshes_recency(self):
        backend = FakeBackend()
        evaluator = InstrumentedEvaluator(backend, cache_capacity=2)
        first, second, third = queries(3)
        evaluator.is_alive(first)
        evaluator.is_alive(second)
        evaluator.is_alive(first)  # hit: `first` becomes most recent
        evaluator.is_alive(third)  # evicts `second`, not `first`
        evaluator.is_alive(first)
        assert backend.calls == 3
        assert evaluator.stats.cache_hits == 2

    def test_miss_and_eviction_counters_in_str(self):
        evaluator = InstrumentedEvaluator(FakeBackend(), cache_capacity=1)
        evaluator.is_alive(query("a"))
        evaluator.is_alive(query("b"))
        text = str(evaluator.stats)
        assert "2 queries" in text
        assert "0 cache hits / 2 misses" in text
        assert "1 evicted" in text

    def test_counters_survive_snapshot_and_diff(self):
        evaluator = InstrumentedEvaluator(FakeBackend(), cache_capacity=1)
        evaluator.is_alive(query("a"))
        before = evaluator.stats.snapshot()
        evaluator.is_alive(query("b"))
        evaluator.is_alive(query("b"))
        delta = evaluator.stats.diff(before)
        assert delta.cache_misses == 1
        assert delta.cache_evictions == 1
        assert delta.cache_hits == 1

    def test_uncached_evaluator_counts_no_misses(self):
        evaluator = InstrumentedEvaluator(FakeBackend(), use_cache=False)
        evaluator.is_alive(query("a"))
        assert evaluator.stats.cache_misses == 0

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            InstrumentedEvaluator(FakeBackend(), cache_capacity=0)

    def test_unbounded_cache_never_evicts(self):
        evaluator = InstrumentedEvaluator(FakeBackend(), cache_capacity=None)
        for probe in queries(50):
            evaluator.is_alive(probe)
        assert evaluator.cache_size == 50
        assert evaluator.stats.cache_evictions == 0
