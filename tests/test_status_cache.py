"""Tests for the persisted StatusStore: save/load, repair, Phase-3 skip."""

from __future__ import annotations

import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache import StatusCache, StatusFact, fact_survives, workload_cache_key
from repro.core.debugger import NonAnswerDebugger
from repro.core.traversal import STRATEGY_NAMES
from repro.datasets.products import product_database
from repro.obs import ProbeBudget, ProbeTracer
from repro.relational.database import MutationDirection

from tests.test_properties import SETTINGS, product_databases, random_queries

INS = MutationDirection.INSERT_ONLY
DEL = MutationDirection.DELETE_ONLY
MIX = MutationDirection.MIXED


def fact(relations, alive, key="k", evaluated=True):
    return StatusFact(
        node_key=key, relations=tuple(relations), alive=alive, evaluated=evaluated
    )


# -------------------------------------------------------------- repair rule
class TestFactSurvives:
    def test_untouched_fact_is_exact(self):
        assert fact_survives(fact(["A"], True), {"B": MIX})
        assert fact_survives(fact(["A"], False), {"B": MIX})

    def test_alive_survives_insert_only(self):
        assert fact_survives(fact(["A"], True), {"A": INS})
        assert not fact_survives(fact(["A"], False), {"A": INS})

    def test_dead_survives_delete_only(self):
        assert fact_survives(fact(["A"], False), {"A": DEL})
        assert not fact_survives(fact(["A"], True), {"A": DEL})

    def test_mixed_kills_both_polarities(self):
        assert not fact_survives(fact(["A"], True), {"A": MIX})
        assert not fact_survives(fact(["A"], False), {"A": MIX})

    def test_conflicting_directions_kill(self):
        """A join path touching one insert-only and one delete-only
        relation has no monotone guarantee in either polarity."""
        directions = {"A": INS, "B": DEL}
        assert not fact_survives(fact(["A", "B"], True), directions)
        assert not fact_survives(fact(["A", "B"], False), directions)

    def test_multiple_same_direction_relations_survive(self):
        directions = {"A": INS, "B": INS}
        assert fact_survives(fact(["A", "B"], True), directions)


class TestWorkloadKey:
    def test_token_order_and_case_insensitive(self):
        one = workload_cache_key(["Saffron", "candle"], "token", 2, 3, 1)
        two = workload_cache_key(["CANDLE", "saffron"], "token", 2, 3, 1)
        assert one == two

    def test_casefold_not_just_lower(self):
        # German sharp s: casefold maps both spellings to "strasse".
        assert workload_cache_key(["STRASSE"], "token", 2, 3, 1) == (
            workload_cache_key(["straße"], "token", 2, 3, 1)
        )

    def test_lattice_shape_is_part_of_the_key(self):
        base = workload_cache_key(["a"], "token", 2, 3, 1)
        assert workload_cache_key(["a"], "substring", 2, 3, 1) != base
        assert workload_cache_key(["a"], "token", 3, 3, 1) != base
        assert workload_cache_key(["a"], "token", 2, 4, 1) != base
        assert workload_cache_key(["a"], "token", 2, 3, 2) != base


# ------------------------------------------------------------------- store
class TestStatusCache:
    def facts(self):
        return [
            fact(["Item"], True, key="n1"),
            fact(["Item"], False, key="n2"),
            fact(["ProductType"], True, key="n3"),
        ]

    def test_save_load_exact_roundtrip(self, tmp_path):
        database = product_database()
        with StatusCache.open_dir(tmp_path, database) as cache:
            assert cache.load("w") is None
            assert cache.save("w", self.facts()) == 3
            load = cache.load("w")
        assert load.exact and load.complete and load.dropped == 0
        assert [f.node_key for f in load.facts] == ["n1", "n2", "n3"]

    def test_persists_across_reopen(self, tmp_path):
        database = product_database()
        with StatusCache.open_dir(tmp_path, database) as cache:
            cache.save("w", self.facts(), complete=False)
        with StatusCache.open_dir(tmp_path, database) as reopened:
            load = reopened.load("w")
        assert load.exact and not load.complete
        assert len(load.facts) == 3

    def test_stale_load_repairs_with_directions(self, tmp_path):
        database = product_database()
        with StatusCache.open_dir(tmp_path, database) as cache:
            cache.save("w", self.facts())
            database.insert("Item", list(database.table("Item"))[0])
            load = cache.load("w")
        assert not load.exact
        assert load.directions == {"Item": "insert_only"}
        # Alive-through-Item and untouched facts survive; dead is dropped.
        assert {f.node_key for f in load.facts} == {"n1", "n3"}
        assert load.dropped == 1

    def test_last_save_wins_per_workload(self, tmp_path):
        database = product_database()
        with StatusCache.open_dir(tmp_path, database) as cache:
            cache.save("w", self.facts())
            cache.save("w", self.facts()[:1])
            assert len(cache) == 1
            load = cache.load("w")
        assert [f.node_key for f in load.facts] == ["n1"]

    def test_workloads_count_runs_and_len_counts_facts(self, tmp_path):
        with StatusCache.open_dir(tmp_path, product_database()) as cache:
            cache.save("w", self.facts())
            cache.save("v", self.facts()[:1])
            cache.save("w", self.facts())
            assert cache.workload_count() == 2
            assert len(cache) == 4

    def test_clear_counts_before_delete(self, tmp_path):
        with StatusCache.open_dir(tmp_path, product_database()) as cache:
            cache.save("w", self.facts())
            assert cache.clear() == 3
            assert cache.load("w") is None


# ----------------------------------------------------------- e2e + property
class TestPhase3Skip:
    QUERY = "saffron scented candle"

    def test_skip_emits_trace_event(self, tmp_path):
        database = product_database()
        with NonAnswerDebugger(
            database, max_joins=2, cache_dir=tmp_path
        ) as debugger:
            debugger.debug(self.QUERY)
        tracer = ProbeTracer()
        with NonAnswerDebugger(
            product_database(), max_joins=2, cache_dir=tmp_path, tracer=tracer
        ) as warm:
            warm.debug(self.QUERY)
        events = [
            r
            for r in tracer.records
            if getattr(r, "name", None) == "phase3_skipped"
        ]
        assert len(events) == 1
        assert events[0].attrs["facts"] > 0

    def test_skip_is_strategy_independent(self, tmp_path):
        with NonAnswerDebugger(
            product_database(), max_joins=2, cache_dir=tmp_path
        ) as cold:
            baseline = cold.debug(self.QUERY, strategy="bu")
        for name in STRATEGY_NAMES:
            with NonAnswerDebugger(
                product_database(), max_joins=2, cache_dir=tmp_path
            ) as warm:
                report = warm.debug(self.QUERY, strategy=name)
            assert report.traversal.stats.queries_executed == 0
            assert (
                report.traversal.classification_signature()
                == baseline.traversal.classification_signature()
            )

    def test_constrained_debug_never_skips_or_saves(self, tmp_path):
        from repro.core.constraints import SearchConstraints

        constraints = SearchConstraints(exclude_relations=frozenset({"Color"}))
        with NonAnswerDebugger(
            product_database(), max_joins=2, cache_dir=tmp_path
        ) as debugger:
            debugger.debug(self.QUERY, constraints=constraints)
            assert debugger.status_cache.saves == 0
            debugger.debug(self.QUERY)
            assert debugger.status_cache.saves == 1
            report = debugger.debug(self.QUERY, constraints=constraints)
            assert debugger.status_cache.saves == 1  # still only the full run
        # The constrained graph was traversed for real, not skipped: its
        # probes ran (answered by the L2 tier, not implied from facts).
        assert report.traversal.stats.cache_hits > 0

    def test_budget_exhausted_run_is_not_persisted(self, tmp_path):
        with NonAnswerDebugger(
            product_database(), max_joins=2, cache_dir=tmp_path
        ) as debugger:
            report = debugger.debug(self.QUERY, budget=ProbeBudget(max_queries=1))
            assert report.traversal.exhausted
            assert debugger.status_cache.saves == 0


class TestMutationProperty:
    """The ISSUE's correctness bar: mutate-then-debug classifications are
    byte-identical to a cold recompute, for every strategy, across random
    insert/delete sequences, with and without budget exhaustion."""

    @SETTINGS
    @given(
        database=product_databases(),
        seed=st.integers(0, 10_000),
        mutations=st.lists(
            st.tuples(
                st.sampled_from(["insert", "delete"]),
                st.integers(0, 7),
            ),
            min_size=1,
            max_size=4,
        ),
        cap=st.integers(0, 12),
    )
    def test_repaired_sessions_match_cold_recompute(
        self, database, seed, mutations, cap
    ):
        cache_dir = tempfile.mkdtemp()
        text = random_queries(database, seed, count=1)[0]
        with NonAnswerDebugger(
            database, max_joins=2, cache_dir=cache_dir
        ) as first:
            mapping = first.map_keywords(text)
            if not mapping.complete or not mapping.keywords:
                return
            first.debug(text)

        # A random insert/delete burst on the live database between the
        # two debug sessions.
        item = database.table("Item")
        for kind, pick in mutations:
            if kind == "insert" or len(item) == 0:
                row = (
                    len(item) + 100,
                    ("saffron", "vanilla candle", "rose oil")[pick % 3],
                    None,
                    None,
                    None,
                    1.0,
                    "scented",
                )
                database.insert("Item", row)
            else:
                database.delete("Item", pick % len(item))

        cold = NonAnswerDebugger(database, max_joins=2)
        warm = NonAnswerDebugger(database, max_joins=2, cache_dir=cache_dir)
        try:
            for name in STRATEGY_NAMES:
                cold_report = cold.debug(text, strategy=name)
                warm_report = warm.debug(text, strategy=name)
                if cold_report.traversal is None:
                    # The mutations removed a keyword from the database:
                    # both sessions must abort identically.
                    assert warm_report.traversal is None
                    return
                assert (
                    warm_report.traversal.classification_signature()
                    == cold_report.traversal.classification_signature()
                ), (text, name, mutations)
                assert sorted(warm_report.traversal.mpans.items()) == (
                    sorted(cold_report.traversal.mpans.items())
                ), (text, name, mutations)
            # Budgeted warm runs must stay sound prefixes of the cold
            # ground truth even when cache hits stretch the budget.
            reference = cold.debug(text)
            budgeted = warm.debug(text, budget=ProbeBudget(max_queries=cap))
            partial = budgeted.traversal
            full = reference.traversal
            assert set(partial.alive_mtns) <= set(full.alive_mtns)
            assert set(partial.dead_mtns) <= set(full.dead_mtns)
            for mtn_index, mpans in partial.mpans.items():
                assert sorted(mpans) == sorted(full.mpans[mtn_index])
        finally:
            cold.close()
            warm.close()
