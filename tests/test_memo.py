"""The slot-signature memo of Phases 1-2 (``KeywordBinder.memo``).

A binder keeps each slot signature's retained trees, and Phase 2 keeps
that signature's MTN plans, in one bounded LRU
(:class:`repro.core.binding.SignatureMemo`).  A memoized binder must give
exactly what a binder with an empty memo gives: the same retained sets,
the same MTN order and the same exploration graph, under any constraints,
after any warm-up order and any eviction.  Threads that share one debugger
share its memo, and a write to the database leaves it valid.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.binding import (
    LATTICE_TREES_PER_TREE,
    KeywordBinder,
    SignatureMemo,
)
from repro.core.constraints import SearchConstraints
from repro.core.debugger import NonAnswerDebugger
from repro.core.lattice import generate_lattice
from repro.core.mtn import MtnPlan, build_exploration_graph, find_mtns, mtn_plans
from repro.datasets.dblife import DBLifeConfig, dblife_database, dblife_schema
from repro.datasets.products import product_schema
from repro.index.mapper import Interpretation
from repro.relational.jointree import JoinTree, RelationInstance
from repro.workloads.generator import RandomWorkload

SCHEMAS = {"dblife": dblife_schema(), "products": product_schema()}
MAX_JOINS = 2
#: Small enough that entries are evicted, and that some are never kept.
SMALL_BOUND = 12


def graph_signature(graph):
    """What "the same exploration graph" means."""
    return (
        [node.query for node in graph.nodes],
        graph.desc_mask,
        graph.asc_mask,
        graph.mtn_indexes,
    )


@pytest.fixture(scope="module")
def lattices():
    return {
        name: generate_lattice(schema, MAX_JOINS, max_keywords=MAX_JOINS + 1)
        for name, schema in SCHEMAS.items()
    }


@pytest.fixture(scope="module")
def memoized(lattices):
    """One long-lived binder per set-up, its memo warm across examples."""
    binders: dict[tuple[str, bool, int], KeywordBinder] = {}

    def get(schema_name: str, use_lattice: bool, free_copies: int) -> KeywordBinder:
        key = (schema_name, use_lattice, free_copies)
        if key not in binders:
            binder = make_binder(lattices, *key)
            binder.memo = SignatureMemo(SMALL_BOUND, lattice_backed=use_lattice)
            binders[key] = binder
        return binders[key]

    return get


def make_binder(lattices, schema_name, use_lattice, free_copies):
    if use_lattice:
        return KeywordBinder(lattices[schema_name])
    return KeywordBinder(
        schema=SCHEMAS[schema_name],
        max_joins=MAX_JOINS,
        max_keywords=MAX_JOINS + 1,
        free_copies=free_copies,
    )


@st.composite
def setups(draw):
    """A binder set-up, constraints, and interpretations over its schema.

    Keywords come from a pool of three, so one signature recurs with
    different keywords and one keyword with different relations.
    """
    schema_name = draw(st.sampled_from(sorted(SCHEMAS)))
    use_lattice = draw(st.booleans())
    free_copies = 1 if use_lattice else draw(st.sampled_from((1, 2)))
    relations = sorted(SCHEMAS[schema_name].relations)
    interpretations = draw(
        st.lists(
            st.lists(
                st.tuples(st.sampled_from(("ka", "kb", "kc")), st.sampled_from(relations)),
                min_size=1,
                max_size=MAX_JOINS + 1,
            ).map(lambda pairs: Interpretation(tuple(pairs))),
            min_size=1,
            max_size=5,
        )
    )
    warmup = draw(st.permutations(interpretations))
    excluded = draw(st.sets(st.sampled_from(relations), max_size=1))
    constraints = SearchConstraints(
        exclude_relations=frozenset(excluded),
        max_explanation_level=draw(st.sampled_from((None, 1, 2))),
    )
    return schema_name, use_lattice, free_copies, interpretations, warmup, constraints


class TestMemoEqualsFresh:
    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(setup=setups())
    def test_memoized_binder_matches_a_fresh_one(self, lattices, memoized, setup):
        schema_name, use_lattice, free_copies, interpretations, warmup, constraints = setup
        binder = memoized(schema_name, use_lattice, free_copies)
        for interpretation in warmup:
            build_exploration_graph([binder.prune(interpretation)], constraints=constraints)
        assert binder.memo.trees <= binder.memo.max_trees

        warm = [binder.prune(interpretation) for interpretation in interpretations]
        fresh = [
            make_binder(lattices, schema_name, use_lattice, free_copies).prune(
                interpretation
            )
            for interpretation in interpretations
        ]
        for memo_pruned, fresh_pruned in zip(warm, fresh):
            assert memo_pruned.retained == fresh_pruned.retained
            assert find_mtns(memo_pruned) == find_mtns(fresh_pruned)
        assert graph_signature(
            build_exploration_graph(warm, constraints=constraints)
        ) == graph_signature(build_exploration_graph(fresh, constraints=constraints))
        assert binder.memo.trees <= binder.memo.max_trees


# ------------------------------------------------------------- the LRU
def trees(count: int, relation: str = "Item") -> frozenset[JoinTree]:
    """``count`` distinct one-node trees (enough for the accounting)."""
    return frozenset(
        JoinTree.single(RelationInstance(relation, copy)) for copy in range(1, count + 1)
    )


def key(copy: int) -> frozenset[RelationInstance]:
    return frozenset({RelationInstance("Color", copy)})


class TestSignatureMemo:
    def test_fills_once_then_reads(self):
        memo = SignatureMemo(100)
        calls = []

        def fill():
            calls.append(1)
            return trees(3)

        assert memo.retained(key(1), fill) == trees(3)
        assert memo.retained(key(1), fill) == trees(3)
        assert len(calls) == 1
        assert (len(memo), memo.trees) == (1, 3)

    def test_evicts_least_recent_within_the_bound(self):
        memo = SignatureMemo(10)
        memo.retained(key(1), lambda: trees(4))
        memo.retained(key(2), lambda: trees(4))
        memo.retained(key(1), lambda: trees(4))  # 1 is now the most recent
        memo.retained(key(3), lambda: trees(4))  # 12 > 10: 2 goes
        refilled = []
        memo.retained(key(1), lambda: refilled.append(1) or trees(4))
        assert not refilled
        memo.retained(key(2), lambda: refilled.append(2) or trees(4))
        assert refilled == [2]
        assert memo.trees <= 10

    def test_an_entry_over_the_bound_is_never_kept(self):
        memo = SignatureMemo(5)
        memo.retained(key(1), lambda: trees(3))
        assert memo.retained(key(2), lambda: trees(6)) == trees(6)
        assert (len(memo), memo.trees) == (1, 3)

    def test_lattice_trees_count_at_their_rate(self):
        memo = SignatureMemo(100, lattice_backed=True)
        memo.retained(key(1), lambda: trees(LATTICE_TREES_PER_TREE + 1))
        assert memo.trees == 2

    def test_plans_count_their_subtrees_once(self, products_debugger):
        binder = KeywordBinder(products_debugger.lattice)
        pruned = binder.prune(
            Interpretation(
                (("saffron", "Color"), ("scented", "Item"), ("candle", "ProductType"))
            )
        )
        before = binder.memo.trees
        plans = mtn_plans(pruned)
        subtrees = {tree for plan in plans for tree in plan.subtrees}
        assert binder.memo.trees == before + len(subtrees)
        # A second read is the stored plans: same objects, no new trees.
        again = mtn_plans(pruned)
        assert all(a is b for a, b in zip(plans, again))
        assert binder.memo.trees == before + len(subtrees)

    def test_threads_keep_the_tally_exact(self):
        """Eight threads fill, read and attach plans on a small memo; a lost
        update would leave the tally apart from its entries' sum."""
        memo = SignatureMemo(40)
        retained = {copy: trees(copy % 7 + 1) for copy in range(1, 25)}
        plan = MtnPlan(JoinTree.single(RelationInstance("Item", 1)), tuple(trees(3)), ())

        def worker(seed: int) -> None:
            rng = random.Random(seed)
            for _ in range(300):
                copy = rng.randrange(1, 25)
                memo.retained(key(copy), lambda: retained[copy])
                memo.mtn_plans(key(copy), lambda: (plan,))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        with memo._lock:
            assert memo._trees == sum(entry.trees for entry in memo._entries.values())
        assert 0 < memo.trees <= memo.max_trees


# ------------------------------------------------------------ threads
QUERY_COUNT = 16
ROUNDS = 3
THREADS = 4


def outputs(report):
    """A report's classifications and MPANs, by query description."""
    if report.graph is None:
        return None
    return (
        [node.query.describe_full() for node in report.graph.nodes],
        report.traversal.classification_signature(),
        [
            (query.describe_full(), [mpan.describe_full() for mpan in mpans])
            for query, mpans in report.explanations()
        ],
    )


class TestSharedAcrossThreads:
    """Four threads debug overlapping queries on one debugger; a write
    between rounds keeps the memo, and every report matches a fresh
    debugger's serial run."""

    @pytest.mark.parametrize("use_lattice", [False, True], ids=["direct", "lattice"])
    def test_threads_share_one_memo_across_writes(self, use_lattice):
        database = dblife_database(DBLifeConfig(seed=42, scale=1))
        debugger = NonAnswerDebugger(
            database, max_joins=MAX_JOINS, use_lattice=use_lattice, max_keywords=3
        )
        queries = RandomWorkload(debugger.index, seed=11).batch(QUERY_COUNT)
        signatures: dict[frozenset, set[frozenset[str]]] = {}
        for query in queries:
            for interpretation in debugger.map_keywords(query).interpretations:
                signatures.setdefault(
                    debugger.binder.bind(interpretation).instances, set()
                ).add(frozenset(query.split()))
        # The queries share signatures with different keywords.
        assert any(len(keyword_sets) > 1 for keyword_sets in signatures.values())
        memo = debugger.binder.memo
        row = (900_000_001, "zzmemowrite")
        try:
            for round_number in range(ROUNDS):
                if round_number:  # a write, then refresh: the memo survives
                    held = (len(memo), memo.trees)
                    if round_number % 2:
                        row_id = database.insert("Topic", row)
                    else:
                        database.delete("Topic", row_id)
                    debugger.refresh_after_mutation()
                    assert debugger.binder.memo is memo
                    assert (len(memo), memo.trees) == held
                expected = self.serial(database, use_lattice, queries)
                found = self.threaded(debugger, queries)
                for thread_results in found:
                    assert thread_results == expected
                assert memo.trees <= memo.max_trees
        finally:
            debugger.close()

    @staticmethod
    def serial(database, use_lattice, queries):
        with NonAnswerDebugger(
            database, max_joins=MAX_JOINS, use_lattice=use_lattice, max_keywords=3
        ) as fresh:
            return {query: outputs(fresh.debug(query)) for query in queries}

    @staticmethod
    def threaded(debugger, queries):
        """Each thread runs every query, starting at its own offset."""
        barrier = threading.Barrier(THREADS)
        results: list[dict] = [{} for _ in range(THREADS)]
        errors: list[Exception] = []

        def worker(slot: int) -> None:
            try:
                barrier.wait()
                order = queries[slot::THREADS] + queries
                for query in order:
                    results[slot][query] = outputs(debugger.debug(query))
            except Exception as error:  # surfaced below
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert not errors, errors
        return results
