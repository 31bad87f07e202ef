"""Micro-benchmarks for the hot operations under every experiment."""

import pytest

from repro.core.binding import KeywordBinder
from repro.core.canonical import canonical_code
from repro.core.mtn import build_exploration_graph
from repro.index.inverted import InvertedIndex
from repro.relational.sql import has_same_row_fan_in
from repro.relational.sqlite_backend import SqliteEngine


@pytest.fixture(scope="module")
def prepared_q8(context):
    return context.prepare(5, context.workload[7])  # Q8


def test_aliveness_probe_memory(benchmark, context, prepared_q8):
    """One semi-join emptiness check on the in-memory engine."""
    debugger = context.debugger(5)
    mtn = prepared_q8.graph.mtns()[0]

    result = benchmark(lambda: debugger.backend.is_alive(mtn.query))
    assert result in (True, False)


def test_aliveness_probe_sqlite(benchmark, context, prepared_q8):
    """A flat-join probe on sqlite3: Q8's first MTN without a same-row fan-in.

    (Q8's first MTN is itself a fan-in, probed as semi-joins; the next
    bench times that form.)
    """
    schema = context.database.schema
    mtn = next(
        mtn
        for mtn in prepared_q8.graph.mtns()
        if not has_same_row_fan_in(mtn.tree, schema)
    )

    with SqliteEngine(context.database) as engine:
        result = benchmark(lambda: engine.is_alive(mtn.query))
    assert result in (True, False)


def test_aliveness_probe_sqlite_fan_in(benchmark, context, prepared_q8):
    """Q8's first same-row fan-in MTN on sqlite3, probed as nested semi-joins.

    Such trees (``Publication[1] ← Writes[0] → Publication[2]`` on
    ``Writes.pub_id``) are most of the MTNs and set the probe tail.
    """
    schema = context.database.schema
    mtn = next(
        mtn
        for mtn in prepared_q8.graph.mtns()
        if has_same_row_fan_in(mtn.tree, schema)
    )

    with SqliteEngine(context.database) as engine:
        result = benchmark(lambda: engine.is_alive(mtn.query))
    assert result in (True, False)


def test_canonical_labeling(benchmark, context, prepared_q8):
    """Canonical labeling of a level-5 join tree (Algorithm 2)."""
    schema = context.database.schema
    tree = prepared_q8.graph.mtns()[0].tree

    code = benchmark(lambda: canonical_code(tree, schema))
    assert code


def fresh_binder(context) -> KeywordBinder:
    """A binder over the level-5 lattice whose memo is empty."""
    return KeywordBinder(context.debugger(5).lattice)


def test_lattice_prune_cold(benchmark, context, prepared_q8):
    """Phase 1 with an empty memo: every Q8 interpretation's slot signature
    is read off the level-5 lattice's index (a fresh binder each round)."""
    interpretations = prepared_q8.mapping.interpretations

    def prune_all(binder):
        return [binder.prune(i) for i in interpretations]

    pruned = benchmark.pedantic(
        prune_all, setup=lambda: ((fresh_binder(context),), {}), rounds=20
    )
    assert [p.retained for p in pruned] == [p.retained for p in prepared_q8.pruned]


def test_lattice_prune_warm(benchmark, context, prepared_q8):
    """Phase 1 from the memo: every Q8 slot signature was pruned before."""
    binder = context.debugger(5).binder
    interpretations = prepared_q8.mapping.interpretations

    pruned = benchmark(lambda: [binder.prune(i) for i in interpretations])
    assert [p.retained for p in pruned] == [p.retained for p in prepared_q8.pruned]


def test_exploration_graph_build_cold(benchmark, context, prepared_q8):
    """Phase 2 with an empty memo: the MTN plans are built, then bound."""
    interpretations = prepared_q8.mapping.interpretations

    def fresh_pruned():
        binder = fresh_binder(context)
        return ([binder.prune(i) for i in interpretations],), {}

    graph = benchmark.pedantic(build_exploration_graph, setup=fresh_pruned, rounds=20)
    assert len(graph) == len(prepared_q8.graph)


def test_exploration_graph_build_warm(benchmark, context, prepared_q8):
    """Phase 2 from the memo's MTN plans: only binding, interning, masks."""
    pruned = prepared_q8.pruned

    graph = benchmark(lambda: build_exploration_graph(pruned))
    assert len(graph) == len(prepared_q8.graph)


def test_inverted_index_build(benchmark, context):
    """Offline index construction over the whole snapshot."""
    database = context.database

    index = benchmark(lambda: InvertedIndex(database))
    assert index.vocabulary_size > 0


def test_keyword_lookup(benchmark, context):
    """A single postings lookup (what §3.3 measures per keyword)."""
    index = context.debugger(3).index

    relations = benchmark(lambda: index.relations_containing("washington"))
    assert relations
