"""Property-based tests (hypothesis) for the system's core invariants.

These pin down the claims DESIGN.md makes:

1. canonical labels are construction-order independent and coincide with
   tree equality on copy-labeled trees;
2. aliveness is monotone (R1/R2 are sound) on random databases;
3. the in-memory engine and the sqlite3 backend agree on aliveness, the
   probe sqlite executes (flat join or semi-joins) agrees with the flat
   join in both match modes, and the sqlite postings select exactly the
   rows a scan matches, whatever the Unicode in the cells and the keyword;
4. all five traversal strategies produce identical classifications and
   MPANs, and the reuse variants never execute more queries;
5. lattice MTNs equal independently-generated candidate networks.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.canonical import canonical_code
from repro.core.debugger import NonAnswerDebugger
from repro.core.mtn import find_mtns
from repro.core.traversal import STRATEGY_NAMES, get_strategy
from repro.datasets.products import product_schema
from repro.kws.candidate_networks import enumerate_candidate_networks
from repro.relational.database import Database
from repro.relational.engine import InMemoryEngine
from repro.relational.jointree import BoundQuery, JoinTree, RelationInstance
from repro.relational.predicates import MatchMode, tokenize
from repro.relational.schema import Attribute, AttributeType, Relation, SchemaGraph
from repro.relational.sql import render_sql
from repro.relational.sqlite_backend import SqliteEngine

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

VOCAB = ("saffron", "vanilla", "rose", "scented", "candle", "oil", "soap")
COLOR_WORDS = ("red", "yellow", "pink", "saffron")
PROPERTY_WORDS = ("scent", "pattern")


@st.composite
def product_databases(draw) -> Database:
    """Random small instances of the Figure-2 schema."""
    database = Database(product_schema())
    n_types = draw(st.integers(1, 3))
    for type_id in range(1, n_types + 1):
        name = draw(st.sampled_from(("candle", "oil", "incense", "soap")))
        database.insert("ProductType", (type_id, name))
    n_colors = draw(st.integers(1, 4))
    for color_id in range(1, n_colors + 1):
        database.insert(
            "Color",
            (
                color_id,
                draw(st.sampled_from(COLOR_WORDS)),
                draw(st.sampled_from(("crimson, orange", "golden", "peach"))),
            ),
        )
    n_attrs = draw(st.integers(1, 4))
    for attr_id in range(1, n_attrs + 1):
        database.insert(
            "Attribute",
            (
                attr_id,
                draw(st.sampled_from(PROPERTY_WORDS)),
                draw(st.sampled_from(VOCAB)),
            ),
        )
    n_items = draw(st.integers(0, 8))
    for item_id in range(1, n_items + 1):
        words = draw(st.lists(st.sampled_from(VOCAB), min_size=1, max_size=3))
        database.insert(
            "Item",
            (
                item_id,
                " ".join(words),
                draw(st.one_of(st.none(), st.integers(1, n_types))),
                draw(st.one_of(st.none(), st.integers(1, n_colors))),
                draw(st.one_of(st.none(), st.integers(1, n_attrs))),
                1.0,
                draw(st.sampled_from(VOCAB)),
            ),
        )
    database.validate()
    return database


def random_queries(database: Database, seed: int, count: int = 3) -> list[str]:
    rng = random.Random(seed)
    queries = []
    for _ in range(count):
        size = rng.randint(1, 3)
        queries.append(" ".join(rng.sample(VOCAB + COLOR_WORDS, size)))
    return queries


class TestCanonicalInvariance:
    @SETTINGS
    @given(data=st.data())
    def test_shuffled_construction_same_code(self, data, products_debugger):
        """Rebuilding a lattice tree in any edge order gives the same code."""
        lattice = products_debugger.lattice
        original = data.draw(
            st.sampled_from([tree for tree in lattice if tree.size >= 2])
        )
        edges = data.draw(st.permutations(sorted(
            original.edges, key=lambda e: (e.a, e.a_column, e.b, e.b_column)
        )))
        # Rebuild by repeatedly attaching any edge touching the current tree.
        pending = list(edges)
        start = pending[0]
        tree = JoinTree(frozenset([start.a, start.b]), frozenset([start]))
        pending.remove(start)
        while pending:
            for edge in list(pending):
                new_end = None
                if edge.a in tree.instances and edge.b not in tree.instances:
                    new_end = edge.b
                elif edge.b in tree.instances and edge.a not in tree.instances:
                    new_end = edge.a
                if new_end is not None:
                    tree = tree.extend(edge, new_end)
                    pending.remove(edge)
        schema = lattice.schema
        assert canonical_code(tree, schema) == canonical_code(original, schema)

    @SETTINGS
    @given(data=st.data())
    def test_code_equality_iff_tree_equality(self, data, products_debugger):
        lattice = products_debugger.lattice
        schema = lattice.schema
        trees = list(lattice)
        one = data.draw(st.sampled_from(trees))
        other = data.draw(st.sampled_from(trees))
        codes_equal = canonical_code(one, schema) == canonical_code(other, schema)
        assert codes_equal == (one == other)


class TestMonotonicity:
    @SETTINGS
    @given(database=product_databases(), seed=st.integers(0, 10_000))
    def test_alive_implies_subqueries_alive(self, database, seed):
        """R1/R2 soundness against the actual engine."""
        engine = InMemoryEngine(database)
        debugger = NonAnswerDebugger(database, max_joins=2)
        for text in random_queries(database, seed, count=2):
            report = debugger.debug(text)
            if report.graph is None:
                continue
            for node in report.graph.nodes:
                if engine.is_alive(node.query):
                    for child_tree in node.tree.child_subtrees():
                        sub = node.query.subquery(child_tree)
                        assert engine.is_alive(sub), (
                            f"{node.query.describe()} alive but "
                            f"{sub.describe()} dead"
                        )


class TestBackendAgreement:
    @SETTINGS
    @given(database=product_databases(), seed=st.integers(0, 10_000))
    def test_memory_and_sqlite_agree(self, database, seed):
        memory = InMemoryEngine(database)
        debugger = NonAnswerDebugger(database, max_joins=2)
        with SqliteEngine(database) as sqlite_engine:
            for text in random_queries(database, seed, count=2):
                report = debugger.debug(text)
                if report.graph is None:
                    continue
                for node in report.graph.nodes:
                    assert memory.is_alive(node.query) == sqlite_engine.is_alive(
                        node.query
                    ), node.query.describe()


class TestProbeFormEquivalence:
    @SETTINGS
    @given(database=product_databases(), seed=st.integers(0, 10_000))
    def test_executed_probe_matches_flat_join_and_memory(self, database, seed):
        """The probe sqlite runs, the flat join and the memory engine agree.

        Two words of the ``Color`` rows put the same-row fan-in
        ``Color[1] ← Item[0] → Color[2]``, which is probed as semi-joins,
        into every example.  ``Item``'s foreign keys are drawn as NULL too,
        where ``IN`` must match nothing, as ``=`` does.
        """
        schema = database.schema
        memory = InMemoryEngine(database)
        colour_words = sorted(
            {
                word
                for _, name, synonyms in database.table("Color")
                for word in tokenize(f"{name} {synonyms}")
            }
        )
        texts = random_queries(database, seed, count=2)
        texts.append(" ".join(random.Random(seed).sample(colour_words, 2)))
        with SqliteEngine(database) as engine:
            for mode in MatchMode:
                debugger = NonAnswerDebugger(database, max_joins=2, mode=mode)
                for text in texts:
                    report = debugger.debug(text)
                    if report.graph is None:
                        continue
                    for node in report.graph.nodes:
                        query = node.query
                        flat = render_sql(query, schema, select="1")
                        (joined,) = engine.connection.execute(
                            f"SELECT EXISTS ({flat})"
                        ).fetchone()
                        assert (
                            engine.is_alive(query)
                            == bool(joined)
                            == memory.is_alive(query)
                        ), (mode, query.describe_full())


#: Cells where casefolding and tokenizing disagree with naive lowercasing:
#: "ß" folds to "ss", "İ" to "i" + a combining dot (so "İstanbul" is the
#: tokens "i" and "stanbul"), the "ﬁ" ligature to "fi", and combining
#: marks, non-ASCII digits and punctuation split or vanish.
UNICODE_CELLS = (
    "Straße", "STRASSE", "İstanbul", "ﬁle", "FILE", "cafe\u0301", "café",
    "x² ⅻ ٣", "50 hrs", "3.4 oz.", "o'neil", "a-b_c", "Σίσυφος", "",
)
UNICODE_KEYWORDS = (
    "strasse", "STRASSE", "straße", "ss", "i", "stanbul", "İstanbul",
    "ﬁle", "file", "fi", "cafe", "café", "oz", "o'neil", "neil", "σίσυφοσ",
)

unicode_cells = st.one_of(
    st.none(),
    st.sampled_from(UNICODE_CELLS),
    st.text(max_size=12),
    st.lists(
        st.one_of(st.sampled_from(UNICODE_CELLS), st.text(max_size=6)),
        max_size=3,
    ).map(" ".join),
)


class TestTokenProbeAgreement:
    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        rows=st.lists(st.tuples(unicode_cells, unicode_cells), max_size=6),
        data=st.data(),
    )
    def test_postings_match_a_scan(self, rows, data):
        """A single-instance token probe on sqlite selects the scan's rows."""
        schema = SchemaGraph.build(
            [
                Relation(
                    "Doc",
                    (
                        Attribute("id", AttributeType.INTEGER),
                        Attribute("title", AttributeType.TEXT),
                        Attribute("body", AttributeType.TEXT),
                    ),
                )
            ],
            [],
        )
        database = Database(schema)
        for row_id, (title, body) in enumerate(rows):
            database.insert("Doc", (row_id, title, body))
        # The cells' tokens, and their raw words ("Straße", "ﬁle"), which
        # match only through the same casefolding.
        words = sorted(
            {
                word
                for row in rows
                for cell in row
                if cell
                for word in tokenize(cell) + cell.split()
            }
        )
        keyword = st.one_of(
            st.sampled_from(UNICODE_KEYWORDS), st.text(min_size=1, max_size=8)
        )
        if words:
            keyword = st.one_of(st.sampled_from(words), keyword)
        keywords = data.draw(
            st.lists(keyword.filter(str.strip), min_size=1, max_size=6)
        )
        scan = InMemoryEngine(database)
        doc = RelationInstance("Doc", 1)
        with SqliteEngine(database) as engine:
            for text in keywords:
                query = BoundQuery.from_mapping(
                    JoinTree.single(doc), {doc: text}, MatchMode.TOKEN
                )
                expected = sorted(scan.tuple_set("Doc", text, MatchMode.TOKEN))
                found = sorted(row[0] for row in engine.fetch(query, limit=None))
                assert found == expected, text
                assert engine.is_alive(query) == scan.is_alive(query), text


class TestStrategyEquivalence:
    @SETTINGS
    @given(database=product_databases(), seed=st.integers(0, 10_000))
    def test_all_strategies_agree_and_reuse_wins(self, database, seed):
        debugger = NonAnswerDebugger(database, max_joins=2)
        for text in random_queries(database, seed, count=2):
            mapping = debugger.map_keywords(text)
            if not mapping.complete or not mapping.keywords:
                continue
            graph = debugger.build_graph(debugger.prune(mapping))
            outcomes = {}
            counts = {}
            for name in STRATEGY_NAMES:
                strategy = get_strategy(name)
                evaluator = debugger.make_evaluator(use_cache=strategy.uses_reuse)
                result = strategy.run(graph, evaluator, database)
                outcomes[name] = result.classification_signature()
                counts[name] = result.stats.queries_executed
            assert len(set(outcomes.values())) == 1, (text, outcomes)
            assert counts["buwr"] <= counts["bu"]
            assert counts["tdwr"] <= counts["td"]


class TestBudgetAnytime:
    @SETTINGS
    @given(
        database=product_databases(),
        seed=st.integers(0, 10_000),
        cap=st.integers(0, 12),
    )
    def test_budgeted_runs_are_sound_prefixes(self, database, seed, cap):
        """A budget-bounded run of any strategy reports a subset of the
        unbudgeted run's classifications with identical verdicts, executes
        at most ``cap`` queries, and is flagged ``exhausted`` iff the
        budget actually bound."""
        from repro.obs import ProbeBudget

        debugger = NonAnswerDebugger(database, max_joins=2)
        for text in random_queries(database, seed, count=1):
            mapping = debugger.map_keywords(text)
            if not mapping.complete or not mapping.keywords:
                continue
            graph = debugger.build_graph(debugger.prune(mapping))
            for name in STRATEGY_NAMES:
                strategy = get_strategy(name)
                full = strategy.run(
                    graph,
                    debugger.make_evaluator(use_cache=strategy.uses_reuse),
                    database,
                )
                budget = ProbeBudget(max_queries=cap)
                partial = strategy.run(
                    graph,
                    debugger.make_evaluator(
                        use_cache=strategy.uses_reuse, budget=budget
                    ),
                    database,
                )
                assert partial.stats.queries_executed <= cap
                assert partial.exhausted == budget.bound
                assert partial.exhausted == (
                    cap < full.stats.queries_executed
                ), (name, text)
                assert set(partial.alive_mtns) <= set(full.alive_mtns)
                assert set(partial.dead_mtns) <= set(full.dead_mtns)
                for mtn_index, mpans in partial.mpans.items():
                    assert sorted(mpans) == sorted(full.mpans[mtn_index])
                if not partial.exhausted:
                    assert (
                        partial.classification_signature()
                        == full.classification_signature()
                    )


class TestMtnCnEquivalence:
    @SETTINGS
    @given(database=product_databases(), seed=st.integers(0, 10_000))
    def test_lattice_mtns_equal_candidate_networks(self, database, seed):
        debugger = NonAnswerDebugger(database, max_joins=2)
        for text in random_queries(database, seed, count=2):
            mapping = debugger.map_keywords(text)
            if not mapping.complete or not mapping.keywords:
                continue
            for interpretation in mapping.interpretations:
                pruned = debugger.binder.prune(interpretation)
                mtns = set(find_mtns(pruned))
                cns = set(
                    enumerate_candidate_networks(
                        database.schema, pruned.binding, 3
                    )
                )
                assert mtns == cns


class TestFreeRankNormalization:
    @SETTINGS
    @given(database=product_databases(), seed=st.integers(0, 10_000))
    def test_multi_free_results_superset_and_consistent(self, database, seed):
        """f=2 keeps every f=1 answer/non-answer and all strategies agree."""
        from repro.core.debugger import NonAnswerDebugger

        base = NonAnswerDebugger(database, max_joins=2, use_lattice=False)
        extended = NonAnswerDebugger(
            database, max_joins=2, use_lattice=False, free_copies=2
        )
        for text in random_queries(database, seed, count=1):
            one = base.debug(text)
            two = extended.debug(text)
            if one.graph is None:
                continue
            answers_one = {q.describe_full() for q in one.answers()}
            answers_two = {q.describe_full() for q in two.answers()}
            assert answers_one <= answers_two
            non_answers_one = {q.describe_full() for q in one.non_answers()}
            non_answers_two = {q.describe_full() for q in two.non_answers()}
            assert non_answers_one <= non_answers_two


class TestMpanInvariants:
    @SETTINGS
    @given(database=product_databases(), seed=st.integers(0, 10_000))
    def test_mpans_are_maximal_alive_subnetworks(self, database, seed):
        engine = InMemoryEngine(database)
        debugger = NonAnswerDebugger(database, max_joins=2)
        for text in random_queries(database, seed, count=1):
            report = debugger.debug(text)
            if report.traversal is None:
                continue
            graph = report.graph
            for mtn_index, mpan_indexes in report.traversal.mpans.items():
                mtn = graph.node(mtn_index)
                assert not engine.is_alive(mtn.query)
                for index in mpan_indexes:
                    mpan = graph.node(index)
                    # alive, partial, a sub-network of the dead MTN
                    assert engine.is_alive(mpan.query)
                    assert mpan.tree.is_subtree_of(mtn.tree)
                    assert mpan.tree != mtn.tree
                    # maximal: no alive strict ancestor within the MTN
                    covering = graph.asc_mask[index] & graph.desc_mask[mtn_index]
                    for ancestor in graph.bits(covering):
                        assert not engine.is_alive(graph.node(ancestor).query)
